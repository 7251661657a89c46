"""A plain ``Node`` reference implementation of GP expressions and evolution.

This is the oracle the engine (:class:`repro.core.gp.GeneticProgrammer`)
and its flat programs (:mod:`repro.core.gp.program`) are checked against:
the same §3.5 expressions and loop written the obvious way, with no
performance work at all.

* an expression is a :class:`Node` tree over the primitives of
  :data:`~repro.core.gp.FUNCTION_SET`, evaluated recursively, folded by
  :func:`fold_constants` and printed by :meth:`Node.to_infix`;
  :func:`to_program` and :func:`from_program` translate to and from the
  engine's pre-order programs;
* trees are copied with :meth:`Node.copy` and addressed through their
  pre-order :meth:`Node.nodes` list;
* every random choice goes through the public :class:`random.Random`
  methods (``choice``, ``sample``, ``randrange``, ``uniform``);
* fitness is one :meth:`Node.evaluate` per tree, scored through a one-row
  :func:`~repro.core.gp.batched_maes` call, with no cache.

Equal seeds must give equal results — the same expression, the same
fitness float and the same generation count — so any reordering of the
engine's random draws or any change to its fitness floats shows up as a
mismatch here.  The comparison runs on the host under test rather than
against stored digests: the fitness dot products go through BLAS, whose
last bits may differ between CPUs.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

import numpy as np

from repro.core.gp import FUNCTION_SET, GpConfig, GpFunction, batched_maes
from repro.core.gp.batch import TRIM_FRACTION
from repro.core.gp.program import CALLS, CONST, VAR


class Node:
    """One tree node: a function application, a variable, or a constant."""

    __slots__ = ("function", "children", "var_index", "constant")

    def __init__(
        self,
        function: Optional[GpFunction] = None,
        children: Optional[List["Node"]] = None,
        var_index: Optional[int] = None,
        constant: Optional[float] = None,
    ) -> None:
        self.function = function
        self.children = children or []
        self.var_index = var_index
        self.constant = constant

    @classmethod
    def var(cls, index: int) -> "Node":
        return cls(var_index=index)

    @classmethod
    def const(cls, value: float) -> "Node":
        return cls(constant=float(value))

    @classmethod
    def call(cls, name: str, *children: "Node") -> "Node":
        function = FUNCTION_SET[name]
        if len(children) != function.arity:
            raise ValueError(f"{name} takes {function.arity} children, got {len(children)}")
        return cls(function=function, children=list(children))

    @property
    def is_terminal(self) -> bool:
        return self.function is None

    def size(self) -> int:
        return len(self.nodes())

    def depth(self) -> int:
        return 1 + max((child.depth() for child in self.children), default=0)

    def evaluate(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorised evaluation: ``columns[i]`` holds variable i's samples."""
        if self.var_index is not None:
            return columns[self.var_index]
        if self.constant is not None:
            return np.full_like(columns[0], self.constant, dtype=float)
        args = [child.evaluate(columns) for child in self.children]
        with np.errstate(all="ignore"):
            return self.function.func(*args)

    def copy(self) -> "Node":
        return Node(
            function=self.function,
            children=[child.copy() for child in self.children],
            var_index=self.var_index,
            constant=self.constant,
        )

    def nodes(self) -> List["Node"]:
        """Pre-order list of all nodes (self included)."""
        out = [self]
        for child in self.children:
            out.extend(child.nodes())
        return out

    def to_infix(self) -> str:
        if self.var_index is not None:
            return f"X{self.var_index}"
        if self.constant is not None:
            return f"{self.constant:g}"
        return self.function.fmt.format(*(child.to_infix() for child in self.children))


_FUNCTION_OF_TOKEN = {CALLS[name]: function for name, function in FUNCTION_SET.items()}


def to_program(tree: Node) -> tuple:
    """The engine's pre-order program of ``tree``, constants exact."""
    out = []
    for node in tree.nodes():
        if node.var_index is not None:
            out.append((VAR, node.var_index))
        elif node.constant is not None:
            out.append((CONST, node.constant))
        else:
            out.append(CALLS[node.function.name])
    return tuple(out)


def from_program(program: Sequence) -> Node:
    """The tree a pre-order program encodes, constants exact."""
    stack: List[Node] = []
    for token in reversed(program):
        kind, payload = token
        if kind == VAR:
            stack.append(Node.var(payload))
        elif kind == CONST:
            stack.append(Node(constant=payload))
        else:
            function = _FUNCTION_OF_TOKEN[token]
            children = [stack.pop() for __ in range(function.arity)]
            stack.append(Node(function=function, children=children))
    (tree,) = stack
    return tree


def canonical(program: Sequence) -> list:
    """A program with every constant as its exact bits, for comparisons
    that tell ``-0.0`` from ``0.0`` and find NaN equal to NaN."""
    out = []
    for kind, payload in program:
        if kind == CONST:
            payload = "nan" if math.isnan(payload) else payload.hex()
        elif kind != VAR:
            payload = _FUNCTION_OF_TOKEN[(kind, payload)].name
        out.append((kind, payload))
    return out


# ------------------------------------------------------------ folding, polish

#: The column a constant subtree is evaluated over when it is folded.
_FOLD_COLUMN = np.zeros(1)


def fold_constants(tree: Node) -> Node:
    """Recursively evaluate constant subtrees and apply identity rules."""
    if tree.is_terminal:
        return tree.copy()
    children = [fold_constants(child) for child in tree.children]
    node = Node(function=tree.function, children=children)

    # Pure-constant subtree: evaluate it once.
    if all(c.constant is not None for c in children):
        value = float(node.evaluate([_FOLD_COLUMN])[0])
        if math.isfinite(value):
            return Node.const(round(value, 10))

    name = tree.function.name
    a = children[0]
    b = children[1] if len(children) > 1 else None

    if name == "add":
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    if name == "sub" and _is_const(b, 0.0):
        return a
    if name == "mul":
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return Node.const(0.0)
    if name == "div" and _is_const(b, 1.0):
        return a
    if name == "neg" and a.constant is not None:
        return Node.const(-a.constant)
    return node


def _is_const(node: Optional[Node], value: float) -> bool:
    return node is not None and node.constant is not None and abs(node.constant - value) < 1e-12


def polish_constants(tree: Node, columns: List[np.ndarray], y: np.ndarray) -> Node:
    """Wrap ``tree`` as ``a * tree + b`` when the least-squares scale and
    shift (refit on the inliers) lower the trimmed error."""
    f_values = tree.evaluate(columns)
    if f_values.shape != y.shape:
        f_values = np.broadcast_to(f_values, y.shape).astype(float)
    if not np.all(np.isfinite(f_values)):
        return tree

    def fit(subset: Optional[np.ndarray]):
        f_fit = f_values if subset is None else f_values[subset]
        y_fit = y if subset is None else y[subset]
        design = np.stack([f_fit, np.ones_like(f_fit)], axis=1)
        try:
            (a, b), *_ = np.linalg.lstsq(design, y_fit, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(a) and np.isfinite(b)):
            return None
        return float(a), float(b)

    params = fit(None)
    if params is None:
        return tree
    a, b = params
    n = y.shape[0]
    n_trim = int(np.ceil(n * TRIM_FRACTION)) if n >= 10 else 0
    if n_trim:
        residuals = np.abs(a * f_values + b - y)
        inliers = np.argsort(residuals)[: n - n_trim]
        refit = fit(inliers)
        if refit is not None:
            a, b = refit
    trimmed = np.sort(np.abs(f_values - y))[: n - n_trim]
    polished = np.sort(np.abs(a * f_values + b - y))[: n - n_trim]
    if float(np.mean(polished)) >= float(np.mean(trimmed)) - 1e-12:
        return tree
    return Node.call(
        "add", Node.call("mul", Node.const(float(a)), tree.copy()), Node.const(float(b))
    )


# ------------------------------------------------------------------ evolution


class ReferenceResult:
    def __init__(self, tree: Node, fitness: float, generations_run: int) -> None:
        self.tree = tree
        self.fitness = fitness
        self.generations_run = generations_run
        self.expression = tree.to_infix()


def reference_random_tree(
    rng: random.Random,
    n_variables: int,
    function_names: Sequence[str],
    max_depth: int,
    const_range: float,
    grow: bool = True,
) -> Node:
    if max_depth <= 1 or (grow and rng.random() < 0.3):
        if rng.random() < 0.7:
            return Node.var(rng.randrange(n_variables))
        return Node.const(round(rng.uniform(-const_range, const_range), 3))
    function = FUNCTION_SET[rng.choice(function_names)]
    children = [
        reference_random_tree(rng, n_variables, function_names, max_depth - 1, const_range, grow)
        for __ in range(function.arity)
    ]
    return Node(function=function, children=children)


def _replace(root: Node, target: Node, graft: Node) -> Node:
    """``root`` with the node ``target`` (by identity) swapped for ``graft``."""
    if target is root:
        return graft
    for node in root.nodes():
        for index, child in enumerate(node.children):
            if child is target:
                node.children[index] = graft
                return root
    raise AssertionError("target not in tree")


def reference_fitness(
    tree: Node, columns: List[np.ndarray], y: np.ndarray, linear_scaling: bool
) -> float:
    try:
        with np.errstate(all="ignore"):
            predictions = tree.evaluate(columns)
    except (ValueError, OverflowError):
        return float("inf")
    matrix = np.empty((1, y.shape[0]))
    matrix[0] = predictions
    return float(batched_maes(matrix, y, linear_scaling, TRIM_FRACTION)[0])


def _linear_seed(columns: List[np.ndarray], y: np.ndarray) -> Optional[Node]:
    if len(columns) < 2:
        return None
    design = np.stack(list(columns) + [np.ones_like(y)], axis=1)
    try:
        coefficients, *_ = np.linalg.lstsq(design, y, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(coefficients)):
        return None
    tree: Optional[Node] = None
    for index in range(len(columns)):
        term = Node.call("mul", Node.const(round(float(coefficients[index]), 6)), Node.var(index))
        tree = term if tree is None else Node.call("add", tree, term)
    return Node.call("add", tree, Node.const(round(float(coefficients[-1]), 6)))


def _seed_shapes(n_variables: int, columns: List[np.ndarray], y: np.ndarray) -> List[Node]:
    shapes = []
    for i in range(n_variables):
        shapes.append(Node.var(i))
        shapes.append(Node.call("mul", Node.var(i), Node.const(1.0)))
    linear = _linear_seed(columns, y)
    if linear is not None:
        shapes.append(linear)
    if n_variables == 2:
        shapes.append(Node.call("mul", Node.var(0), Node.var(1)))
        for i, j in ((0, 1), (1, 0)):
            for shift in (1.0, 1.28, 12.8):
                shapes.append(
                    Node.call("mul", Node.var(i), Node.call("sub", Node.var(j), Node.const(shift)))
                )
    return shapes


def _tournament(rng: random.Random, population: List[Node], scores: List[float], size: int):
    best = None
    for index in rng.sample(range(len(population)), min(size, len(population))):
        if best is None or scores[index] < scores[best]:
            best = index
    return population[best]


def _breed(rng, config: GpConfig, population, scores, n_variables: int) -> Node:
    roll = rng.random()
    parent = _tournament(rng, population, scores, config.tournament_size)
    names, init_depth, const_range = config.function_names, config.init_depth, config.const_range
    if roll < config.crossover_prob:
        other = _tournament(rng, population, scores, config.tournament_size)
        child = parent.copy()
        target = rng.choice(child.nodes())
        graft = rng.choice(other.nodes()).copy()
        return _replace(child, target, graft)
    if roll < config.crossover_prob + config.subtree_mutation_prob:
        replacement = reference_random_tree(rng, n_variables, names, init_depth, const_range)
        child = parent.copy()
        return _replace(child, rng.choice(child.nodes()), replacement)
    if roll < config.crossover_prob + config.subtree_mutation_prob + config.point_mutation_prob:
        child = parent.copy()
        target = rng.choice([node for node in child.nodes() if node.is_terminal])
        if rng.random() < 0.5:
            target.var_index, target.constant = rng.randrange(n_variables), None
        else:
            target.var_index = None
            target.constant = round(rng.uniform(-const_range, const_range), 3)
        return child
    if roll < (
        config.crossover_prob
        + config.subtree_mutation_prob
        + config.point_mutation_prob
        + config.constant_mutation_prob
    ):
        child = parent.copy()
        constants = [node for node in child.nodes() if node.constant is not None]
        if constants:
            target = rng.choice(constants)
            target.constant *= rng.uniform(0.5, 1.5)
            target.constant += rng.uniform(-0.5, 0.5)
        return child
    return parent.copy()


def _refine_constants(tree: Node, score, config: GpConfig) -> Node:
    best = tree.copy()
    best_score = score(best)
    if not math.isfinite(best_score):
        return tree
    for __ in range(3):
        improved = False
        for node in [n for n in best.nodes() if n.constant is not None]:
            original = node.constant
            candidates = [
                original * 0.8, original * 0.9, original * 1.1, original * 1.25,
                original - 0.1, original + 0.1, original - 0.02, original + 0.02,
            ]
            scores = []
            for candidate in candidates:
                node.constant = candidate
                scores.append(score(best))
            for candidate, candidate_score in zip(candidates, scores):
                if candidate_score < best_score - 1e-12:
                    best_score = candidate_score
                    original = candidate
                    improved = True
            node.constant = original
        if not improved:
            break
    return best


def reference_fit(
    x_rows: Sequence[Sequence[float]], y_values: Sequence[float], config: GpConfig
) -> ReferenceResult:
    rng = random.Random(config.seed)
    x_matrix = np.asarray(x_rows, dtype=float)
    if x_matrix.ndim == 1:
        x_matrix = x_matrix[:, None]
    y = np.asarray(y_values, dtype=float)
    n_variables = x_matrix.shape[1]
    columns = [np.ascontiguousarray(x_matrix[:, i]) for i in range(n_variables)]

    def score(tree: Node) -> float:
        return reference_fitness(tree, columns, y, config.linear_scaling)

    def evaluate(population: List[Node]):
        maes = [score(tree) for tree in population]
        scores = [
            mae + config.parsimony * tree.size() if math.isfinite(mae) else math.inf
            for mae, tree in zip(maes, population)
        ]
        return maes, scores

    population = [
        reference_random_tree(
            rng,
            n_variables,
            config.function_names,
            2 + index % max(1, config.init_depth - 1),
            config.const_range,
            grow=index % 2 == 0,
        )
        for index in range(config.population_size)
    ]
    population += _seed_shapes(n_variables, columns, y)
    maes, scores = evaluate(population)
    best_index = int(np.argmin(scores))
    best_tree, best_mae = population[best_index].copy(), maes[best_index]

    generations_run = 0
    depth_limit = config.max_depth + 2
    for generation in range(config.generations):
        generations_run = generation + 1
        next_population = [best_tree.copy()]
        while len(next_population) < config.population_size:
            child = _breed(rng, config, population, scores, n_variables)
            if child.depth() > depth_limit:
                child = reference_random_tree(
                    rng, n_variables, config.function_names, config.init_depth,
                    config.const_range,
                )
            next_population.append(child)
        population = next_population
        maes, scores = evaluate(population)
        best_index = int(np.argmin(scores))
        if maes[best_index] < best_mae:
            best_tree, best_mae = population[best_index].copy(), maes[best_index]
        if best_mae <= config.fitness_threshold:
            break

    best_tree = _refine_constants(best_tree, score, config)
    if config.linear_scaling:
        best_tree = polish_constants(best_tree, columns, y)
    with np.errstate(all="ignore"):
        errors = np.abs(
            np.broadcast_to(best_tree.evaluate(columns), y.shape).astype(float) - y
        )
    fitness = float(np.mean(errors)) if np.all(np.isfinite(errors)) else float("inf")
    return ReferenceResult(best_tree, fitness, generations_run)
