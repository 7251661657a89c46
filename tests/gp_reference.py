"""A plain ``Node`` reference implementation of the GP evolution loop.

This is the oracle the engine (:class:`repro.core.gp.GeneticProgrammer`)
is checked against: the same §3.5 loop written the obvious way, with no
performance work at all.

* trees are :class:`~repro.core.gp.Node` objects, copied with
  :meth:`Node.copy` and addressed through their pre-order
  :meth:`Node.nodes` list;
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

from repro.core.gp import FUNCTION_SET, GpConfig, Node, batched_maes, polish_constants
from repro.core.gp.batch import TRIM_FRACTION


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
