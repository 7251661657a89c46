"""The genetic-programming symbolic-regression engine (§3.5, Step 2).

Given samples ``(X, Y)`` the engine searches the space of expression trees
for ``f`` with ``f(X) ≈ Y``:

* a random initial population (ramped grow/full);
* tournament selection of parents;
* subtree crossover, subtree/point/constant mutation;
* fitness = mean absolute error, with a light parsimony pressure so the
  shortest formula among equals wins (the paper prints compact formulas);
* stopping on either criterion the paper names — generation budget
  exhausted, or a candidate's fitness crossing the threshold.

Constants are additionally polished with a final least-squares pass over
the best tree's linear parameters (standard symbolic-regression practice;
gplearn does the equivalent through point mutations over many more
generations — we trade generations for polish to keep the full 18-car
evaluation tractable in pure Python).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .batch import TRIM_FRACTION, MaesRequest, drive
from .cache import FitnessCache
from .functions import DEFAULT_FUNCTION_NAMES
from .program import (
    CONST,
    VAR,
    Program,
    depth,
    execute,
    from_tree,
    program_grower,
    subtree_end,
    to_tree,
)
from .tree import Node


@dataclass
class GpConfig:
    """Evolution hyper-parameters.

    The paper's prototype used 30 generations x 1000 individuals (§4.3);
    those values work here too but the defaults are tuned smaller so the
    whole fleet evaluation runs in minutes — see the Tab. 8 bench for the
    cost comparison at both settings.
    """

    population_size: int = 300
    generations: int = 25
    tournament_size: int = 7
    crossover_prob: float = 0.7
    subtree_mutation_prob: float = 0.12
    point_mutation_prob: float = 0.1
    constant_mutation_prob: float = 0.08
    max_depth: int = 5
    init_depth: int = 3
    const_range: float = 10.0
    parsimony: float = 1e-3  # fitness penalty per tree node
    fitness_threshold: float = 5e-3  # stopping criterion (ii)
    function_names: Tuple[str, ...] = DEFAULT_FUNCTION_NAMES
    seed: int = 42
    #: Keijzer-style linear-scaling fitness.  Disable to emulate a vanilla
    #: gplearn-like engine (the paper's prototype), where the Tab. 2
    #: range normalisation carries the whole burden.
    linear_scaling: bool = True
    #: Memoise fitness per program (:mod:`repro.core.gp.cache`).  Exact —
    #: a hit returns the float the evaluation produced — so results are
    #: unchanged either way.
    fitness_cache: bool = True


@dataclass
class GpResult:
    """Outcome of one symbolic-regression run."""

    tree: Node
    fitness: float  # MAE on the training samples
    generations_run: int
    expression: str
    n_variables: int
    #: Fitness-cache statistics for this run (None when caching is off).
    cache_stats: Optional[dict] = None

    def predict(self, xs: Sequence[float]) -> float:
        return self.tree.evaluate_point(xs)


class GeneticProgrammer:
    """Evolves expression trees against a dataset.

    Evolution breeds flat pre-order programs (:mod:`repro.core.gp.program`)
    rather than :class:`Node` trees: the seed shapes enter as trees and the
    winner leaves as one, constants exact.  Every random draw replays the
    tree operators' draws in their order — a pre-order program indexes the
    same nodes :meth:`Node.nodes` lists — so seeded results do not depend
    on the representation (``tests/gp_reference.py`` keeps the tree
    version as the oracle).

    ``cache`` optionally injects a shared :class:`FitnessCache` (bound to
    one dataset) so several engine instances — e.g. the restart attempts
    of :mod:`repro.core.response_analysis` — reuse each other's
    evaluations.  When omitted, a fresh cache is created per :meth:`fit`.
    """

    TRIM_FRACTION = TRIM_FRACTION  # worst residuals ignored by the fitness

    def __init__(
        self,
        config: Optional[GpConfig] = None,
        cache: Optional[FitnessCache] = None,
    ) -> None:
        self.config = config or GpConfig()
        self._shared_cache = cache
        self._cache: Optional[FitnessCache] = None
        self._const_arrays: dict = {}

    # ---------------------------------------------------------------- fitness

    @staticmethod
    def _final_mae(tree: Node, columns: List[np.ndarray], y: np.ndarray) -> float:
        """Plain (unscaled) MAE — used for the final, polished tree."""
        try:
            predictions = tree.evaluate(columns)
        except (ValueError, OverflowError):
            return float("inf")
        if predictions.shape != y.shape:
            predictions = np.broadcast_to(predictions, y.shape).astype(float)
        errors = np.abs(predictions - y)
        if not np.all(np.isfinite(errors)):
            return float("inf")
        return float(np.mean(errors))

    def _scores(self, maes: List[float], programs: List[Program]) -> List[float]:
        """Selection scores: the error plus a parsimony penalty per token."""
        parsimony = self.config.parsimony
        return [
            mae + parsimony * len(program) if math.isfinite(mae) else math.inf
            for mae, program in zip(maes, programs)
        ]

    def _fitness_steps(self, programs: List[Program], columns: List[np.ndarray], y: np.ndarray):
        """Fitness of every program in one batch.

        Programs found in the fitness cache cost nothing; each distinct
        remaining program runs once, and the fitness *math* (Keijzer linear
        scaling, trimming of the worst residuals, refit) runs batched over
        all their prediction rows.  The batched math applies the per-row
        operations of a single-tree evaluation in the same order, so every
        float is the one a tree-by-tree evaluation gives.

        A generator: the math happens wherever the yielded
        :class:`MaesRequest` is answered — in-process via
        :func:`repro.core.gp.batch.drive`, or merged across ESVs by a
        :class:`~repro.core.gp.batch.BatchEvaluator`.
        """
        cache = self._cache
        maes: List[Optional[float]] = [None] * len(programs)
        if cache is not None:
            pending: dict = {}
            for index, program in enumerate(programs):
                cached = cache.get(program)
                if cached is not None:
                    maes[index] = cached
                elif program in pending:
                    # Duplicate structure within the batch: evaluate once.
                    pending[program].append(index)
                    cache.hits += 1
                    cache.misses -= 1
                else:
                    pending[program] = [index]
            groups = list(pending.items())
        else:
            groups = [(program, [index]) for index, program in enumerate(programs)]

        if groups:
            rows: List[Optional[np.ndarray]] = []
            const_arrays = self._const_arrays
            with np.errstate(all="ignore"):
                for program, __ in groups:
                    try:
                        row = execute(program, columns, const_arrays)
                    except (ValueError, OverflowError):
                        row = None
                    else:
                        if row.shape != y.shape:
                            row = np.broadcast_to(row, y.shape).astype(float)
                    rows.append(row)
            results = [math.inf] * len(groups)
            live = [slot for slot, row in enumerate(rows) if row is not None]
            if live:
                matrix = np.empty((len(live), y.shape[0]))
                for offset, slot in enumerate(live):
                    matrix[offset] = rows[slot]
                batched = yield MaesRequest(
                    matrix, y, self.config.linear_scaling, self.TRIM_FRACTION
                )
                for offset, slot in enumerate(live):
                    results[slot] = float(batched[offset])
            for (program, indices), mae in zip(groups, results):
                for index in indices:
                    maes[index] = mae
                if cache is not None:
                    cache.put(program, mae)
        return maes  # type: ignore[return-value]

    # -------------------------------------------------------------- breeding

    def _next_generation(
        self,
        rng: random.Random,
        population: List[Program],
        scores: List[float],
        elite: Program,
        grow_program: Callable[..., Program],
        n_variables: int,
    ) -> List[Program]:
        """The elite followed by bred children, up to the population size.

        Each child takes a tournament winner through one operator: subtree
        crossover, subtree mutation, point mutation, constant mutation or
        plain reproduction.  The draws are the tree operators', in order:

        * a tournament is ``random.Random.sample(range(n), k)`` (pool or
          set strategy, by the library's own threshold), keeping the first
          of the lowest scores;
        * crossover picks a node of the parent, then one of the donor;
          subtree mutation grows the replacement, then picks the node —
          a pick is ``choice`` over the pre-order node list, which is the
          program index itself;
        * point and constant mutation pick among the terminal or constant
          positions, in pre-order.

        ``randbelow`` draws on the hot paths (tournaments and crossover)
        run inline as ``getrandbits`` rejection loops, which is exactly
        what ``random.Random._randbelow`` does.
        """
        config = self.config
        rand = rng.random
        getrandbits = rng.getrandbits
        n = len(population)
        k = min(config.tournament_size, n)
        setsize = 21  # random.Random.sample's switch from its pool to its set
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        use_pool = n <= setsize
        pool_bits = [(n - i).bit_length() for i in range(k)]
        n_bits = n.bit_length()

        def tournament() -> Program:
            best = -1
            best_score = math.inf
            if use_pool:
                pool = list(range(n))
                for i in range(k):
                    size = n - i
                    bits = pool_bits[i]
                    j = getrandbits(bits)
                    while j >= size:
                        j = getrandbits(bits)
                    index = pool[j]
                    pool[j] = pool[size - 1]
                    score = scores[index]
                    if best < 0 or score < best_score:
                        best, best_score = index, score
            else:
                selected = set()
                for __ in range(k):
                    j = getrandbits(n_bits)
                    while j >= n or j in selected:
                        j = getrandbits(n_bits)
                    selected.add(j)
                    score = scores[j]
                    if best < 0 or score < best_score:
                        best, best_score = j, score
            return population[best]

        t_crossover = config.crossover_prob
        t_subtree = t_crossover + config.subtree_mutation_prob
        t_point = t_subtree + config.point_mutation_prob
        t_constant = t_point + config.constant_mutation_prob
        init_depth = config.init_depth
        const_range = config.const_range
        depth_limit = config.max_depth + 2
        children = [elite]
        while len(children) < config.population_size:
            roll = rand()
            parent = tournament()
            if roll < t_crossover:
                donor = tournament()
                size = len(parent)
                bits = size.bit_length()
                i = getrandbits(bits)
                while i >= size:
                    i = getrandbits(bits)
                size = len(donor)
                bits = size.bit_length()
                j = getrandbits(bits)
                while j >= size:
                    j = getrandbits(bits)
                graft = donor[j : subtree_end(donor, j)]
                child = parent[:i] + graft + parent[subtree_end(parent, i) :]
            elif roll < t_subtree:
                graft = grow_program(init_depth)
                i = rng.randrange(len(parent))
                child = parent[:i] + graft + parent[subtree_end(parent, i) :]
            elif roll < t_point:
                terminals = [at for at, token in enumerate(parent) if token[0] in (VAR, CONST)]
                i = rng.choice(terminals)
                if rand() < 0.5:
                    token = (VAR, rng.randrange(n_variables))
                else:
                    token = (CONST, round(rng.uniform(-const_range, const_range), 3))
                child = parent[:i] + (token,) + parent[i + 1 :]
            elif roll < t_constant:
                constants = [at for at, token in enumerate(parent) if token[0] == CONST]
                if constants:
                    i = rng.choice(constants)
                    value = parent[i][1] * rng.uniform(0.5, 1.5)
                    value += rng.uniform(-0.5, 0.5)
                    child = parent[:i] + ((CONST, value),) + parent[i + 1 :]
                else:
                    child = parent
            else:
                child = parent
            # depth <= size always, so the length screens out most children.
            if len(child) > depth_limit and depth(child) > depth_limit:
                child = grow_program(init_depth)
            children.append(child)
        return children

    # -------------------------------------------------------------- evolution

    def fit(self, x_rows: Sequence[Sequence[float]], y_values: Sequence[float]) -> GpResult:
        """Evolve a formula for the dataset ``(x_rows, y_values)``.

        In-process driver for :meth:`fit_steps`; results are bit-identical
        to a :class:`~repro.core.gp.batch.BatchEvaluator` driving the same
        generator interleaved with other ESVs.
        """
        return drive(self.fit_steps(x_rows, y_values))

    def fit_steps(self, x_rows: Sequence[Sequence[float]], y_values: Sequence[float]):
        """Generator form of :meth:`fit`: yields every fitness-math request.

        The evolution logic — rng stream, selection, operators, elitism,
        early exit — runs inside the generator and is untouched by *where*
        the yielded :class:`MaesRequest`\\ s are answered, which is what
        keeps reports byte-identical across the serial and cross-ESV
        batched execution modes.
        """
        if not x_rows:
            raise ValueError("empty dataset")
        config = self.config
        rng = random.Random(config.seed)
        x_matrix = np.asarray(x_rows, dtype=float)
        if x_matrix.ndim == 1:
            x_matrix = x_matrix[:, None]
        y = np.asarray(y_values, dtype=float)
        n_variables = x_matrix.shape[1]
        columns = [np.ascontiguousarray(x_matrix[:, i]) for i in range(n_variables)]

        # Per-dataset evaluation state: the fitness cache (shared across
        # engines when injected) and the materialised-constant arrays.
        if config.fitness_cache:
            # `is not None`, not truthiness: an injected cache that is
            # still empty (len 0) must not be swapped for a private one.
            self._cache = (
                self._shared_cache if self._shared_cache is not None else FitnessCache()
            )
            self._const_arrays = self._cache.const_arrays
        else:
            self._cache = None
            self._const_arrays = {}

        grow_program = program_grower(rng, n_variables, config.function_names, config.const_range)
        population = [
            grow_program(2 + index % max(1, config.init_depth - 1), index % 2 == 0)
            for index in range(config.population_size)
        ]
        population += [from_tree(shape) for shape in self._seed_shapes(columns, y)]

        maes = yield from self._fitness_steps(population, columns, y)
        scores = self._scores(maes, population)
        best_index = int(np.argmin(scores))
        best, best_mae = population[best_index], maes[best_index]
        generations_run = 0

        for generation in range(config.generations):
            generations_run = generation + 1
            population = self._next_generation(
                rng, population, scores, best, grow_program, n_variables
            )
            maes = yield from self._fitness_steps(population, columns, y)
            scores = self._scores(maes, population)
            best_index = int(np.argmin(scores))
            if maes[best_index] < best_mae:
                best, best_mae = population[best_index], maes[best_index]
            if best_mae <= config.fitness_threshold:
                break  # stopping criterion (ii): fitness reached the threshold

        best = yield from self._refine_constants_steps(best, columns, y)
        best_tree = to_tree(best)
        if config.linear_scaling:
            best_tree = polish_constants(best_tree, columns, y)
        best_mae = self._final_mae(best_tree, columns, y)
        return GpResult(
            tree=best_tree,
            fitness=best_mae,
            generations_run=generations_run,
            expression=best_tree.to_infix(),
            n_variables=n_variables,
            cache_stats=self._cache.stats() if self._cache is not None else None,
        )

    @classmethod
    def _seed_shapes(cls, columns: List[np.ndarray], y: np.ndarray) -> List[Node]:
        """Obviously useful shapes, so trivial formulas converge instantly
        (GP implementations seed linear terms the same way)."""
        n_variables = len(columns)
        shapes = []
        for i in range(n_variables):
            shapes.append(Node.var(i))
            shapes.append(Node.call("mul", Node.var(i), Node.const(1.0)))
        linear_seed = cls._linear_seed(columns, y)
        if linear_seed is not None:
            shapes.append(linear_seed)
        if n_variables == 2:
            shapes.append(Node.call("mul", Node.var(0), Node.var(1)))
            # Shifted products c*Xi*(Xj - k) are a common manufacturer shape
            # (KWP types 0x05/0x14/0x22); seed the motif, evolution tunes k.
            # Raw bytes centred on 128 (the signed-byte convention) arrive
            # here scaled by 0.1/0.01, hence the 1.28/12.8 variants.
            for i, j in ((0, 1), (1, 0)):
                for shift in (1.0, 1.28, 12.8):
                    shapes.append(
                        Node.call(
                            "mul",
                            Node.var(i),
                            Node.call("sub", Node.var(j), Node.const(shift)),
                        )
                    )
        return shapes

    @staticmethod
    def _linear_seed(columns: List[np.ndarray], y: np.ndarray) -> Optional[Node]:
        """The least-squares multilinear solution as a seed tree.

        Hybrid seeding: when the true formula *is* linear the seed is exact
        from generation zero (evolution cannot lose it thanks to elitism);
        when it is not, the seed is just one more individual.
        """
        if len(columns) < 2:
            return None  # single-var linear shapes are covered by var seeds
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

    def _refine_constants_steps(self, program: Program, columns: List[np.ndarray], y: np.ndarray):
        """Greedy hill-climb on each constant of the winning program.

        Evolution finds the right *shape* quickly but fine constants (e.g.
        the 1.28 centre of a signed-byte shift) drift slowly through random
        mutation; a few rounds of coordinate descent finish the job
        deterministically.  The eight candidates per constant are fixed up
        front, so the greedy accept only orders comparisons and all eight
        are scored in one batch.
        """
        (best_score,) = yield from self._fitness_steps([program], columns, y)
        if not math.isfinite(best_score):
            return program
        best = program
        for __ in range(3):
            improved = False
            for position in [i for i, token in enumerate(best) if token[0] == CONST]:
                original = best[position][1]
                candidates = [
                    original * 0.8, original * 0.9, original * 1.1, original * 1.25,
                    original - 0.1, original + 0.1, original - 0.02, original + 0.02,
                ]
                head, tail = best[:position], best[position + 1 :]
                scores = yield from self._fitness_steps(
                    [head + ((CONST, candidate),) + tail for candidate in candidates],
                    columns,
                    y,
                )
                for candidate, score in zip(candidates, scores):
                    if score < best_score - 1e-12:
                        best_score = score
                        original = candidate
                        improved = True
                best = head + ((CONST, original),) + tail
            if not improved:
                break
        return best


def polish_constants(tree: Node, columns: List[np.ndarray], y: np.ndarray) -> Node:
    """Refine ``a * f(X) + b`` around the evolved tree by least squares.

    If wrapping the tree in a scale-and-shift reduces the error, return the
    wrapped (and constant-folded) tree; otherwise return the original.
    """
    try:
        f_values = tree.evaluate(columns)
    except (ValueError, OverflowError):
        return tree
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
    # Refit on the inlier 95% so surviving OCR outliers cannot skew the
    # final constants (same trimming the fitness uses).
    n = y.shape[0]
    n_trim = int(np.ceil(n * GeneticProgrammer.TRIM_FRACTION)) if n >= 10 else 0
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
    wrapped = Node.call(
        "add", Node.call("mul", Node.const(float(a)), tree.copy()), Node.const(float(b))
    )
    return wrapped
