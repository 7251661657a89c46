"""The genetic-programming symbolic-regression engine (§3.5, Step 2).

Given samples ``(X, Y)`` the engine searches the space of expressions —
pre-order programs (:mod:`repro.core.gp.program`) — for ``f`` with
``f(X) ≈ Y``:

* a random initial population (ramped grow/full);
* tournament selection of parents;
* subtree crossover, subtree/point/constant mutation;
* fitness = mean absolute error, with a light parsimony pressure so the
  shortest formula among equals wins (the paper prints compact formulas);
* stopping on either criterion the paper names — generation budget
  exhausted, or a candidate's fitness crossing the threshold.

Constants are additionally polished with a final least-squares pass over
the best program's linear parameters (standard symbolic-regression practice;
gplearn does the equivalent through point mutations over many more
generations — we trade generations for polish to keep the full 18-car
evaluation tractable in pure Python).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .batch import TRIM_FRACTION, batched_maes
from .cache import FitnessCache
from .functions import DEFAULT_FUNCTION_NAMES
from .program import (
    CONST,
    VAR,
    Program,
    call,
    const,
    depth,
    execute,
    infix,
    program_grower,
    subtree_end,
    var,
)


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


@dataclass
class GpResult:
    """Outcome of one symbolic-regression run."""

    program: Program
    fitness: float  # MAE on the training samples
    generations_run: int
    expression: str
    n_variables: int
    #: Fitness-cache statistics for this run.
    cache_stats: dict

    def predict(self, xs: Sequence[float]) -> float:
        columns = [np.array([float(x)]) for x in xs]
        with np.errstate(all="ignore"):
            return float(execute(self.program, columns, {})[0])


class GeneticProgrammer:
    """Evolves pre-order programs (:mod:`repro.core.gp.program`) against a
    dataset.

    Every random draw replays the draws of the recursive tree operators in
    their order — a pre-order program indexes the nodes a tree's pre-order
    walk lists — so seeded results equal those of the plain tree loop
    ``tests/gp_reference.py`` keeps as the oracle.

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

    def _final_mae(self, program: Program, columns: List[np.ndarray], y: np.ndarray) -> float:
        """Plain (unscaled) MAE — used for the final, polished program."""
        with np.errstate(all="ignore"):
            predictions = execute(program, columns, self._const_arrays)
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

    def _fitness(
        self, programs: List[Program], columns: List[np.ndarray], y: np.ndarray
    ) -> List[float]:
        """Fitness of every program in one batch.

        Programs found in the fitness cache cost nothing; each distinct
        remaining program runs once, and the fitness *math* (Keijzer linear
        scaling, trimming of the worst residuals, refit) runs batched over
        all their prediction rows.  The batched math applies the per-row
        operations of a one-program evaluation in the same order, so every
        float is the one a program-by-program evaluation gives.
        """
        cache = self._cache
        maes: List[Optional[float]] = [None] * len(programs)
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
                batched = batched_maes(
                    matrix, y, self.config.linear_scaling, self.TRIM_FRACTION
                )
                for offset, slot in enumerate(live):
                    results[slot] = float(batched[offset])
            for (program, indices), mae in zip(groups, results):
                for index in indices:
                    maes[index] = mae
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
        """Evolve a formula for the dataset ``(x_rows, y_values)``."""
        if not len(x_rows):
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
        # engines when injected) and its materialised-constant arrays.
        # `is not None`, not truthiness: an injected cache that is still
        # empty (len 0) must not be swapped for a private one.
        self._cache = self._shared_cache if self._shared_cache is not None else FitnessCache()
        self._const_arrays = self._cache.const_arrays

        grow_program = program_grower(rng, n_variables, config.function_names, config.const_range)
        population = [
            grow_program(2 + index % max(1, config.init_depth - 1), index % 2 == 0)
            for index in range(config.population_size)
        ]
        population += self._seed_shapes(columns, y)

        maes = self._fitness(population, columns, y)
        scores = self._scores(maes, population)
        best_index = int(np.argmin(scores))
        best, best_mae = population[best_index], maes[best_index]
        generations_run = 0

        for generation in range(config.generations):
            generations_run = generation + 1
            population = self._next_generation(
                rng, population, scores, best, grow_program, n_variables
            )
            maes = self._fitness(population, columns, y)
            scores = self._scores(maes, population)
            best_index = int(np.argmin(scores))
            if maes[best_index] < best_mae:
                best, best_mae = population[best_index], maes[best_index]
            if best_mae <= config.fitness_threshold:
                break  # stopping criterion (ii): fitness reached the threshold

        best = self._refine_constants(best, columns, y)
        if config.linear_scaling:
            best = polish_constants(best, columns, y)
        return GpResult(
            program=best,
            fitness=self._final_mae(best, columns, y),
            generations_run=generations_run,
            expression=infix(best),
            n_variables=n_variables,
            cache_stats=self._cache.stats(),
        )

    @classmethod
    def _seed_shapes(cls, columns: List[np.ndarray], y: np.ndarray) -> List[Program]:
        """Obviously useful shapes, so trivial formulas converge instantly
        (GP implementations seed linear terms the same way)."""
        n_variables = len(columns)
        shapes = []
        for i in range(n_variables):
            shapes.append(var(i))
            shapes.append(call("mul", var(i), const(1.0)))
        linear_seed = cls._linear_seed(columns, y)
        if linear_seed is not None:
            shapes.append(linear_seed)
        if n_variables == 2:
            shapes.append(call("mul", var(0), var(1)))
            # Shifted products c*Xi*(Xj - k) are a common manufacturer shape
            # (KWP types 0x05/0x14/0x22); seed the motif, evolution tunes k.
            # Raw bytes centred on 128 (the signed-byte convention) arrive
            # here scaled by 0.1/0.01, hence the 1.28/12.8 variants.
            for i, j in ((0, 1), (1, 0)):
                for shift in (1.0, 1.28, 12.8):
                    shapes.append(call("mul", var(i), call("sub", var(j), const(shift))))
        return shapes

    @staticmethod
    def _linear_seed(columns: List[np.ndarray], y: np.ndarray) -> Optional[Program]:
        """The least-squares multilinear solution as a seed program.

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
        program: Optional[Program] = None
        for index in range(len(columns)):
            term = call("mul", const(round(float(coefficients[index]), 6)), var(index))
            program = term if program is None else call("add", program, term)
        return call("add", program, const(round(float(coefficients[-1]), 6)))

    def _refine_constants(
        self, program: Program, columns: List[np.ndarray], y: np.ndarray
    ) -> Program:
        """Greedy hill-climb on each constant of the winning program.

        Evolution finds the right *shape* quickly but fine constants (e.g.
        the 1.28 centre of a signed-byte shift) drift slowly through random
        mutation; a few rounds of coordinate descent finish the job
        deterministically.  The eight candidates per constant are fixed up
        front, so the greedy accept only orders comparisons and all eight
        are scored in one batch.
        """
        (best_score,) = self._fitness([program], columns, y)
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
                scores = self._fitness(
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


def polish_constants(program: Program, columns: List[np.ndarray], y: np.ndarray) -> Program:
    """Refine ``a * f(X) + b`` around the evolved program by least squares.

    If wrapping the program in a scale-and-shift reduces the error, return
    the wrapped program; otherwise return the original.
    """
    with np.errstate(all="ignore"):
        f_values = execute(program, columns, {})
    if not np.all(np.isfinite(f_values)):
        return program

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
        return program
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
        return program
    return call("add", call("mul", const(a), program), const(b))
