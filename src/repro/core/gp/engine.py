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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .batch import TRIM_FRACTION, MaesRequest, drive
from .cache import FitnessCache
from .compile import CompiledProgram, compile_tree
from .functions import DEFAULT_FUNCTION_NAMES
from .tree import Node, random_tree


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
    #: Evaluate trees through the flattened postfix programs of
    #: :mod:`repro.core.gp.compile` instead of the recursive
    #: :meth:`Node.evaluate`.  Bit-identical results (same primitives,
    #: same order), several times faster; off = the reference interpreter.
    compiled: bool = True
    #: Memoise fitness per canonical tree structure
    #: (:mod:`repro.core.gp.cache`).  Exact — a hit returns the float the
    #: evaluation produced — so results are unchanged either way.
    fitness_cache: bool = True
    #: Subsample-then-escalate fitness (OFF by default — it changes which
    #: trees win, so default results stay untouched): when > 0 and the
    #: dataset is larger, every candidate is first scored on this many
    #: evenly spaced samples and only the top :attr:`subsample_top`
    #: fraction is re-scored on the full dataset.
    subsample_size: int = 0
    #: Fraction of the population promoted to full evaluation in
    #: subsample mode.
    subsample_top: float = 0.3


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

    ``cache`` optionally injects a shared :class:`FitnessCache` (bound to
    one dataset) so several engine instances — e.g. the restart attempts
    of :mod:`repro.core.response_analysis` — reuse each other's
    evaluations.  When omitted, a fresh cache is created per :meth:`fit`.
    """

    def __init__(
        self,
        config: Optional[GpConfig] = None,
        cache: Optional[FitnessCache] = None,
    ) -> None:
        self.config = config or GpConfig()
        self._shared_cache = cache
        self._cache: Optional[FitnessCache] = None
        self._const_cache: dict = {}
        self._parent_nodes: dict = {}

    # ---------------------------------------------------------------- fitness

    TRIM_FRACTION = TRIM_FRACTION  # worst residuals ignored by the fitness

    def _scaled_mae(self, tree: Node, columns: List[np.ndarray], y: np.ndarray) -> float:
        """Trimmed MAE under the candidate's optimal linear scaling.

        Two standard robustness devices compose here:

        * *linear scaling* (Keijzer 2003) — fitness is computed after the
          candidate's optimal least-squares ``a*f(X)+b``, so GP concentrates
          on the formula's *shape* while scale/offset come for free (the
          same degrees of freedom the Tab. 2 pre/post-processing targets);
        * *trimming* — the worst ~8 % of residuals are excluded, first from
          the (re-fitted) scaling and then from the reported error, so OCR
          outliers that survived the §3.3 filter cannot reward clip-shaped
          trees (min/max plateaus) over the true formula.  This is the
          mechanical counterpart of the outlier robustness the paper
          attributes to GP (§4.4).
        """
        try:
            predictions = tree.evaluate(columns)
        except (ValueError, OverflowError):
            return float("inf")
        return self._mae_from_predictions(predictions, y)

    def _mae_from_predictions(self, predictions: np.ndarray, y: np.ndarray) -> float:
        """The shared back half of the fitness: scaling, trimming, mean."""
        if predictions.shape != y.shape:
            predictions = np.broadcast_to(predictions, y.shape).astype(float)
        if not np.all(np.isfinite(predictions)):
            return float("inf")
        n = y.shape[0]
        n_trim = int(np.ceil(n * self.TRIM_FRACTION)) if n >= 10 else 0
        keep = n - n_trim

        if not self.config.linear_scaling:
            errors = np.abs(predictions - y)
            if not np.all(np.isfinite(errors)):
                return float("inf")
            if n_trim:
                errors = np.sort(errors)[:keep]
            return float(np.mean(errors))

        errors = self._linear_scaled_errors(predictions, y, None)
        if errors is None:
            return float("inf")
        if n_trim:
            inliers = np.argsort(errors)[:keep]
            refit = self._linear_scaled_errors(predictions, y, inliers)
            if refit is not None:
                errors = refit
            errors = np.sort(errors)[:keep]
        return float(np.mean(errors))

    @staticmethod
    def _linear_scaled_errors(
        predictions: np.ndarray, y: np.ndarray, subset: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """|a*f+b - y| with (a, b) fit on ``subset`` (or all) samples."""
        f_fit = predictions if subset is None else predictions[subset]
        y_fit = y if subset is None else y[subset]
        f_mean = f_fit.mean()
        y_mean = y_fit.mean()
        centred = f_fit - f_mean
        variance = float(np.dot(centred, centred))
        if variance < 1e-12:
            errors = np.abs(y_mean - y)  # constant tree
        else:
            a = float(np.dot(centred, y_fit - y_mean)) / variance
            b = y_mean - a * f_mean
            errors = np.abs(a * predictions + b - y)
        if not np.all(np.isfinite(errors)):
            return None
        return errors

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

    def _penalised(self, mae: float, size: int) -> float:
        if not np.isfinite(mae):
            return float("inf")
        return mae + self.config.parsimony * size

    # ------------------------------------------------------- compiled fitness

    def _program_mae(
        self,
        program: CompiledProgram,
        columns: List[np.ndarray],
        y: np.ndarray,
        tag: str = "full",
    ) -> float:
        """Fitness of one compiled tree, through the cache when enabled.

        ``tag`` separates cache entries computed on different views of the
        dataset (full vs subsample) — one cache instance, disjoint keys.
        """
        cache = self._cache
        if cache is not None:
            key = (tag, program.key)
            cached = cache.get(key)
            if cached is not None:
                return cached
        try:
            predictions = program.execute(columns, self._const_cache)
        except (ValueError, OverflowError):
            mae = float("inf")
        else:
            mae = self._mae_from_predictions(predictions, y)
        if cache is not None:
            cache.put(key, mae)
        return mae

    def _fitness(self, tree: Node, columns: List[np.ndarray], y: np.ndarray) -> float:
        """Single-tree fitness through the configured evaluation engine."""
        if not self.config.compiled:
            return self._scaled_mae(tree, columns, y)
        return self._program_mae(compile_tree(tree), columns, y)

    def _evaluate_population_steps(
        self,
        population: List[Node],
        columns: List[np.ndarray],
        y: np.ndarray,
    ):
        """Fitness and size for every tree in one batch.

        The compiled path flattens each tree once (yielding its size for
        the parsimony penalty as a by-product), consults the fitness
        cache, executes the cache misses, and runs the fitness *math*
        (linear scaling, trim, refit) batched over the whole population as
        matrix operations — the same scalar operations the per-tree code
        applies, so the floats are bit-identical (reductions whose result
        depends on accumulation order, the BLAS dot products, stay
        per-row).  When ``subsample_size`` is on, candidates are scored on
        an evenly spaced subsample first and only the top
        ``subsample_top`` fraction is re-scored on the full dataset.

        A generator: the actual matrix math happens wherever the yielded
        :class:`MaesRequest`\\ s are answered — in-process via
        :func:`repro.core.gp.batch.drive`, or merged across ESVs by a
        :class:`~repro.core.gp.batch.BatchEvaluator`.
        """
        config = self.config
        if not config.compiled:
            maes = [self._scaled_mae(tree, columns, y) for tree in population]
            return maes, [tree.size() for tree in population]
        programs = [compile_tree(tree) for tree in population]
        sizes = [program.size for program in programs]
        n = y.shape[0]
        if config.subsample_size and 0 < config.subsample_size < n:
            indices = np.linspace(0, n - 1, config.subsample_size).astype(int)
            sub_columns = [column[indices] for column in columns]
            sub_y = y[indices]
            sub_maes = yield from self._batched_fitness_steps(
                programs, sub_columns, sub_y, "sub"
            )
            promoted = int(np.ceil(len(programs) * config.subsample_top))
            order = np.argsort(sub_maes, kind="stable")[: max(1, promoted)]
            chosen = [programs[index] for index in order]
            full_maes = yield from self._batched_fitness_steps(
                chosen, columns, y, "full"
            )
            maes = list(sub_maes)
            for index, mae in zip(order, full_maes):
                maes[index] = mae
            return maes, sizes
        maes = yield from self._batched_fitness_steps(programs, columns, y, "full")
        return maes, sizes

    def _batched_fitness_steps(
        self,
        programs: List[CompiledProgram],
        columns: List[np.ndarray],
        y: np.ndarray,
        tag: str,
    ):
        """Cache-aware batched fitness for a list of compiled programs.

        Generator: program execution (the interpreter loop) runs inline,
        the fitness math is requested through one yielded
        :class:`MaesRequest` per call.
        """
        cache = self._cache
        maes: List[Optional[float]] = [None] * len(programs)
        pending: List[Tuple[Tuple, List[int]]] = []
        if cache is not None:
            slots: dict = {}
            for index, program in enumerate(programs):
                key = (tag, program.key)
                cached = cache.get(key)
                if cached is not None:
                    maes[index] = cached
                elif key in slots:
                    # Duplicate structure within the batch: evaluate once.
                    pending[slots[key]][1].append(index)
                    cache.hits += 1
                    cache.misses -= 1
                else:
                    slots[key] = len(pending)
                    pending.append((key, [index]))
        else:
            pending = [((tag, index), [index]) for index in range(len(programs))]

        if pending:
            rows: List[Optional[np.ndarray]] = []
            const_cache = self._const_cache
            with np.errstate(all="ignore"):
                for key, indices in pending:
                    program = programs[indices[0]]
                    try:
                        row = program.execute_unchecked(columns, const_cache)
                    except (ValueError, OverflowError):
                        row = None
                    else:
                        if row.shape != y.shape:
                            row = np.broadcast_to(row, y.shape).astype(float)
                    rows.append(row)
            results = [float("inf")] * len(pending)
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
            for (key, indices), mae in zip(pending, results):
                for index in indices:
                    maes[index] = mae
                if cache is not None:
                    cache.put(key, mae)
        return maes  # type: ignore[return-value]

    # -------------------------------------------------------------- operators

    def _tournament(self, rng, population, scores) -> Node:
        """Best of ``tournament_size`` uniformly sampled individuals.

        Open-codes :meth:`random.Random.sample` over ``range(n)`` — the
        same ``_randbelow`` draw sequence, including the pool-vs-set branch
        at the same ``setsize`` threshold — minus its generic-sequence
        overhead (isinstance dispatch, result-list build).  Tournaments run
        tens of thousands of times per fit, and the rng stream must stay
        bit-identical for seeded results to be reproducible.
        """
        n = len(population)
        k = min(self.config.tournament_size, n)
        randbelow = rng._randbelow
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        best = -1
        best_score = math.inf
        if n <= setsize:
            pool = list(range(n))
            for i in range(k):
                j = randbelow(n - i)
                index = pool[j]
                pool[j] = pool[n - i - 1]
                score = scores[index]
                if best < 0 or score < best_score:
                    best, best_score = index, score
        else:
            selected: set = set()
            add = selected.add
            for __ in range(k):
                j = randbelow(n)
                while j in selected:
                    j = randbelow(n)
                add(j)
                score = scores[j]
                if best < 0 or score < best_score:
                    best, best_score = j, score
        return population[best]

    def _donor_nodes(self, tree: Node) -> List[Node]:
        """Node list of a *population member*, cached for the generation.

        Selection pressure makes tournaments hand back the same few parents
        over and over; their node lists are immutable for the generation
        (operators only ever mutate copies), so one walk per parent per
        generation suffices.  Keyed by ``id`` — safe because the population
        list keeps every member alive for exactly the cache's lifetime.
        """
        cache = self._parent_nodes
        nodes = cache.get(id(tree))
        if nodes is None:
            nodes = cache[id(tree)] = tree.nodes()
        return nodes

    def _crossover(self, rng, a: Node, b: Node) -> Node:
        # Only the selected graft is copied out of the donor — copying all
        # of ``b`` first would allocate the whole tree to keep one subtree.
        # rng consumption (two choices over same-length node lists) is
        # unchanged, so evolution is bit-for-bit the same.
        child, target_nodes = a.copy_with_nodes()
        donor_nodes = self._donor_nodes(b)
        target = rng.choice(target_nodes)
        graft = rng.choice(donor_nodes).copy()
        if target is child:
            return graft
        child.replace_child(target, graft)
        return child

    def _subtree_mutation(self, rng, tree: Node, n_variables: int) -> Node:
        replacement = random_tree(
            rng, n_variables, self.config.function_names,
            max_depth=self.config.init_depth, const_range=self.config.const_range,
        )
        mutant, nodes = tree.copy_with_nodes()
        target = rng.choice(nodes)
        if target is mutant:
            return replacement
        mutant.replace_child(target, replacement)
        return mutant

    def _point_mutation(self, rng, tree: Node, n_variables: int) -> Node:
        mutant, nodes = tree.copy_with_nodes()
        terminals = [n for n in nodes if n.is_terminal]
        target = rng.choice(terminals)
        if rng.random() < 0.5:
            target.var_index = rng.randrange(n_variables)
            target.constant = None
        else:
            target.var_index = None
            target.constant = round(rng.uniform(-self.config.const_range, self.config.const_range), 3)
        return mutant

    def _constant_mutation(self, rng, tree: Node) -> Node:
        mutant, nodes = tree.copy_with_nodes()
        constants = [n for n in nodes if n.constant is not None]
        if constants:
            target = rng.choice(constants)
            target.constant *= rng.uniform(0.5, 1.5)
            target.constant += rng.uniform(-0.5, 0.5)
        return mutant

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
        # engines when injected) and the materialised-constant cache.
        if config.fitness_cache:
            # `is not None`, not truthiness: an injected cache that is
            # still empty (len 0) must not be swapped for a private one.
            self._cache = (
                self._shared_cache if self._shared_cache is not None else FitnessCache()
            )
            self._const_cache = self._cache.const_arrays
        else:
            self._cache = None
            self._const_cache = {}

        population: List[Node] = []
        for index in range(config.population_size):
            grow = index % 2 == 0
            depth = 2 + index % max(1, config.init_depth - 1)
            population.append(
                random_tree(rng, n_variables, config.function_names, depth,
                            config.const_range, grow=grow)
            )
        # Seed a few obviously useful shapes so trivial formulas converge
        # instantly (GP implementations seed linear terms the same way).
        for i in range(n_variables):
            population.append(Node.var(i))
            population.append(Node.call("mul", Node.var(i), Node.const(1.0)))
        linear_seed = self._linear_seed(columns, y)
        if linear_seed is not None:
            population.append(linear_seed)
        if n_variables == 2:
            population.append(Node.call("mul", Node.var(0), Node.var(1)))
            # Shifted products c*Xi*(Xj - k) are a common manufacturer shape
            # (KWP types 0x05/0x14/0x22); seed the motif, evolution tunes k.
            # Raw bytes centred on 128 (the signed-byte convention) arrive
            # here scaled by 0.1/0.01, hence the 1.28/12.8 variants.
            for i, j in ((0, 1), (1, 0)):
                for shift in (1.0, 1.28, 12.8):
                    population.append(
                        Node.call(
                            "mul",
                            Node.var(i),
                            Node.call("sub", Node.var(j), Node.const(shift)),
                        )
                    )

        maes, sizes = yield from self._evaluate_population_steps(population, columns, y)
        scores = [self._penalised(m, s) for m, s in zip(maes, sizes)]
        best_index = int(np.argmin(scores))
        best_tree, best_mae = population[best_index].copy(), maes[best_index]
        generations_run = 0

        depth_limit = config.max_depth + 2
        for generation in range(config.generations):
            generations_run = generation + 1
            self._parent_nodes = {}  # per-generation donor node-list cache
            next_population: List[Node] = [best_tree.copy()]  # elitism
            while len(next_population) < config.population_size:
                roll = rng.random()
                parent = self._tournament(rng, population, scores)
                if roll < config.crossover_prob:
                    other = self._tournament(rng, population, scores)
                    child = self._crossover(rng, parent, other)
                elif roll < config.crossover_prob + config.subtree_mutation_prob:
                    child = self._subtree_mutation(rng, parent, n_variables)
                elif roll < (config.crossover_prob + config.subtree_mutation_prob
                             + config.point_mutation_prob):
                    child = self._point_mutation(rng, parent, n_variables)
                elif roll < (config.crossover_prob + config.subtree_mutation_prob
                             + config.point_mutation_prob + config.constant_mutation_prob):
                    child = self._constant_mutation(rng, parent)
                else:
                    child = parent.copy()
                # depth <= size always, so the cheaper size walk screens
                # out almost every child before the depth walk runs.
                if child.size() > depth_limit and child.depth() > depth_limit:
                    child = random_tree(rng, n_variables, config.function_names,
                                        config.init_depth, config.const_range)
                next_population.append(child)
            population = next_population
            maes, sizes = yield from self._evaluate_population_steps(
                population, columns, y
            )
            scores = [self._penalised(m, s) for m, s in zip(maes, sizes)]
            best_index = int(np.argmin(scores))
            if maes[best_index] < best_mae:
                best_tree, best_mae = population[best_index].copy(), maes[best_index]
            if best_mae <= config.fitness_threshold:
                break  # stopping criterion (ii): fitness reached the threshold

        best_tree = yield from self._refine_constants_steps(best_tree, columns, y)
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

    def _refine_constants_steps(
        self, tree: Node, columns: List[np.ndarray], y: np.ndarray
    ):
        """Greedy hill-climb on each constant of the winning tree.

        Evolution finds the right *shape* quickly but fine constants (e.g.
        the 1.28 centre of a signed-byte shift) drift slowly through random
        mutation; a few rounds of coordinate descent finish the job
        deterministically.
        """
        best = tree.copy()
        best_score = self._fitness(best, columns, y)
        if not np.isfinite(best_score):
            return tree
        compiled = self.config.compiled
        for __ in range(3):
            improved = False
            constants = [n for n in best.nodes() if n.constant is not None]
            for node in constants:
                original = node.constant
                candidates = [
                    original * 0.8, original * 0.9, original * 1.1, original * 1.25,
                    original - 0.1, original + 0.1, original - 0.02, original + 0.02,
                ]
                # The candidate list is fixed up front, so the greedy
                # accept below only orders comparisons — all eight scores
                # can be computed in one batched call on the compiled path.
                if compiled:
                    programs = []
                    for candidate in candidates:
                        node.constant = candidate
                        programs.append(compile_tree(best))
                    scores = yield from self._batched_fitness_steps(
                        programs, columns, y, "full"
                    )
                else:
                    scores = []
                    for candidate in candidates:
                        node.constant = candidate
                        scores.append(self._scaled_mae(best, columns, y))
                for candidate, score in zip(candidates, scores):
                    if score < best_score - 1e-12:
                        best_score = score
                        original = candidate
                        improved = True
                node.constant = original
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
