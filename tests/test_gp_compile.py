"""Tests for the GP performance engine: program execution, fitness
caching, and the parallel per-ESV inference path.

The engine's contract is *exact* equivalence: programs, caching and
parallelism are pure performance features, so every test here asserts
bit-identical results against the plain tree oracle (``gp_reference``) or
the serial path — not approximate agreement.  The evolution loop itself is
checked against the oracle in ``test_gp_reference.py``, and the program
functions against the oracle's trees in ``test_gp_program.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScaledTreeFormula
from repro.core.gp import DEFAULT_FUNCTION_NAMES, FitnessCache, GeneticProgrammer, GpConfig
from repro.core.gp.program import (
    CALLS,
    CONST,
    VAR,
    call,
    const,
    depth,
    execute,
    infix,
    program_grower,
    var,
)

from .gp_reference import canonical, from_program, to_program


def _random_programs(rng: random.Random, n_variables: int, max_depth: int):
    """Programs as the engine grows them."""
    grow = program_grower(rng, n_variables, DEFAULT_FUNCTION_NAMES, 10.0)
    while True:
        yield grow(max_depth)


def _random_columns(rng: random.Random, n_variables: int, n: int, special: bool):
    """Dataset columns, optionally salted with NaN/inf/zero specials."""
    columns = []
    for __ in range(n_variables):
        values = [rng.uniform(-50.0, 50.0) for __ in range(n)]
        if special:
            for value in (float("nan"), float("inf"), float("-inf"), 0.0, -0.0):
                values[rng.randrange(n)] = value
        columns.append(np.asarray(values, dtype=float))
    return columns


class TestCompiledEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), special=st.booleans())
    def test_compiled_matches_recursive_bit_for_bit(self, seed, special):
        """Property: executing a grown program ≡ the oracle tree's recursive
        evaluation, including datasets containing NaN/±inf/±0.0 (the
        protected primitives see the same operands, so even the NaN
        payload bits agree — compared via tobytes)."""
        rng = random.Random(seed)
        program = next(_random_programs(rng, 3, 5))
        columns = _random_columns(rng, 3, 17, special)
        reference = from_program(program).evaluate(columns)
        with np.errstate(all="ignore"):
            flat = execute(program, columns, {})
        assert np.asarray(flat).tobytes() == np.asarray(reference).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_evaluate_point_matches_vectorised(self, seed):
        """A formula called on one sample agrees bit for bit with the same
        row of its evaluation over all rows."""
        rng = random.Random(seed)
        program = next(_random_programs(rng, 2, 4))
        formula = ScaledTreeFormula(program, (0.1, 1.0), 10.0)
        rows = [(rng.randrange(256), rng.randrange(256)) for __ in range(9)]
        vectorised = formula.evaluate_rows(rows)
        for row, xs in enumerate(rows):
            assert np.float64(formula(xs)).tobytes() == vectorised[row].tobytes()

    def test_program_metadata_matches_tree(self):
        """Programs round-trip exactly through the oracle's trees and match
        the tree's size, depth, node order and rendering."""
        rng = random.Random(7)
        programs = _random_programs(rng, 3, 5)
        for __ in range(200):
            program = next(programs)
            tree = from_program(program)
            assert len(program) == tree.size()
            assert depth(program) == tree.depth()
            terminals = [token[0] in (VAR, CONST) for token in program]
            assert terminals == [node.is_terminal for node in tree.nodes()]
            assert infix(program) == tree.to_infix()
            assert to_program(tree) == program
        signed_zero = call("add", var(0), const(-0.0))
        assert canonical(to_program(from_program(signed_zero))) == canonical(signed_zero)
        assert to_program(from_program(signed_zero))[2][1].hex() == "-0x0.0p+0"


class TestTreeKey:
    def test_key_stable_across_copies(self):
        def build():
            return call("add", call("mul", var(0), const(2.5)), var(1))

        assert build() == build() and hash(build()) == hash(build())

    def test_key_distinguishes_structure(self):
        a = call("add", var(0), var(1))
        b = call("add", var(1), var(0))
        c = call("sub", var(0), var(1))
        d = call("add", var(0), const(1.0))
        e = call("add", var(0), const(0.0))
        f = call("add", var(0), var(0))  # X0 is not the constant 0
        assert len({a, b, c, d, e, f}) == 6

    def test_key_injective_on_random_trees(self):
        """Distinct infix renderings imply distinct keys (spot check)."""
        programs = _random_programs(random.Random(13), 2, 4)
        by_key = {}
        for __ in range(1500):
            program = next(programs)
            rendered = infix(program)
            assert by_key.setdefault(program, rendered) == rendered

    def test_interned_instructions_are_shared(self):
        a = call("add", var(0), const(3.25))
        b = call("add", var(0), const(3.25))
        assert a == b
        assert a[0] is b[0] is CALLS["add"]


class TestFitnessCache:
    def test_hit_miss_accounting(self):
        cache = FitnessCache()
        assert cache.get(("k",)) is None
        cache.put(("k",), 1.5)
        assert cache.get(("k",)) == 1.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert cache.stats()["entries"] == 1

    def test_epoch_eviction(self):
        cache = FitnessCache(max_entries=2)
        cache.put(("a",), 1.0)
        cache.put(("b",), 2.0)
        cache.put(("c",), 3.0)  # table full: epoch flush, then insert
        assert cache.evictions == 1
        assert len(cache) == 1
        assert cache.get(("c",)) == 3.0


class TestFitEquivalence:
    def dataset(self, seed=5, n=60):
        rng = random.Random(seed)
        xs = [(rng.uniform(1, 10), rng.uniform(1, 10)) for __ in range(n)]
        ys = [0.2 * x[0] * x[1] + 1.3 for x in xs]
        return xs, ys

    def fit(self, **overrides):
        xs, ys = self.dataset()
        return GeneticProgrammer(GpConfig(seed=9, **overrides)).fit(xs, ys)

    def test_cache_stats_reported(self):
        result = self.fit()
        assert result.cache_stats["hits"] > 0

    def test_shared_cache_across_engines(self):
        xs, ys = self.dataset()
        cache = FitnessCache()
        GeneticProgrammer(GpConfig(seed=9), cache=cache).fit(xs, ys)
        hits_before = cache.hits
        repeat = GeneticProgrammer(GpConfig(seed=9), cache=cache).fit(xs, ys)
        assert cache.hits > hits_before  # second run reuses the first's work
        assert repeat.expression == self.fit().expression


@pytest.mark.slow
class TestReverserParallelism:
    """Per-ESV process-pool fan-out must leave the report byte-identical."""

    GP = GpConfig(seed=2, generations=8, population_size=100)

    def capture(self):
        from repro.cps import DataCollector
        from repro.tools import make_tool_for_car
        from repro.vehicle import build_car

        car = build_car("C")
        return DataCollector(make_tool_for_car("C", car), read_duration_s=8.0).collect()

    def test_parallel_report_identical_and_timed(self):
        from repro.core import DPReverser, ReverserConfig
        from repro.observability import Tracer

        capture = self.capture()
        serial_tracer = Tracer()
        serial = DPReverser(
            ReverserConfig(gp_config=self.GP, trace=serial_tracer)
        ).reverse_engineer(capture)
        parallel_tracer = Tracer()
        parallel = DPReverser(
            ReverserConfig(gp_config=self.GP, trace=parallel_tracer, gp_workers=4)
        ).reverse_engineer(capture)
        assert serial.to_dict() == parallel.to_dict()
        n_formulas = len(serial.formula_esvs)
        assert len(serial_tracer.by_name()["gp_formula"]) == n_formulas
        assert len(parallel_tracer.by_name()["gp_formula"]) == n_formulas

    def test_gp_workers_validation(self):
        from repro.core import DPReverser, ReverserConfig

        with pytest.raises(ValueError):
            DPReverser(ReverserConfig(gp_workers=0))


@pytest.mark.slow
class TestFleetDigest:
    """Fleet-level invariants of the perf features."""

    GP = (("generations", 8), ("population_size", 100))

    def test_gp_workers_leaves_results_digest_unchanged(self):
        from repro.runtime import Scheduler, SchedulerConfig, fleet_job_specs

        serial = Scheduler(SchedulerConfig()).run(
            fleet_job_specs(["C"], read_duration_s=8.0, gp_overrides=self.GP)
        )
        parallel = Scheduler(SchedulerConfig()).run(
            fleet_job_specs(
                ["C"], read_duration_s=8.0, gp_overrides=self.GP, gp_workers=4
            )
        )
        # gp_workers is excluded from the job id, so the digests are
        # directly comparable — and must be equal.
        assert serial.results_digest() == parallel.results_digest()
        hists = parallel.metrics["histograms"]
        assert hists["stage.gp_formula_call_seconds"]["count"] > 1
