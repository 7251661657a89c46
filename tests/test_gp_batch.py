"""Cross-ESV batched GP evaluation: the merged matrix pass and the
generator lock-step driver.

The invariant everything here defends: batching is an *execution policy*,
never a math change.  A merged (ΣP×N) pass answers each member request
with bit-exactly the floats the member's own (P×N) pass produces, the
lock-step :class:`BatchEvaluator` finishes every generator with the same
return value the serial :func:`drive` produces, and a full reverse run
with ``gp_batch`` (or on the process backend) emits a byte-identical
report.
"""

import json

import numpy as np
import pytest

from repro.core import DPReverser, ReverserConfig
from repro.core.gp import GpConfig
from repro.core.gp.batch import BatchEvaluator, MaesRequest, batched_maes, drive

GP = GpConfig(seed=2, generations=8, population_size=100)

RNG = np.random.default_rng(11)


def request(rows, n, linear_scaling, mutate=None, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    F = rng.normal(size=(rows, n)) * 10.0
    y = rng.normal(size=n) * 5.0
    if mutate:
        mutate(F)
    return MaesRequest(F.copy(), y, linear_scaling)


def adversarial_requests(n, linear_scaling):
    """Same-shape requests covering the branches a merged pass must hit."""

    def nan_row(F):
        F[0, :] = np.nan

    def inf_cell(F):
        F[1, 2] = np.inf

    def constant_rows(F):
        F[2, :] = 7.25  # zero-variance: the a=0, b=y_mean branch

    return [
        request(5, n, linear_scaling),
        request(3, n, linear_scaling, mutate=nan_row),
        request(4, n, linear_scaling, mutate=inf_cell),
        request(6, n, linear_scaling, mutate=constant_rows),
    ]


class TestMergedPass:
    """One stacked batched_maes call == each request's own call, bitwise."""

    @pytest.mark.parametrize("linear_scaling", [False, True])
    @pytest.mark.parametrize("n", [6, 40])  # below / above the trim threshold
    def test_merged_equals_per_request(self, linear_scaling, n):
        requests = adversarial_requests(n, linear_scaling)
        merged = BatchEvaluator._merged_pass(requests)
        for req, rows in zip(requests, merged):
            alone = req.evaluate()
            assert alone.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("linear_scaling", [False, True])
    def test_two_dimensional_target_matches_shared_vector(self, linear_scaling):
        req = request(8, 40, linear_scaling, seed=3)
        shared = batched_maes(req.matrix, req.y, linear_scaling)
        per_row = batched_maes(
            req.matrix, np.broadcast_to(req.y, req.matrix.shape).copy(), linear_scaling
        )
        assert shared.tobytes() == per_row.tobytes()

    def test_all_invalid_rows_go_inf(self):
        req = request(3, 12, True, mutate=lambda F: F.fill(np.nan))
        assert np.isinf(req.evaluate()).all()

    def test_group_key_separates_incompatible_requests(self):
        a = request(2, 10, True)
        b = request(2, 10, False)
        c = request(2, 11, True)
        assert a.group_key != b.group_key  # scaling changes the math
        assert a.group_key != c.group_key  # sample count changes the shape
        assert a.group_key == request(9, 10, True).group_key  # rows don't


def _steps(matrices, y, linear_scaling):
    """A minimal evaluation-step generator: yield requests, return answers."""
    answers = []
    for matrix in matrices:
        maes = yield MaesRequest(matrix, y, linear_scaling)
        answers.append(maes)
    return answers


class TestBatchEvaluator:
    def make_generators(self):
        gens, clones = [], []
        for seed, (n, scaling) in enumerate(
            [(20, True), (20, True), (20, False), (13, True), (20, True)]
        ):
            rng = np.random.default_rng(seed)
            matrices = [rng.normal(size=(4, n)) for __ in range(3)]
            y = rng.normal(size=n)
            gens.append(_steps(matrices, y, scaling))
            clones.append(_steps([m.copy() for m in matrices], y.copy(), scaling))
        return gens, clones

    def test_lock_step_equals_serial_drive(self):
        gens, clones = self.make_generators()
        batched = BatchEvaluator().run(gens)
        serial = [drive(gen) for gen in clones]
        for batch_answers, serial_answers in zip(batched, serial):
            for b, s in zip(batch_answers, serial_answers):
                assert b.tobytes() == s.tobytes()

    def test_single_generator_is_the_serial_path(self):
        gens, clones = self.make_generators()
        (only,) = BatchEvaluator().run(gens[:1])
        for b, s in zip(only, drive(clones[0])):
            assert b.tobytes() == s.tobytes()

    def test_empty_and_instant_generators(self):
        def instant():
            return "done"
            yield  # pragma: no cover

        assert BatchEvaluator().run([]) == []
        assert BatchEvaluator().run([instant()]) == ["done"]


def car_capture(key="C"):
    from repro.cps import DataCollector
    from repro.tools import make_tool_for_car
    from repro.vehicle import build_car

    car = build_car(key)
    return DataCollector(make_tool_for_car(key, car), read_duration_s=8.0).collect()


def reverse_capture(capture, **kwargs):
    reverser = DPReverser(ReverserConfig(gp_config=GP, **kwargs))
    return json.dumps(reverser.reverse_engineer(capture).to_dict(), sort_keys=True)


@pytest.mark.slow
class TestBatchedBackendsByteIdentical:
    def test_batch_and_island_match_serial(self):
        capture = car_capture()
        serial = reverse_capture(capture)
        assert reverse_capture(capture, gp_batch=True) == serial
        assert (
            reverse_capture(capture, gp_backend="process", gp_workers=2) == serial
        )


class TestJobSpecGpBatch:
    def test_gp_batch_excluded_from_job_id(self):
        from repro.runtime import JobSpec

        assert (
            JobSpec(car_key="C", gp_batch=True).job_id
            == JobSpec(car_key="C").job_id
        )

    def test_gp_batch_round_trips_and_defaults_off(self):
        from repro.runtime import JobSpec

        spec = JobSpec(car_key="C", gp_batch=True)
        assert JobSpec.from_dict(spec.to_dict()) == spec
        payload = JobSpec(car_key="C").to_dict()
        del payload["gp_batch"]
        assert JobSpec.from_dict(payload).gp_batch is False
