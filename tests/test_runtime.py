"""Tests for the fleet-run orchestration subsystem (repro.runtime)."""

import json
import math
import time

import pytest

from repro.runtime import (
    CheckpointStore,
    EventLog,
    InjectedFault,
    JobResult,
    JobSpec,
    MetricsRegistry,
    RunReport,
    Scheduler,
    SchedulerConfig,
    fleet_job_specs,
    read_events,
    run_job,
)
from repro.simtime import SimClock


def ok_result(spec, **overrides):
    payload = dict(
        job_id=spec.job_id,
        car_key=spec.car_key,
        status="ok",
        esvs=[{"identifier": f"uds:{spec.car_key}", "correct": True}],
        n_formula_esvs=1,
        n_correct=1,
        stage_samples={"collect": [0.1], "infer_formulas": [0.4]},
        wall_seconds=0.5,
    )
    payload.update(overrides)
    return JobResult(**payload)


def fake_runner(spec):
    return ok_result(spec)


class FlakyRunner:
    """Raises :class:`InjectedFault` the first ``failures`` calls per job."""

    def __init__(self, failures):
        self.failures = dict(failures)  # job_id -> number of faults to inject
        self.calls = []

    def __call__(self, spec):
        self.calls.append(spec.job_id)
        if self.failures.get(spec.job_id, 0) > 0:
            self.failures[spec.job_id] -= 1
            raise InjectedFault(f"injected fault for {spec.job_id}")
        return ok_result(spec)


class TestJobSpec:
    def test_job_id_deterministic_and_distinct(self):
        spec = JobSpec("A", seed=2, read_duration_s=10.0)
        assert spec.job_id == JobSpec("A", seed=2, read_duration_s=10.0).job_id
        assert spec.job_id != JobSpec("A", seed=3, read_duration_s=10.0).job_id
        assert spec.job_id != JobSpec("B", seed=2, read_duration_s=10.0).job_id
        assert spec.job_id.startswith("car-a-")

    def test_gp_overrides_order_does_not_change_id(self):
        a = JobSpec("A", gp_overrides=(("generations", 8), ("population_size", 100)))
        b = JobSpec("A", gp_overrides=(("population_size", 100), ("generations", 8)))
        assert a.job_id == b.job_id

    def test_live_latency_excluded_from_id(self):
        assert JobSpec("A").job_id == JobSpec("A", live_latency_s=2.0).job_id

    def test_roundtrip(self):
        spec = JobSpec("K", seed=5, gp_overrides=(("generations", 8),))
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_gp_override_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            JobSpec("C", gp_overrides=(("bogus", 1),))
        with pytest.raises(ValueError, match="seed"):
            JobSpec("C", gp_overrides=(("seed", 3),))

    def test_from_dict_rejects_removed_gp_field(self):
        """A spec saved when GpConfig still had ``compiled`` fails at load,
        naming the field, instead of failing every retry of the job."""
        payload = JobSpec("C", gp_overrides=(("generations", 8),)).to_dict()
        payload["gp_overrides"].append(["compiled", False])
        with pytest.raises(ValueError, match="compiled"):
            JobSpec.from_dict(payload)

    def test_fleet_job_specs_validates_keys(self):
        assert [s.car_key for s in fleet_job_specs(["a", "k"])] == ["A", "K"]
        assert len(fleet_job_specs()) == 18
        with pytest.raises(ValueError, match="unknown fleet keys"):
            fleet_job_specs(["Z"])


class TestJobResult:
    def test_deterministic_payload_excludes_telemetry(self):
        spec = JobSpec("A")
        payload = ok_result(spec, attempts=3).deterministic_payload()
        assert "attempts" not in payload
        assert "stage_samples" not in payload
        assert "wall_seconds" not in payload

    def test_roundtrip(self):
        result = ok_result(JobSpec("A"), attempts=2)
        clone = JobResult.from_dict(result.to_dict())
        assert clone.deterministic_payload() == result.deterministic_payload()
        assert clone.attempts == 2


class TestRetries:
    @pytest.mark.parametrize("pool", ["serial", "thread"])
    def test_retry_after_injected_fault(self, pool):
        specs = [JobSpec("A"), JobSpec("B")]
        runner = FlakyRunner({specs[0].job_id: 2})
        sleeps = []
        scheduler = Scheduler(
            SchedulerConfig(pool=pool, workers=2, max_retries=2),
            runner=runner,
            sleep=sleeps.append,
        )
        report = scheduler.run(specs)
        by_key = {result.car_key: result for result in report.results}
        assert by_key["A"].ok and by_key["A"].attempts == 3
        assert by_key["B"].ok and by_key["B"].attempts == 1
        # Exponential backoff: base 0.5, factor 2.
        assert sleeps == [0.5, 1.0]

    def test_bounded_retries_then_failure(self):
        spec = JobSpec("A")
        runner = FlakyRunner({spec.job_id: 99})
        events = EventLog()
        scheduler = Scheduler(
            SchedulerConfig(max_retries=2), runner=runner, events=events, sleep=lambda s: None
        )
        report = scheduler.run([spec])
        (result,) = report.results
        assert result.status == "failed"
        assert result.attempts == 3
        assert "InjectedFault" in result.error
        assert runner.calls == [spec.job_id] * 3
        assert len(events.of_kind("job_attempt_failed")) == 3
        assert report.failed and not report.ok

    def test_failed_jobs_are_not_checkpointed(self, tmp_path):
        spec = JobSpec("A")
        checkpoint = CheckpointStore(tmp_path)
        scheduler = Scheduler(
            SchedulerConfig(max_retries=0),
            checkpoint=checkpoint,
            runner=FlakyRunner({spec.job_id: 99}),
        )
        scheduler.run([spec])
        assert checkpoint.completed_ids() == set()


class TestTimeouts:
    def test_timeout_cancels_slow_job(self):
        fast, slow = JobSpec("A"), JobSpec("B")

        def runner(spec):
            if spec.job_id == slow.job_id:
                time.sleep(0.5)
            return ok_result(spec)

        scheduler = Scheduler(
            SchedulerConfig(pool="thread", workers=2, max_retries=0, timeout_s=0.15),
            runner=runner,
        )
        report = scheduler.run([fast, slow])
        by_key = {result.car_key: result for result in report.results}
        assert by_key["A"].ok
        assert by_key["B"].status == "timeout"
        assert "timed out" in by_key["B"].error

    def test_timeout_not_checkpointed_and_retried_job_can_recover(self, tmp_path):
        spec = JobSpec("A")
        calls = []

        def runner(s):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(0.5)  # first attempt hangs past the deadline
            return ok_result(s)

        checkpoint = CheckpointStore(tmp_path)
        scheduler = Scheduler(
            SchedulerConfig(pool="thread", workers=2, max_retries=1, timeout_s=0.15),
            checkpoint=checkpoint,
            runner=runner,
            sleep=lambda s: None,
        )
        report = scheduler.run([spec])
        (result,) = report.results
        assert result.ok and result.attempts == 2
        assert checkpoint.completed_ids() == {spec.job_id}


class TestResume:
    def test_resume_skips_completed_jobs(self, tmp_path):
        specs = [JobSpec("A"), JobSpec("B"), JobSpec("C")]
        checkpoint = CheckpointStore(tmp_path)
        first = Scheduler(SchedulerConfig(), checkpoint=checkpoint, runner=fake_runner)
        report1 = first.run(specs[:2])
        assert len(report1.ok) == 2 and not report1.skipped

        calls = []

        def recording_runner(spec):
            calls.append(spec.job_id)
            return fake_runner(spec)

        events = EventLog()
        second = Scheduler(
            SchedulerConfig(),
            checkpoint=CheckpointStore(tmp_path),
            runner=recording_runner,
            events=events,
        )
        report2 = second.run(specs)
        assert calls == [specs[2].job_id]  # only the unfinished car re-ran
        assert sorted(report2.skipped) == sorted(s.job_id for s in specs[:2])
        assert len(report2.ok) == 3
        assert {e["job_id"] for e in events.of_kind("job_skipped")} == set(report2.skipped)

    def test_changed_spec_does_not_resume(self, tmp_path):
        checkpoint = CheckpointStore(tmp_path)
        Scheduler(SchedulerConfig(), checkpoint=checkpoint, runner=fake_runner).run(
            [JobSpec("A", seed=2)]
        )
        calls = []

        def recording_runner(spec):
            calls.append(spec.job_id)
            return fake_runner(spec)

        report = Scheduler(
            SchedulerConfig(), checkpoint=CheckpointStore(tmp_path), runner=recording_runner
        ).run([JobSpec("A", seed=7)])
        assert calls  # different seed -> different job id -> re-runs
        assert not report.skipped

    def test_checkpoint_rejects_unknown_version(self, tmp_path):
        checkpoint = CheckpointStore(tmp_path)
        checkpoint.record(ok_result(JobSpec("A")))
        path = next(tmp_path.glob("job-*.json"))
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            CheckpointStore(tmp_path).load_all()

    def test_checkpoint_refuses_failed_results(self, tmp_path):
        checkpoint = CheckpointStore(tmp_path)
        bad = JobResult(job_id="x", car_key="A", status="failed")
        with pytest.raises(ValueError, match="refusing to checkpoint"):
            checkpoint.record(bad)


class TestEventsAndMetrics:
    def test_event_log_schema_and_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        clock = SimClock(100.0)
        with EventLog(path, clock=clock.perf) as events:
            scheduler = Scheduler(SchedulerConfig(), events=events, runner=fake_runner)
            scheduler.run([JobSpec("A")])
        records = read_events(path)
        kinds = [record["event"] for record in records]
        assert kinds[0] == "run_started" and kinds[-1] == "run_finished"
        assert "job_started" in kinds and "job_finished" in kinds
        for index, record in enumerate(records):
            assert record["seq"] == index
            assert record["t"] == 100.0  # deterministic: simulated clock

    def test_metrics_counters_and_histograms(self):
        metrics = MetricsRegistry()
        specs = [JobSpec("A"), JobSpec("B")]
        runner = FlakyRunner({specs[0].job_id: 1})
        Scheduler(
            SchedulerConfig(max_retries=1), metrics=metrics, runner=runner,
            sleep=lambda s: None,
        ).run(specs)
        snapshot = metrics.to_dict()
        assert snapshot["counters"]["jobs_completed"] == 2
        assert snapshot["counters"]["attempts_failed"] == 1
        assert snapshot["counters"]["jobs_retried"] == 1
        assert snapshot["histograms"]["job_wall_seconds"]["count"] == 2
        assert snapshot["histograms"]["stage.collect_seconds"]["count"] == 2

    def test_stage_histograms_from_samples(self):
        """``stage.<name>_seconds`` observes each job's per-name total;
        ``_call_seconds`` holds the samples of names that fire repeatedly."""
        samples = {"collect": [0.5], "gp_formula": [0.1, 0.2, 0.3]}
        metrics = MetricsRegistry()
        Scheduler(
            SchedulerConfig(),
            metrics=metrics,
            runner=lambda spec: ok_result(spec, stage_samples=samples),
        ).run([JobSpec("A")])
        total = metrics.histogram("stage.gp_formula_seconds")
        assert total.count == 1 and total.total == math.fsum([0.1, 0.2, 0.3])
        assert metrics.histogram("stage.gp_formula_call_seconds").count == 3
        assert metrics.histogram("stage.collect_seconds").total == 0.5
        assert "stage.collect_call_seconds" not in metrics.to_dict()["histograms"]

    def test_histogram_percentiles(self):
        from repro.runtime import Histogram

        histogram = Histogram("x")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(100) == 4.0
        assert histogram.mean == 2.5


class TestRunReport:
    def test_digest_ignores_telemetry_and_order(self):
        specs = [JobSpec("A"), JobSpec("B")]
        fast = RunReport([ok_result(specs[0]), ok_result(specs[1])])
        slow = RunReport(
            [
                ok_result(specs[1], attempts=3, wall_seconds=9.0),
                ok_result(specs[0], stage_samples={"collect": [5.0]}),
            ]
        )
        assert fast.results_digest() == slow.results_digest()

    def test_digest_sees_payload_changes(self):
        spec = JobSpec("A")
        base = RunReport([ok_result(spec)])
        changed = RunReport([ok_result(spec, n_correct=0)])
        assert base.results_digest() != changed.results_digest()

    def test_save_roundtrip(self, tmp_path):
        report = RunReport([ok_result(JobSpec("A"))], pool="thread", workers=2)
        path = report.save(tmp_path / "run_report.json")
        payload = json.loads(path.read_text())
        assert payload["results_digest"] == report.results_digest()
        assert payload["totals"]["n_ok"] == 1


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(pool="fork")
        with pytest.raises(ValueError):
            SchedulerConfig(workers=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_retries=-1)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Scheduler(SchedulerConfig(), runner=fake_runner).run([JobSpec("A"), JobSpec("A")])


@pytest.mark.slow
class TestEquivalence:
    """Serial and parallel sweeps must be byte-identical (real pipeline)."""

    KEYS = ["B", "C", "E", "P"]  # a small 4-car fleet
    GP = (("generations", 8), ("population_size", 100))

    def specs(self):
        return fleet_job_specs(self.KEYS, read_duration_s=8.0, gp_overrides=self.GP)

    def test_serial_equals_parallel_on_four_car_fleet(self):
        serial = Scheduler(SchedulerConfig(pool="serial")).run(self.specs())
        parallel = Scheduler(SchedulerConfig(pool="process", workers=4)).run(self.specs())
        assert len(serial.ok) == len(parallel.ok) == 4
        assert serial.results_digest() == parallel.results_digest()
        for left, right in zip(serial.results, parallel.results):
            assert left.deterministic_payload() == right.deterministic_payload()

    def test_resumed_run_matches_uninterrupted_run(self, tmp_path):
        specs = self.specs()
        # Simulated kill: the first sweep only checkpoints two cars.
        checkpoint = CheckpointStore(tmp_path)
        Scheduler(SchedulerConfig(), checkpoint=checkpoint).run(specs[:2])

        calls = []

        def counting_runner(spec):
            calls.append(spec.car_key)
            return run_job(spec)

        resumed = Scheduler(
            SchedulerConfig(), checkpoint=CheckpointStore(tmp_path), runner=counting_runner
        ).run(specs)
        fresh = Scheduler(SchedulerConfig()).run(specs)
        assert sorted(calls) == ["E", "P"]  # completed cars were not re-run
        assert resumed.results_digest() == fresh.results_digest()


class TestRunJobReal:
    def test_run_job_verifies_against_ground_truth(self):
        spec = JobSpec("C", read_duration_s=8.0, gp_overrides=(("generations", 8), ("population_size", 100)))
        result = run_job(spec)
        assert result.ok
        assert result.n_formula_esvs > 0
        assert result.n_correct <= result.n_formula_esvs
        assert {"collect", "assemble", "infer_formulas", "ecr"} <= set(result.stage_samples)
        assert all("identifier" in row for row in result.esvs)

    @pytest.mark.parametrize("backend, workers", [("serial", 1), ("process", 2)])
    def test_untraced_job_times_stages_from_spans(self, backend, workers):
        """Stage timings come from the job's own spans on both GP backends:
        one sample per pipeline stage and one ``gp_formula`` sample per
        formula ESV, while an untraced job ships no span payload."""
        spec = JobSpec(
            "C",
            read_duration_s=8.0,
            gp_overrides=(("generations", 8), ("population_size", 100)),
            gp_workers=workers,
            gp_backend=backend,
        )
        result = run_job(spec)
        assert result.ok and result.n_formula_esvs > 1
        samples = result.stage_samples
        assert len(samples["gp_formula"]) == result.n_formula_esvs
        stages = (
            "collect assemble extract_fields screenshot alignment match infer_formulas ecr"
        ).split()
        for stage in stages:
            assert len(samples[stage]) == 1, stage
        assert "job" not in samples
        assert result.spans == []
        assert "spans" not in result.to_dict()

    def test_run_job_deterministic(self):
        spec = JobSpec("C", read_duration_s=8.0, gp_overrides=(("generations", 8), ("population_size", 100)))
        first, second = run_job(spec), run_job(spec)
        assert first.deterministic_payload() == second.deterministic_payload()
