"""The observability layer: tracing, metrics export, and the invariant
that observing the pipeline never changes what it computes.

Covers the PR's acceptance criteria directly:

* span nesting, attributes, and the disabled-tracer fast path (one shared
  null context object, zero spans recorded);
* Chrome-trace export validity (JSON round-trip, required event keys) and
  Prometheus text-format escaping;
* cross-process span transport — both GP backends (serial, process)
  yield the same ``gp_formula`` span count;
* byte-identical :class:`~repro.core.reverser.ReverseReport` with tracing
  on vs off;
* the :class:`~repro.runtime.metrics.MetricsRegistry` counter/histogram
  name-collision guard.
"""

import json
import math
import threading

import pytest

from repro.core import DPReverser, ReverserConfig
from repro.core.gp import GpConfig
from repro.observability import (
    CHROME_EVENT_KEYS,
    NULL_TRACER,
    SPAN_KEYS,
    Tracer,
    activated,
    build_snapshot,
    escape_label_value,
    get_active,
    metric_name,
    profile_table,
    prometheus_text,
    snapshot_json,
)
from repro.observability.trace import _NULL_CONTEXT
from repro.runtime.metrics import MetricsRegistry

GP = GpConfig(seed=2, generations=8, population_size=100)


def car_capture(key="C", read_duration_s=8.0):
    from repro.cps import DataCollector
    from repro.tools import make_tool_for_car
    from repro.vehicle import build_car

    car = build_car(key)
    return DataCollector(
        make_tool_for_car(key, car), read_duration_s=read_duration_s
    ).collect()


# ------------------------------------------------------------------- tracer


class TestTracer:
    def test_span_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("outer", car="A") as outer:
            with tracer.span("inner") as inner:
                inner.set(hits=3)
        assert [span.name for span in tracer.spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attrs == {"hits": 3}
        assert outer.attrs == {"car": "A"}
        assert inner.duration >= 0.0

    def test_current_tracks_the_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_disabled_tracer_shares_one_null_context(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a", x=1)
        second = tracer.span("b")
        assert first is second is _NULL_CONTEXT
        with first as span:
            assert span.set(anything=True) is span
        assert tracer.spans == []
        assert NULL_TRACER.span("c") is _NULL_CONTEXT

    def test_span_records_have_required_keys(self):
        tracer = Tracer()
        with tracer.span("stage", n=1):
            pass
        (record,) = tracer.export_payload()
        assert tuple(record) == SPAN_KEYS

    def test_absorb_reallocates_ids_and_reparents(self):
        worker = Tracer()
        with worker.span("job"):
            with worker.span("gp_formula", esv="uds:F40D"):
                pass
        parent = Tracer()
        with parent.span("fleet_run") as root:
            absorbed = parent.absorb(
                worker.export_payload(), parent_id=root.span_id, tid=7
            )
        assert absorbed == 2
        by_name = parent.by_name()
        job = by_name["job"][0]
        formula = by_name["gp_formula"][0]
        assert job.parent_id == root.span_id
        assert formula.parent_id == job.span_id
        assert formula.tid == job.tid == 7
        assert formula.attrs == {"esv": "uds:F40D"}
        # Worker ids were re-allocated into the parent's id space.
        assert len({span.span_id for span in parent.spans}) == 3

    def test_absorb_ends_subtree_at_current_clock(self):
        """A payload arrives when its work has just finished, so the
        grafted subtree ends at the absorbing tracer's clock reading and
        stays inside the parent span that was open meanwhile."""
        worker_ticks = iter([100.0, 101.0, 103.0, 104.0])
        worker = Tracer(clock=lambda: next(worker_ticks))
        with worker.span("job"):  # 100 .. 104
            with worker.span("gp_formula"):  # 101 .. 103
                pass
        ticks = iter([0.0, 10.0, 12.0])
        parent = Tracer(clock=lambda: next(ticks))
        with parent.span("infer_formulas") as root:  # 0 .. 12
            parent.absorb(worker.export_payload(), parent_id=root.span_id)  # at 10
        by_name = parent.by_name()
        job = by_name["job"][0]
        formula = by_name["gp_formula"][0]
        assert (job.start, job.end) == (6.0, 10.0)
        assert (formula.start, formula.end) == (7.0, 9.0)
        assert root.start <= job.start and job.end <= root.end

    def test_absorb_into_disabled_tracer_is_a_noop(self):
        worker = Tracer()
        with worker.span("job"):
            pass
        assert NULL_TRACER.absorb(worker.export_payload()) == 0
        assert NULL_TRACER.spans == []

    def test_chrome_trace_round_trips_and_has_required_keys(self, tmp_path):
        tracer = Tracer()
        with tracer.span("assemble", transport="isotp"):
            with tracer.span("decode_stream", can_id="0x7e8"):
                pass
        chrome_path, jsonl_path = tracer.save(tmp_path)
        document = json.loads(chrome_path.read_text())
        events = document["traceEvents"]
        assert len(events) == 2
        for event in events:
            for key in CHROME_EVENT_KEYS:
                assert key in event
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert set(record) == set(SPAN_KEYS)

    def test_active_tracer_scoping(self):
        tracer = Tracer()
        assert get_active() is NULL_TRACER
        with activated(tracer):
            assert get_active() is tracer
            with activated(NULL_TRACER):
                assert get_active() is NULL_TRACER
            assert get_active() is tracer
        assert get_active() is NULL_TRACER

    def test_active_tracer_is_per_thread(self):
        """Two threads inside ``activated`` at once each keep their own
        tracer: deep spans land in it, and each exit restores that
        thread's previous tracer."""
        tracers = [Tracer(), Tracer()]
        barrier = threading.Barrier(2, timeout=10)
        seen = [None, None]
        after = [None, None]

        def work(index):
            with activated(tracers[index]):
                barrier.wait()  # both threads have activated
                with get_active().span(f"deep{index}"):
                    pass
                seen[index] = get_active()
                barrier.wait()  # neither has exited yet
            after[index] = get_active()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen == tracers
        assert [span.name for span in tracers[0].spans] == ["deep0"]
        assert [span.name for span in tracers[1].spans] == ["deep1"]
        assert after == [NULL_TRACER, NULL_TRACER]
        assert get_active() is NULL_TRACER


# ------------------------------------------------------------------- export


class TestExport:
    def test_metric_name_mapping(self):
        assert metric_name("transport.errors") == "repro_transport_errors"
        assert metric_name("stage.gp-formula") == "repro_stage_gp_formula"
        assert metric_name("9lives", prefix="") == "_9lives"

    def test_label_value_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_prometheus_text_escapes_span_labels(self):
        tracer = Tracer()
        with tracer.span('we"ird\nname'):
            pass
        text = prometheus_text(build_snapshot(tracer=tracer))
        assert 'repro_span_count{span="we\\"ird\\nname"} 1' in text
        assert text.endswith("\n")

    def test_prometheus_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("jobs_completed").inc(3)
        histogram = registry.histogram("stage.assemble_seconds")
        histogram.extend([0.1, 0.2, 0.3])
        text = prometheus_text(build_snapshot(registry=registry))
        assert "# TYPE repro_jobs_completed counter" in text
        assert "repro_jobs_completed 3" in text
        assert "# TYPE repro_stage_assemble_seconds summary" in text
        assert "repro_stage_assemble_seconds_count 3" in text
        assert 'repro_stage_assemble_seconds{quantile="0.5"}' in text

    def test_format_value_handles_non_finite(self):
        from repro.observability.export import _format_value

        assert _format_value(float("nan")) == "NaN"
        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(3) == "3"

    def test_snapshot_merges_all_sources(self):
        registry = MetricsRegistry()
        registry.counter("jobs_completed").inc()
        tracer = Tracer()
        with tracer.span("match"):
            pass
        snapshot = build_snapshot(
            registry=registry,
            memo_stats={"hits": 4, "misses": 1},
            tracer=tracer,
            extra_counters={"cars": 2},
        )
        assert snapshot["counters"]["jobs_completed"] == 1
        assert snapshot["counters"]["memo.hits"] == 4
        assert snapshot["counters"]["cars"] == 2
        assert snapshot["spans"]["match"]["count"] == 1
        # Canonical JSON is stable under re-serialisation.
        assert snapshot_json(snapshot) == snapshot_json(
            json.loads(snapshot_json(snapshot))
        )

    def test_snapshot_ignores_disabled_tracer_spans(self):
        snapshot = build_snapshot(tracer=NULL_TRACER)
        assert snapshot["spans"] == {}

    def test_snapshot_splits_anomaly_counters(self):
        from repro.core.assembly import assemble_with_diagnostics
        from repro.transport import segment

        from repro.attacks import SessionStarvation

        frames = SessionStarvation(seed=1).apply(segment(bytes(range(48)), 0x7E0))
        __, diagnostics = assemble_with_diagnostics(frames, "isotp")
        snapshot = build_snapshot(diagnostics=diagnostics)
        counters = snapshot["counters"]
        # Detection counters live under their own prefix...
        assert counters["transport.anomaly.suspected_starvation"] >= 1
        assert "transport.anomaly.fc_violations" in counters
        # ...and are not duplicated under the plain transport stats.
        assert "transport.suspected_starvation" not in counters
        assert counters["transport.payloads"] == 1

    def test_profile_table_lists_span_names(self):
        tracer = Tracer()
        with tracer.span("assemble"):
            pass
        table = profile_table(tracer)
        assert "assemble" in table
        assert "count" in table.splitlines()[0]
        assert "(no spans recorded)" in profile_table(Tracer())

    @staticmethod
    def profile_rows(tracer):
        """span name -> [count, total_s, self_s, %root, mean_s, max_s]."""
        lines = profile_table(tracer).splitlines()
        assert lines[0].split() == "span count total_s self_s %root mean_s max_s".split()
        return {line.split()[0]: line.split()[1:] for line in lines[1:]}

    def test_profile_table_self_time_and_root_share(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("reverse"):  # 0 .. 10
            with tracer.span("screenshot"):  # 1 .. 5
                with tracer.span("ocr"):  # 2 .. 3
                    pass
            with tracer.span("match"):  # 6 .. 8
                pass
        rows = self.profile_rows(tracer)
        assert rows["reverse"][:4] == ["1", "10.0000", "4.0000", "100.0"]
        assert rows["screenshot"][:4] == ["1", "4.0000", "3.0000", "40.0"]
        assert rows["ocr"][:4] == ["1", "1.0000", "1.0000", "10.0"]
        assert rows["match"][:4] == ["1", "2.0000", "2.0000", "20.0"]

    def test_profile_table_overlapping_children_counted_once(self):
        worker_ticks = iter([0.0, 2.0])
        worker = Tracer(clock=lambda: next(worker_ticks))
        with worker.span("gp_formula"):  # 0 .. 2
            pass
        payload = worker.export_payload()
        ticks = iter([0.0, 3.0, 4.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        # Two parallel workers' spans, absorbed at 3 and 4: 1 .. 3 and 2 .. 4.
        with tracer.span("infer_formulas") as parent:  # 0 .. 10
            tracer.absorb(payload, parent_id=parent.span_id)
            tracer.absorb(payload, parent_id=parent.span_id)
        rows = self.profile_rows(tracer)
        # The two workers overlap on 2..3: the parent loses 3 s, not 4.
        assert rows["infer_formulas"][:4] == ["1", "10.0000", "7.0000", "100.0"]
        assert rows["gp_formula"][:4] == ["2", "4.0000", "4.0000", "40.0"]


# ------------------------------------------------------------------ metrics


class TestMetricsCollision:
    def test_counter_then_histogram_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("jobs_completed")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.histogram("jobs_completed")

    def test_histogram_then_counter_collision_raises(self):
        registry = MetricsRegistry()
        registry.histogram("stage.gp_seconds")
        with pytest.raises(ValueError, match="already registered as a histogram"):
            registry.counter("stage.gp_seconds")

    def test_same_type_re_registration_is_fine(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")


# ----------------------------------------------------- pipeline integration


@pytest.mark.slow
class TestPipelineTracing:
    def test_report_byte_identical_with_tracing_on_and_off(self):
        capture = car_capture()
        plain = DPReverser(ReverserConfig(gp_config=GP)).reverse_engineer(capture)
        tracer = Tracer()
        traced = DPReverser(
            ReverserConfig(gp_config=GP, trace=tracer)
        ).reverse_engineer(capture)
        assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )
        by_name = tracer.by_name()
        # The pipeline's stage taxonomy is present.
        for stage in ("assemble", "match", "infer_formulas", "gp_formula"):
            assert stage in by_name, f"missing {stage} spans"
        assert len(by_name["gp_formula"]) == len(traced.formula_esvs)

    def test_span_counts_equal_across_gp_backends(self):
        capture = car_capture()
        counts = {}
        reports = {}
        for backend, workers in (("serial", 1), ("process", 4)):
            tracer = Tracer()
            report = DPReverser(
                ReverserConfig(
                    gp_config=GP,
                    gp_backend=backend,
                    gp_workers=workers,
                    trace=tracer,
                )
            ).reverse_engineer(capture)
            by_name = tracer.by_name()
            counts[backend] = {
                name: len(group)
                for name, group in by_name.items()
                if name in ("gp_formula", "infer_formulas", "assemble")
            }
            reports[backend] = json.dumps(report.to_dict(), sort_keys=True)
        assert counts["serial"] == counts["process"]
        assert reports["serial"] == reports["process"]

    def test_fleet_digest_identical_with_tracing(self):
        from repro.runtime import Scheduler, SchedulerConfig, fleet_job_specs

        overrides = (("generations", 8), ("population_size", 100))
        plain_specs = fleet_job_specs(
            keys=["C"], read_duration_s=8.0, gp_overrides=overrides
        )
        traced_specs = fleet_job_specs(
            keys=["C"], read_duration_s=8.0, gp_overrides=overrides, trace=True
        )
        # Tracing does not change job identity.
        assert [s.job_id for s in traced_specs] == [s.job_id for s in plain_specs]
        plain = Scheduler(SchedulerConfig(pool="serial")).run(plain_specs)
        tracer = Tracer()
        scheduler = Scheduler(SchedulerConfig(pool="serial"), tracer=tracer)
        traced = scheduler.run(traced_specs)
        assert traced.results_digest() == plain.results_digest()
        by_name = tracer.by_name()
        assert len(by_name["fleet_run"]) == 1
        job = by_name["job"][0]
        stage_names = {span.name for span in tracer.children_of(job.span_id)}
        # Acceptance: at least five pipeline stages nested under each job.
        assert len(stage_names) >= 5
