"""The benchmark-artifact layer: ``benchmarks/bench_io.py`` round-trips
and the ``scripts/bench_compare.py`` regression gate's comparison policy.

Neither module lives on the installed package path (benchmarks/ is on the
pytest rootdir path; scripts/ is CLI-only), so both are loaded by file
location here.
"""

import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


bench_io = _load("bench_io", REPO / "benchmarks" / "bench_io.py")
bench_compare = _load("bench_compare", REPO / "scripts" / "bench_compare.py")


def write(tmp_path, subdir, name, metrics, units, config=None):
    return bench_io.write_bench(tmp_path / subdir, name, metrics, units, config)


# ----------------------------------------------------------------- bench_io


class TestBenchIo:
    def test_artifact_round_trip(self, tmp_path):
        path = bench_io.write_bench(
            tmp_path,
            "gp_perf",
            {"wall_s": 1.25, "cases": 8},
            {"wall_s": "s", "cases": "count"},
            config={"quick": True},
        )
        assert path.name == "BENCH_gp_perf.json"
        artifact = bench_io.read_bench(path)
        assert artifact["name"] == "gp_perf"
        assert artifact["schema_version"] == bench_io.BENCH_SCHEMA_VERSION
        assert artifact["metrics"] == {"cases": 8, "wall_s": 1.25}
        assert artifact["units"] == {"cases": "count", "wall_s": "s"}
        config = {"quick": True, "cpu_count": os.cpu_count()}
        assert artifact["config"] == config
        assert artifact["config_fingerprint"] == bench_io.config_fingerprint(config)

    def test_metrics_without_units_rejected(self):
        with pytest.raises(ValueError, match="without units"):
            bench_io.build_artifact("x", {"a": 1}, {})

    def test_fingerprint_is_order_insensitive(self):
        assert bench_io.config_fingerprint(
            {"a": 1, "b": 2}
        ) == bench_io.config_fingerprint({"b": 2, "a": 1})
        assert bench_io.config_fingerprint({"a": 1}) != bench_io.config_fingerprint(
            {"a": 2}
        )

    def test_read_bench_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema_version": 99, "name": "bad"}))
        with pytest.raises(ValueError, match="schema"):
            bench_io.read_bench(path)

    def test_read_bench_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(
            json.dumps({"schema_version": bench_io.BENCH_SCHEMA_VERSION, "name": "bad"})
        )
        with pytest.raises(ValueError, match="missing"):
            bench_io.read_bench(path)

    def test_load_artifact_dir_keys_by_name(self, tmp_path):
        bench_io.write_bench(tmp_path, "alpha", {"n": 1}, {"n": "count"})
        bench_io.write_bench(tmp_path, "beta", {"n": 2}, {"n": "count"})
        (tmp_path / "notes.txt").write_text("ignored")
        artifacts = bench_io.load_artifact_dir(tmp_path)
        assert sorted(artifacts) == ["alpha", "beta"]
        assert artifacts["beta"]["metrics"]["n"] == 2


# ------------------------------------------------------------ bench_compare


FAIL, WARN, NOTE, OK = (
    bench_compare.FAIL,
    bench_compare.WARN,
    bench_compare.NOTE,
    bench_compare.OK,
)


def severity(bench, metric, unit, base, cur, rel_tol=0.25, abs_tol=0.0):
    return bench_compare.compare_metric(
        bench, metric, unit, base, cur, rel_tol, abs_tol
    ).severity


class TestCompareMetric:
    def test_identity_exact_match_ok(self):
        assert severity("b", "correct", "count", 12, 12) == OK

    def test_identity_any_change_fails(self):
        assert severity("b", "correct", "count", 12, 11) == FAIL
        assert severity("b", "precision", "ratio", 0.983, 0.982999) == FAIL

    def test_timing_within_rel_tolerance_ok(self):
        assert severity("b", "wall_s", "s", 1.0, 1.25) == OK
        assert severity("b", "wall_s", "s", 1.0, 0.75) == OK

    def test_timing_beyond_rel_tolerance_warns(self):
        assert severity("b", "wall_s", "s", 1.0, 1.2500001) == WARN
        assert severity("b", "wall_s", "s", 1.0, 10.0) == WARN

    def test_timing_abs_tolerance_rescues_small_bases(self):
        # 0.01 s -> 0.05 s is a 400% relative move but negligible wall time.
        assert severity("b", "wall_s", "s", 0.01, 0.05) == WARN
        assert severity("b", "wall_s", "s", 0.01, 0.05, abs_tol=0.1) == OK

    def test_rate_drop_beyond_tolerance_warns_not_fails(self):
        # An absolute rate is timing: it moves with the host, so a drop
        # warns like a slower wall time instead of failing as an identity.
        assert severity("b", "frames_per_s", "1/s", 1000.0, 700.0) == WARN
        assert severity("b", "frames_per_s", "1/s", 1000.0, 800.0) == OK

    def test_timing_zero_baseline(self):
        assert severity("b", "wall_s", "s", 0.0, 0.0) == OK
        assert severity("b", "wall_s", "s", 0.0, 0.5) == WARN

    def test_nan_both_sides_ok(self):
        nan = float("nan")
        assert severity("b", "x", "count", nan, nan) == OK
        assert severity("b", "x", "s", nan, nan) == OK

    def test_nan_one_side_fails(self):
        nan = float("nan")
        assert severity("b", "x", "count", nan, 1.0) == FAIL
        assert severity("b", "x", "s", 1.0, nan) == FAIL


class TestCompareSets:
    def art(self, name, metrics, units, config=None):
        return bench_io.build_artifact(name, metrics, units, config)

    def test_unchanged_sets_all_ok(self):
        artifact = self.art("b", {"n": 1, "t": 2.0}, {"n": "count", "t": "s"})
        findings = bench_compare.compare_sets({"b": artifact}, {"b": artifact})
        assert {f.severity for f in findings} == {OK}
        assert bench_compare.gate(findings) == 0

    def test_missing_bench_fails(self):
        artifact = self.art("b", {"n": 1}, {"n": "count"})
        findings = bench_compare.compare_sets({"b": artifact}, {})
        assert [f.severity for f in findings] == [FAIL]
        assert bench_compare.gate(findings) == 1

    def test_new_bench_is_a_note(self):
        artifact = self.art("b", {"n": 1}, {"n": "count"})
        findings = bench_compare.compare_sets({}, {"b": artifact})
        assert [f.severity for f in findings] == [NOTE]
        assert bench_compare.gate(findings) == 0

    def test_missing_metric_fails_new_metric_notes(self):
        base = self.art("b", {"kept": 1, "gone": 2}, {"kept": "count", "gone": "count"})
        cur = self.art("b", {"kept": 1, "added": 3}, {"kept": "count", "added": "count"})
        findings = bench_compare.compare_sets({"b": base}, {"b": cur})
        by_metric = {f.metric: f.severity for f in findings}
        assert by_metric["gone"] == FAIL
        assert by_metric["added"] == NOTE
        assert by_metric["kept"] == OK

    def test_config_fingerprint_change_is_a_note(self):
        base = self.art("b", {"n": 1}, {"n": "count"}, config={"quick": True})
        cur = self.art("b", {"n": 1}, {"n": "count"}, config={"quick": False})
        findings = bench_compare.compare_sets({"b": base}, {"b": cur})
        assert any(f.severity == NOTE and "fingerprint" in f.message for f in findings)
        assert bench_compare.gate(findings) == 0

    def test_gate_upgrades_timing_warns_when_asked(self):
        base = self.art("b", {"t": 1.0}, {"t": "s"})
        cur = self.art("b", {"t": 5.0}, {"t": "s"})
        findings = bench_compare.compare_sets({"b": base}, {"b": cur})
        assert bench_compare.gate(findings) == 0
        assert bench_compare.gate(findings, fail_on_timing=True) == 1


class TestFloors:
    def art(self, name, metrics, units):
        return bench_io.build_artifact(name, metrics, units)

    def parse(self, spec):
        return bench_compare.parse_floor(spec)

    def test_parse_bare_and_qualified(self):
        assert self.parse("process_speedup=1.0") == (None, "process_speedup", 1.0)
        assert self.parse("gp_perf.process_speedup=2") == (
            "gp_perf",
            "process_speedup",
            2.0,
        )

    def test_parse_rejects_malformed_specs(self):
        for spec in ("no_equals", "=1.0", "m=", "m=abc", "m=nan"):
            with pytest.raises(ValueError):
                self.parse(spec)

    def floors(self, current, *specs):
        return bench_compare.check_floors(
            current, [self.parse(spec) for spec in specs]
        )

    def test_met_floor_is_ok(self):
        current = {"gp_perf": self.art("gp_perf", {"process_speedup": 2.1}, {"process_speedup": "x"})}
        findings = self.floors(current, "process_speedup=1.0")
        assert [f.severity for f in findings] == [OK]
        assert bench_compare.gate(findings) == 0

    def test_below_floor_fails_even_for_timing_units(self):
        # "x" is a timing unit (ratios of wall-clock), so baseline
        # comparison would only WARN — the floor must still hard-fail.
        current = {"gp_perf": self.art("gp_perf", {"process_speedup": 0.8}, {"process_speedup": "x"})}
        findings = self.floors(current, "process_speedup=1.0")
        assert [f.severity for f in findings] == [FAIL]
        assert bench_compare.gate(findings) == 1

    def test_bare_floor_applies_to_every_exposing_bench(self):
        current = {
            "a": self.art("a", {"speed": 2.0}, {"speed": "x"}),
            "b": self.art("b", {"speed": 0.5}, {"speed": "x"}),
            "c": self.art("c", {"other": 9.0}, {"other": "x"}),
        }
        findings = self.floors(current, "speed=1.0")
        assert {(f.bench, f.severity) for f in findings} == {("a", OK), ("b", FAIL)}

    def test_qualified_floor_pins_one_bench(self):
        current = {
            "a": self.art("a", {"speed": 2.0}, {"speed": "x"}),
            "b": self.art("b", {"speed": 0.5}, {"speed": "x"}),
        }
        findings = self.floors(current, "a.speed=1.0")
        assert [(f.bench, f.severity) for f in findings] == [("a", OK)]

    def test_missing_metric_or_bench_fails(self):
        current = {"a": self.art("a", {"speed": 2.0}, {"speed": "x"})}
        assert [f.severity for f in self.floors(current, "absent=1.0")] == [FAIL]
        assert [f.severity for f in self.floors(current, "nope.speed=1.0")] == [FAIL]

    def test_nan_value_fails(self):
        current = {"a": self.art("a", {"speed": float("nan")}, {"speed": "x"})}
        assert [f.severity for f in self.floors(current, "speed=1.0")] == [FAIL]


class TestCompareCli:
    def setup_dirs(self, tmp_path, base_metrics, cur_metrics, units):
        write(tmp_path, "baseline", "b", base_metrics, units)
        write(tmp_path, "current", "b", cur_metrics, units)
        return str(tmp_path / "baseline"), str(tmp_path / "current")

    def test_exit_zero_on_identical_sets(self, tmp_path, capsys):
        base, cur = self.setup_dirs(
            tmp_path, {"n": 4}, {"n": 4}, {"n": "count"}
        )
        assert bench_compare.main([base, cur]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_identity_regression(self, tmp_path, capsys):
        base, cur = self.setup_dirs(
            tmp_path, {"n": 4}, {"n": 3}, {"n": "count"}
        )
        assert bench_compare.main([base, cur]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_missing_directory(self, tmp_path, capsys):
        (tmp_path / "baseline").mkdir()
        assert bench_compare.main(
            [str(tmp_path / "baseline"), str(tmp_path / "nope")]
        ) == 2

    def test_exit_two_on_empty_baseline(self, tmp_path, capsys):
        (tmp_path / "baseline").mkdir()
        write(tmp_path, "current", "b", {"n": 1}, {"n": "count"})
        assert bench_compare.main(
            [str(tmp_path / "baseline"), str(tmp_path / "current")]
        ) == 2

    def test_quiet_hides_ok_findings(self, tmp_path, capsys):
        base, cur = self.setup_dirs(tmp_path, {"n": 4}, {"n": 4}, {"n": "count"})
        bench_compare.main([base, cur, "--quiet"])
        out = capsys.readouterr().out
        assert "[OK]" not in out

    def test_floor_gates_exit_code(self, tmp_path, capsys):
        base, cur = self.setup_dirs(
            tmp_path, {"speed": 1.0}, {"speed": 0.9}, {"speed": "x"}
        )
        # Timing drift alone passes the gate...
        assert bench_compare.main([base, cur]) == 0
        # ...but the floor turns the same artifacts into a hard failure.
        assert bench_compare.main([base, cur, "--floor", "speed=1.0"]) == 1
        assert "below floor" in capsys.readouterr().out
        assert bench_compare.main([base, cur, "--floor", "speed=0.5"]) == 0

    def test_malformed_floor_is_usage_error(self, tmp_path, capsys):
        base, cur = self.setup_dirs(tmp_path, {"n": 4}, {"n": 4}, {"n": "count"})
        assert bench_compare.main([base, cur, "--floor", "garbage"]) == 2
