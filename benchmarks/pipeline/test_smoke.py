"""Smoke test of the pipeline benchmark: every workload, cut to three cars.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_smoke.py

Each workload runs once untraced and once traced, at three cars (one per
CAN transport), one pass and, for the serve workload, two rounds of three
sessions.  The whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "pipeline" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    passes = "2" if workload == "serve-replay" else "1"
    proc = _run(
        ROOT,
        "--workload", workload, "--seed", "0", "--trace", str(trace),
        "--cars", "3", "--passes", passes, "--setup-runs", "1",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Traced: the decomposition and the in-process service chain both
    # reproduced reverse_engineer's report byte for byte.
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "fleet-noisy", "--seed", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_verdicts_follow_bounds_and_spread():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert run.verdict(base, [10.02, 9.98, 10.0], "lower", 0.1) == "unchanged"
    assert run.verdict(base, [11.5, 11.6, 11.4], "lower", 0.1) == "regressed"
    assert run.verdict(base, [8.0, 8.1, 7.9], "lower", 0.1) == "improved"
    assert run.verdict(base, [8.0, 8.1, 7.9], "higher", 0.1) == "regressed"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert run.verdict(noisy, [10.0, 11.0, 9.0], "lower", 0.1) == "unresolved"
    assert run.verdict(noisy, [1.0, 1.1, 0.9], "lower", 0.1) == "improved"
