"""DP-Reverser pipeline benchmark: end-to-end and per-layer metrics, timed
from outside the program.

Run from the root of a checkout (no install needed; ``src`` is put on the
path here):

    python3 benchmarks/pipeline/run.py --workload fleet-hybrid --seed 0
    python3 benchmarks/pipeline/run.py --seed 0 --trace 1 --out traced.json
    python3 benchmarks/pipeline/run.py --compare before.json after.json

Each workload runs in a fresh worker process (``worker.py``).  With
``--trace 0`` a run prints every end-to-end metric of ``BENCHMARK.json``,
with ``--trace 1`` every per-layer metric.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  ``--out FILE`` appends
the run, with its seed, host and ``inputs_digest``, to a JSON list that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from timing import pin_to_one_cpu, start_server, stop_server, timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = HERE / "baseline.json"

#: The runner's unit vocabulary.  Every metric in ``BENCHMARK.json`` uses
#: one of these and states whether higher or lower is better.
UNITS = {
    "s": "seconds of wall-clock time",
    "1/s": "operations completed per second",
    "frames/s": "CAN or video frames processed per second of busy time",
    "bytes": "bytes",
    "MiB": "mebibytes (2**20 bytes)",
    "count": "number of items",
    "ratio": "dimensionless ratio",
}
DIRECTIONS = ("higher", "lower")

#: Cold starts per run behind ``setup_s``; the median is reported.
SETUP_RUNS = 5

#: Upper bound on one worker; a run must end within 180 s.
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark itself could not produce a result."""


def load_spec() -> dict:
    spec = json.loads(SPEC_PATH.read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["unit"] not in UNITS or metric["better"] not in DIRECTIONS:
            raise BenchmarkError(f"metric {metric['name']}: bad unit or direction")
    return spec


def setup_seconds(workload, runs: int) -> "tuple[float, float]":
    """Median cold start, speed-normalised and raw: ``import repro`` plus
    constructing the reverser, or for the serve workload spawning
    ``repro serve`` until it listens."""
    if workload.serve:

        def start():
            return start_server(ROOT)[0]

        stop = stop_server
    else:
        code = (
            "import repro; "
            f"repro.DPReverser(repro.ReverserConfig(formula_backend={workload.formula_backend!r}))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def start():
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)

        def stop(_):
            pass

    raw, norm = [], []
    for _ in range(runs):
        started, raw_s, norm_s = timed(start)
        stop(started)
        raw.append(raw_s)
        norm.append(norm_s)
    return statistics.median(norm), statistics.median(raw)


def run_worker(name: str, args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cars", str(args.cars),
        "--passes", str(args.passes),
    ]
    # Own process group, so a timeout also reaps the server a worker started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"{name}: worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload, args: argparse.Namespace, spec: dict) -> dict:
    name = workload.name
    setup = None if args.trace else setup_seconds(workload, args.setup_runs)
    result = run_worker(name, args)
    if setup is not None:
        result["metrics"]["setup_s"], result["raw"]["setup_s_raw"] = setup
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise BenchmarkError(f"{name}: worker did not report {', '.join(missing)}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    return result


def check_digest(name: str, result: dict, args: argparse.Namespace) -> None:
    """Warn when seed 0 no longer produces the recorded inputs."""
    if args.seed != 0 or args.cars or not BASELINE_PATH.exists():
        return
    recorded = json.loads(BASELINE_PATH.read_text())["workloads"].get(name, {})
    expected = recorded.get("inputs_digest_seed0")
    if expected and expected != result["inputs_digest"]:
        print(
            f"WARNING: {name}: inputs_digest {result['inputs_digest'][:16]} differs "
            f"from the recorded {expected[:16]}; numbers are not comparable "
            "with the baseline",
            file=sys.stderr,
        )


def host() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def print_result(name: str, result: dict, args: argparse.Namespace) -> None:
    print(
        f"workload {name}  seed {args.seed}  trace {args.trace}  "
        f"passes {result['passes']}  attempted {result['attempted']}  "
        f"failed {result['failed']}  correct {result['correct']}"
    )
    print(f"  inputs_digest {result['inputs_digest']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    for metric, value in result.get("raw", {}).items():
        unit = result["metrics"][metric[: -len("_raw")]]["unit"]
        print(f"  {metric:<34} {value:>16.6g} {unit} (wall-clock, not normalised)")
    for problem in result.get("problems", []):
        print(f"  problem: {problem}")


def append_out(path: Path, record: dict) -> None:
    runs = json.loads(path.read_text()) if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps(runs, indent=1) + "\n")


# --------------------------------------------------------------- compare


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    """improved / unchanged / regressed / unresolved, by the guide's rules.

    A regression is a median worse than the parent's by more than the
    bound.  When the parent's own spread is wider than the bound the metric
    is unresolved, unless every run of the change reads better than every
    run of the parent.  A gain needs the change to win at least nine
    tenths of all run pairs and the medians to differ by more than the
    parent's quartile distance.
    """
    sign = 1.0 if better == "higher" else -1.0
    m_before, m_after = statistics.median(before), statistics.median(after)
    pairs = [sign * (b - a) for a in before for b in after]
    all_better = all(p > 0 for p in pairs)
    if spread(before) > bound and not all_better:
        return "unresolved"
    change = sign * (m_after - m_before) / abs(m_before) if m_before else 0.0
    if change < -bound:
        return "regressed"
    wins = sum(p > 0 for p in pairs) / len(pairs)
    if change > spread(before) and wins >= 0.9:
        return "improved"
    return "unchanged"


def _runs_of(path: str) -> List[dict]:
    return [run for run in json.loads(Path(path).read_text()) if not run["trace"]]


def compare(path_before: str, path_after: str, spec: dict) -> int:
    before, after = _runs_of(path_before), _runs_of(path_after)
    workloads = sorted(
        {w for run in before for w in run["workloads"]}
        & {w for run in after for w in run["workloads"]}
    )
    if not workloads:
        print("no untraced workload in common", file=sys.stderr)
        return 2
    status = 0
    print(
        f"{'workload':<18} {'metric':<16} {'before':>12} {'after':>12} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    for name in workloads:
        runs_b = [run["workloads"][name] for run in before if name in run["workloads"]]
        runs_a = [run["workloads"][name] for run in after if name in run["workloads"]]
        digests = {(r["seed"], r["inputs_digest"]) for r in runs_b + runs_a}
        if len(digests) != len({seed for seed, _ in digests}):
            print(f"WARNING: {name}: inputs differ between the two sets at one seed")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            xs = [r["metrics"][key]["value"] for r in runs_b]
            ys = [r["metrics"][key]["value"] for r in runs_a]
            result = verdict(xs, ys, metric["better"], metric["bound"])
            m_x, m_y = statistics.median(xs), statistics.median(ys)
            change = (m_y - m_x) / abs(m_x) if m_x else 0.0
            print(
                f"{name:<18} {key:<16} {m_x:>12.5g} {m_y:>12.5g} {change:>+8.1%} "
                f"{spread(xs):>7.1%} {metric['bound']:>6.0%}  {result}"
            )
            if result == "regressed":
                status = 1
        ratio_b = sum(r["failed"] for r in runs_b) / max(1, sum(r["attempted"] for r in runs_b))
        ratio_a = sum(r["failed"] for r in runs_a) / max(1, sum(r["attempted"] for r in runs_a))
        print(
            f"{name:<18} {'failed_ratio':<16} {ratio_b:>12.4f} {ratio_a:>12.4f}  "
            f"(of {sum(r['attempted'] for r in runs_b)} / "
            f"{sum(r['attempted'] for r in runs_a)} attempted)"
            + ("  regressed" if ratio_a > ratio_b else "")
        )
        if ratio_a > ratio_b:
            status = 1
    return status


# ------------------------------------------------------------------ main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="DP-Reverser pipeline benchmark (see benchmarks/pipeline/README.md)"
    )
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from the decomposed run")
    parser.add_argument("--out", type=Path, help="append the run to this JSON list")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="judge two --out files against the bounds")
    parser.add_argument("--cars", type=int, default=0,
                        help="use only the first N cars of each workload (smoke test)")
    parser.add_argument("--passes", type=int, default=0,
                        help="fixed passes (serve: rounds) instead of --seconds")
    parser.add_argument("--setup-runs", type=int, default=SETUP_RUNS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    pin_to_one_cpu()  # the workers and servers started below inherit it

    info = host()
    print(f"host cpu_count {info['cpu_count']}  python {info['python']}  "
          f"numpy {info['numpy']}")
    results: Dict[str, dict] = {}
    for name in names:
        try:
            result = measure(WORKLOADS[name], args, spec)
        except (BenchmarkError, subprocess.CalledProcessError, RuntimeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        result["seed"] = args.seed
        print_result(name, result, args)
        check_digest(name, result, args)
        results[name] = result

    if args.out:
        append_out(args.out, {
            "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            **info, "workloads": results,
        })
    single = len(names) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (metric if single else f"{name}:{metric}"): entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
