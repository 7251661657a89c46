#!/usr/bin/env python3
"""Diff two benchmark-artifact sets; exit non-zero on regression.

CI's regression gate::

    python scripts/bench_compare.py benchmarks/results/baseline benchmarks/results

Both arguments are directories of ``BENCH_<name>.json`` artifacts written
by ``benchmarks/bench_io.py``.  Comparison policy, per metric:

* **identity metrics** (any unit outside the timing set ``s``/``ms``/
  ``us``/``1/s``/``x`` — counts, ratios, precisions) must match exactly;
  any difference is a hard failure.  These are deterministic reproduction
  numbers: a changed precision is a behaviour change, not noise.
* **timing metrics** (durations, absolute rates in ``1/s``, speedup
  ratios in ``x``) regress only beyond ``--rel-tol``/``--abs-tol``, and
  even then only *warn* by default — CI runners are too noisy to gate
  merges on wall-clock.  ``--fail-on-timing`` upgrades timing regressions
  to failures for controlled environments.
* a metric (or a whole bench) present in the baseline but missing from
  the current set is a failure — coverage must not silently shrink; new
  metrics and new benches are reported as notes.
* ``NaN`` equals ``NaN`` (a knowingly-unavailable number stays
  unavailable); ``NaN`` on one side only is a failure.
* ``--floor METRIC=VALUE`` (repeatable) imposes a hard minimum on a
  *current* metric, independent of the baseline and of timing tolerance:
  a current value below the floor, missing, or NaN is a failure even
  though timing metrics otherwise only warn.  ``METRIC`` is either a bare
  metric name (applies to every bench exposing it; at least one must) or
  ``bench.metric`` to pin one artifact.  This is how CI asserts "the
  parallel backend must actually win" without gating on noisy ratios.

Exit codes: 0 clean, 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_io import TIMING_UNITS, load_artifact_dir  # noqa: E402

#: Finding severities, in gate order.
FAIL = "FAIL"
WARN = "WARN"
NOTE = "NOTE"
OK = "OK"


@dataclass
class Finding:
    severity: str
    bench: str
    metric: str
    message: str

    def __str__(self) -> str:
        where = f"{self.bench}.{self.metric}" if self.metric else self.bench
        return f"[{self.severity}] {where}: {self.message}"


def _is_timing(unit: str) -> bool:
    return unit in TIMING_UNITS


def _relative_delta(base: float, cur: float) -> float:
    if base == 0:
        return math.inf if cur != 0 else 0.0
    return abs(cur - base) / abs(base)


def compare_metric(
    bench: str,
    metric: str,
    unit: str,
    base: float,
    cur: float,
    rel_tol: float,
    abs_tol: float,
) -> Finding:
    """Classify one metric's baseline→current movement."""
    base_nan, cur_nan = _isnan(base), _isnan(cur)
    if base_nan and cur_nan:
        return Finding(OK, bench, metric, "NaN == NaN")
    if base_nan != cur_nan:
        return Finding(
            FAIL, bench, metric, f"NaN mismatch: baseline={base!r} current={cur!r}"
        )
    if _is_timing(unit):
        if abs(cur - base) <= abs_tol or _relative_delta(base, cur) <= rel_tol:
            return Finding(OK, bench, metric, f"{base} -> {cur} ({unit}, within tolerance)")
        return Finding(
            WARN,
            bench,
            metric,
            f"timing moved {base} -> {cur} {unit} "
            f"(rel {_relative_delta(base, cur):.1%} > {rel_tol:.1%})",
        )
    if base == cur:
        return Finding(OK, bench, metric, f"{base} == {cur}")
    return Finding(
        FAIL, bench, metric, f"identity metric changed: {base} -> {cur} ({unit})"
    )


def _isnan(value: float) -> bool:
    try:
        return math.isnan(value)
    except TypeError:
        return False


def compare_sets(
    baseline: Dict[str, dict],
    current: Dict[str, dict],
    rel_tol: float = 0.25,
    abs_tol: float = 0.0,
) -> List[Finding]:
    """Compare two artifact sets (bench name -> artifact dict)."""
    findings: List[Finding] = []
    for bench in sorted(set(baseline) | set(current)):
        if bench not in current:
            findings.append(Finding(FAIL, bench, "", "bench missing from current set"))
            continue
        if bench not in baseline:
            findings.append(Finding(NOTE, bench, "", "new bench (no baseline)"))
            continue
        base_art, cur_art = baseline[bench], current[bench]
        if base_art["config_fingerprint"] != cur_art["config_fingerprint"]:
            findings.append(
                Finding(
                    NOTE,
                    bench,
                    "",
                    "config fingerprint changed "
                    f"({base_art['config_fingerprint']} -> "
                    f"{cur_art['config_fingerprint']}); metrics may not be comparable",
                )
            )
        base_metrics, cur_metrics = base_art["metrics"], cur_art["metrics"]
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            if metric not in cur_metrics:
                findings.append(
                    Finding(FAIL, bench, metric, "metric missing from current artifact")
                )
                continue
            if metric not in base_metrics:
                findings.append(Finding(NOTE, bench, metric, "new metric (no baseline)"))
                continue
            unit = cur_art["units"].get(metric, base_art["units"].get(metric, ""))
            findings.append(
                compare_metric(
                    bench,
                    metric,
                    unit,
                    base_metrics[metric],
                    cur_metrics[metric],
                    rel_tol,
                    abs_tol,
                )
            )
    return findings


def parse_floor(spec: str):
    """``[bench.]metric=value`` -> ``(bench or None, metric, value)``.

    Raises ``ValueError`` on a malformed spec (no ``=``, empty metric,
    non-numeric value).
    """
    name, sep, raw = spec.partition("=")
    if not sep or not name:
        raise ValueError(f"floor must look like METRIC=VALUE: {spec!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"floor value is not a number: {spec!r}") from None
    if math.isnan(value):
        raise ValueError(f"floor value cannot be NaN: {spec!r}")
    bench, dot, metric = name.partition(".")
    if not dot:
        bench, metric = None, name
    if not metric:
        raise ValueError(f"floor metric name is empty: {spec!r}")
    return bench, metric, value


def check_floors(current: Dict[str, dict], floors) -> List[Finding]:
    """Hard minimums on current metrics: below, missing, or NaN is FAIL."""
    findings: List[Finding] = []
    for bench, metric, value in floors:
        targets = [bench] if bench is not None else sorted(
            name for name, art in current.items() if metric in art["metrics"]
        )
        if not targets or (bench is not None and bench not in current):
            findings.append(
                Finding(
                    FAIL,
                    bench or "*",
                    metric,
                    f"floor {value} set but no current artifact exposes the metric",
                )
            )
            continue
        for name in targets:
            cur = current[name]["metrics"].get(metric)
            if cur is None:
                findings.append(
                    Finding(FAIL, name, metric, f"floor {value} set but metric missing")
                )
            elif _isnan(cur):
                findings.append(
                    Finding(FAIL, name, metric, f"floor {value} set but value is NaN")
                )
            elif cur < value:
                findings.append(
                    Finding(FAIL, name, metric, f"{cur} below floor {value}")
                )
            else:
                findings.append(
                    Finding(OK, name, metric, f"{cur} >= floor {value}")
                )
    return findings


def gate(findings: List[Finding], fail_on_timing: bool = False) -> int:
    """Exit code for a finding list: 1 on any FAIL (or WARN when upgraded)."""
    severities = {f.severity for f in findings}
    if FAIL in severities:
        return 1
    if fail_on_timing and WARN in severities:
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="directory of baseline BENCH_*.json artifacts")
    parser.add_argument("current", help="directory of freshly produced artifacts")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.25,
        help="relative tolerance for timing metrics (default 0.25)",
    )
    parser.add_argument(
        "--abs-tol",
        type=float,
        default=0.0,
        help="absolute tolerance for timing metrics, in the metric's unit",
    )
    parser.add_argument(
        "--fail-on-timing",
        action="store_true",
        help="treat out-of-tolerance timing movement as a failure, not a warning",
    )
    parser.add_argument(
        "--floor",
        action="append",
        default=[],
        metavar="METRIC=VALUE",
        help="hard minimum for a current metric (repeatable); below, missing "
        "or NaN fails the gate even for timing-unit metrics.  Prefix with "
        "bench. to pin one artifact, e.g. gp_perf.process_speedup=1.0",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only WARN/FAIL findings"
    )
    args = parser.parse_args(argv)

    try:
        floors = [parse_floor(spec) for spec in args.floor]
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    for path in (args.baseline, args.current):
        if not Path(path).is_dir():
            print(f"not a directory: {path}", file=sys.stderr)
            return 2
    try:
        baseline = load_artifact_dir(args.baseline)
        current = load_artifact_dir(args.current)
    except ValueError as error:
        print(f"bad artifact: {error}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"no BENCH_*.json artifacts in {args.baseline}", file=sys.stderr)
        return 2

    findings = compare_sets(baseline, current, rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    findings.extend(check_floors(current, floors))
    for finding in findings:
        if args.quiet and finding.severity == OK:
            continue
        print(finding)
    code = gate(findings, fail_on_timing=args.fail_on_timing)
    n_fail = sum(1 for f in findings if f.severity == FAIL)
    n_warn = sum(1 for f in findings if f.severity == WARN)
    print(
        f"\n{len(findings)} finding(s): {n_fail} fail, {n_warn} warn -> "
        f"{'REGRESSION' if code else 'OK'}"
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
