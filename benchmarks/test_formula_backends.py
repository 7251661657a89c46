"""Formula-inference backend ablation: ``gp`` vs ``linear`` vs ``hybrid``.

The claim behind the :class:`~repro.core.inference.InferenceBackend` seam
is a *free lunch on the easy majority*: most dashboard formulas are affine
or pure rescales that the closed-form linear dictionary solves in
microseconds, so ``hybrid`` (linear first, GP only for the hard tail)
recovers the **identical formula set** as pure GP at a fraction of the
wall-clock.  This bench asserts the identity half fleet-wide — same
found-ESV set, byte-identical GP-tail formula descriptions, every
linear-accepted formula exact against ground truth — and *reports* the
wall-clock half (``hybrid_speedup``, floored at 1.5x in CI via
``bench_compare --floor``).

Set ``FORMULA_BACKEND_QUICK=1`` (the CI smoke mode) to run a two-car
subset at a small GP budget; the committed baseline is produced in quick
mode so CI identity metrics compare like for like.
"""

import os
import time
from dataclasses import replace

from repro.core import DPReverser, GpConfig, ReverserConfig, check_formula

from conftest import verify_car  # noqa: F401  (fleet fixture helper family)

QUICK = bool(os.environ.get("FORMULA_BACKEND_QUICK"))
MODE = "quick" if QUICK else "full"
#: results/formula_backends.txt holds the full 18-car table.
TABLE_MODE = "full"

#: Car subset: quick mode keeps one car with a genuine GP tail (A) and one
#: fully linear-solvable car (E); full mode sweeps the whole fleet.
CARS = ("A", "E") if QUICK else None

GP_CONFIG = GpConfig(seed=2)
if QUICK:
    GP_CONFIG = replace(GP_CONFIG, population_size=100, generations=8)

BENCH_CONFIG = {
    "quick": QUICK,
    "cars": list(CARS) if CARS else "fleet",
    "population_size": GP_CONFIG.population_size,
    "generations": GP_CONFIG.generations,
    "seed": GP_CONFIG.seed,
}


def _infer(context, backend):
    reverser = DPReverser(
        ReverserConfig(gp_config=GP_CONFIG, formula_backend=backend)
    )
    start = time.perf_counter()
    report = reverser.infer(context)
    return report, reverser, time.perf_counter() - start


def test_backend_ablation(fleet, report_file, bench_artifact):
    keys = list(CARS) if CARS else fleet.keys
    totals = {"gp": 0.0, "linear": 0.0, "hybrid": 0.0}
    found = {"gp": 0, "linear": 0, "hybrid": 0}
    n_fallbacks = n_linear_checked = 0

    report_file("Formula-inference backend ablation")
    report_file(f"(cars: {', '.join(keys)}; GP budget: "
                f"{GP_CONFIG.population_size}x{GP_CONFIG.generations})")
    report_file("")
    report_file(f"{'Car':<5}{'gp_s':>8}{'linear_s':>10}{'hybrid_s':>10}"
                f"{'#gp':>5}{'#lin':>6}{'#hyb':>6}{'fallbacks':>11}")

    for key in keys:
        context = fleet.context(key)
        truth = fleet.ground_truth(key)
        reports = {}
        times = {}
        reversers = {}
        for backend in ("gp", "linear", "hybrid"):
            reports[backend], reversers[backend], times[backend] = _infer(
                context, backend
            )
            totals[backend] += times[backend]
            found[backend] += sum(
                1 for esv in reports[backend].formula_esvs if esv.formula is not None
            )

        # --- identity: hybrid recovers exactly what pure GP recovers.
        gp_esvs = {e.identifier: e for e in reports["gp"].formula_esvs}
        gp_found = {i for i, e in gp_esvs.items() if e.formula is not None}
        hybrid_found = set()
        fallbacks = 0
        for esv in reports["hybrid"].formula_esvs:
            if esv.formula is None:
                continue
            hybrid_found.add(esv.identifier)
            if esv.formula.backend == "gp":
                # GP tail: byte-identical to the pure-GP run.
                fallbacks += 1
                assert (
                    esv.formula.description
                    == gp_esvs[esv.identifier].formula.description
                ), f"{key}/{esv.identifier}: hybrid GP tail diverged from pure GP"
            else:
                # Linear-accepted: exact against ground truth.
                __, truth_formula, __ = truth[esv.identifier]
                assert check_formula(esv.formula, truth_formula, esv.samples), (
                    f"{key}/{esv.identifier}: linear formula wrong vs truth"
                )
                n_linear_checked += 1
        assert hybrid_found == gp_found, f"{key}: hybrid ESV set != gp ESV set"
        n_fallbacks += fallbacks

        report_file(
            f"{key:<5}{times['gp']:>8.2f}{times['linear']:>10.3f}"
            f"{times['hybrid']:>10.2f}"
            f"{sum(1 for e in reports['gp'].formula_esvs if e.formula):>5}"
            f"{sum(1 for e in reports['linear'].formula_esvs if e.formula):>6}"
            f"{len(hybrid_found):>6}{fallbacks:>11}"
        )

    hybrid_speedup = totals["gp"] / totals["hybrid"] if totals["hybrid"] else 0.0
    linear_speedup = totals["gp"] / totals["linear"] if totals["linear"] else 0.0
    linear_hit_rate = found["linear"] / found["gp"] if found["gp"] else 0.0

    report_file("")
    report_file(f"hybrid speedup over pure GP: {hybrid_speedup:.2f}x")
    report_file(f"linear-only speedup:         {linear_speedup:.1f}x")
    report_file(
        f"linear hit rate: {found['linear']}/{found['gp']} = {linear_hit_rate:.1%}"
        f" (hybrid falls back to GP for {n_fallbacks})"
    )

    bench_artifact(
        metrics={
            "gp_s": round(totals["gp"], 3),
            "linear_s": round(totals["linear"], 3),
            "hybrid_s": round(totals["hybrid"], 3),
            "hybrid_speedup": round(hybrid_speedup, 3),
            "linear_speedup": round(linear_speedup, 3),
            "gp_formula_esvs": found["gp"],
            "linear_formula_esvs": found["linear"],
            "hybrid_formula_esvs": found["hybrid"],
            "hybrid_gp_fallbacks": n_fallbacks,
            "linear_exact_vs_truth": n_linear_checked,
            "linear_hit_rate": round(linear_hit_rate, 4),
        },
        units={
            "gp_s": "s",
            "linear_s": "s",
            "hybrid_s": "s",
            "hybrid_speedup": "x",
            "linear_speedup": "x",
            "gp_formula_esvs": "count",
            "linear_formula_esvs": "count",
            "hybrid_formula_esvs": "count",
            "hybrid_gp_fallbacks": "count",
            "linear_exact_vs_truth": "count",
            "linear_hit_rate": "ratio",
        },
        config=BENCH_CONFIG,
    )

    # The wall-clock claim CI floors (--floor hybrid_speedup=1.5); asserted
    # loosely here too so a local full run can't silently lose the win.
    assert hybrid_speedup > 1.0, "hybrid must beat pure GP"
