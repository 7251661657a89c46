"""Ablation — the Tab. 2 pre/post-scaling of the GP dataset.

The paper motivates rescaling X and Y into roughly [1, 10): very small
targets make GP collapse to a constant, very large ones breed bloated
trees.  The paper's gplearn prototype has *no* linear-scaling fitness, so
Tab. 2 carries the whole burden; our engine adds Keijzer-style linear
scaling which absorbs part of it.  The ablation therefore measures all
four quadrants:

==============================  =======================================
configuration                   expectation
==============================  =======================================
Tab. 2 ON,  linear-scaling ON   accurate (the shipped default)
Tab. 2 OFF, linear-scaling ON   still decent (a, b absorb the ranges)
Tab. 2 ON,  linear-scaling OFF  accurate (the paper's configuration)
Tab. 2 OFF, linear-scaling OFF  fails on wide-range targets (the paper's
                                motivating failure)
==============================  =======================================
"""

import random
from dataclasses import replace

import pytest

from repro.core.gp import GeneticProgrammer, GpConfig
from repro.core.response_analysis import PairedDataset, prescale


def wide_range_cases(seed=5):
    """Formula cases whose Y ranges are far outside [1, 10)."""
    rng = random.Random(seed)
    cases = []
    xs = [(rng.uniform(500, 8000),) for __ in range(50)]
    cases.append(("rpm-style, Y~5e3", xs, [0.9 * x[0] + 320 for x in xs]))
    xs2 = [(rng.uniform(10, 250),) for __ in range(50)]
    cases.append(("lambda-style, Y~1e-3", xs2, [4e-5 * x[0] for x in xs2]))
    xs3 = [(rng.uniform(10, 250), rng.uniform(10, 250)) for __ in range(50)]
    cases.append(("product, Y~5e3", xs3, [0.2 * a * b for a, b in xs3]))
    return cases


def run_quadrant(xs, ys, use_table2, use_linear_scaling):
    config = GpConfig(seed=3, linear_scaling=use_linear_scaling)
    if use_table2:
        scaled = prescale(PairedDataset(list(xs), list(ys)))
        result = GeneticProgrammer(config).fit(scaled.x, scaled.y)
        sx, sy = scaled.x_factors, scaled.y_factor
        predict = lambda x: result.predict(tuple(v * f for v, f in zip(x, sx))) / sy
    else:
        result = GeneticProgrammer(config).fit(xs, ys)
        predict = result.predict
    errors = [abs(predict(x) - y) / max(1e-9, abs(y)) for x, y in zip(xs, ys)]
    return sum(errors) / len(errors)


def test_ablation_table2_scaling(benchmark, report_file, bench_artifact):
    cases = wide_range_cases()

    def run():
        quadrants = {}
        for table2 in (True, False):
            for linear in (True, False):
                errors = [
                    run_quadrant(xs, ys, table2, linear) for __, xs, ys in cases
                ]
                quadrants[(table2, linear)] = sum(errors) / len(errors)
        return quadrants

    quadrants = benchmark.pedantic(run, rounds=1, iterations=1)
    report_file("Ablation - Tab. 2 scaling x linear-scaling fitness")
    report_file("  (mean relative error over 3 wide-range formula cases)")
    metrics = {}
    for (table2, linear), error in sorted(quadrants.items(), reverse=True):
        report_file(
            f"  Tab.2={'on ' if table2 else 'off'} "
            f"linear-scaling={'on ' if linear else 'off'}: {error:.2%}"
        )
        tag = f"tab2_{'on' if table2 else 'off'}_ls_{'on' if linear else 'off'}"
        metrics[f"{tag}_rel_error"] = error
    bench_artifact(metrics, {name: "ratio" for name in metrics})

    # The shipped default and the paper's configuration are both accurate.
    assert quadrants[(True, True)] < 0.02
    assert quadrants[(True, False)] < 0.10
    # Without either normalisation, wide-range targets break GP — the
    # paper's motivating observation for Tab. 2.
    assert quadrants[(False, False)] > 3 * quadrants[(True, False)]
