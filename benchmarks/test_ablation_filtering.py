"""Ablation — the two-stage OCR filter (§3.3) and OCR-noise sensitivity.

Two questions the paper's design raises but does not isolate:

1. How much does the two-stage incorrect-ESV filter contribute?  We run
   formula inference on Car L (AUTEL, 2.4 % frame error) with the filtered
   vs the raw series.
2. How does end-to-end precision degrade as the OCR gets worse?  We sweep
   the per-frame error rate on one car.
"""

import pytest

from repro.core import DPReverser, GpConfig, ReverserConfig, check_formula
from repro.core.response_analysis import build_dataset, infer_formula
from repro.cps import DataCollector
from repro.tools import make_tool_for_car
from repro.vehicle import build_car


def precision_from_series(fleet, key, use_filtered):
    context = fleet.context(key)
    truth = fleet.ground_truth(key)
    correct = total = 0
    for match in context.matches:
        name, formula, is_enum = truth[match.identifier]
        if is_enum:
            continue
        series_map = context.series if use_filtered else context.series_raw
        series = series_map.get(match.label)
        if series is None or not series.is_numeric:
            continue
        observations = context.grouped[match.identifier]
        inferred = infer_formula(observations, series, GpConfig(seed=2))
        if inferred is None:
            continue
        total += 1
        samples = observations.variables()
        correct += check_formula(inferred, formula, samples)
    return correct, total


def test_ablation_two_stage_filter(benchmark, report_file, bench_artifact, fleet):
    def run():
        filtered = precision_from_series(fleet, "L", use_filtered=True)
        raw = precision_from_series(fleet, "L", use_filtered=False)
        return filtered, raw

    (f_correct, f_total), (r_correct, r_total) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report_file(
        f"Car L with filter: {f_correct}/{f_total} = {f_correct/f_total:.1%}; "
        f"without: {r_correct}/{r_total} = {r_correct/max(r_total,1):.1%}"
    )
    bench_artifact(
        {
            "filtered_correct": f_correct,
            "filtered_total": f_total,
            "raw_correct": r_correct,
            "raw_total": r_total,
        },
        {
            "filtered_correct": "count",
            "filtered_total": "count",
            "raw_correct": "count",
            "raw_total": "count",
        },
    )
    # The filter never hurts; GP's own trimming absorbs some of the noise.
    assert f_correct / f_total >= r_correct / max(r_total, 1) - 1e-9


@pytest.mark.parametrize("error_rate", [0.02, 0.15, 0.40])
def test_ablation_ocr_noise_sweep(benchmark, report_file, bench_artifact, error_rate):
    """End-to-end precision for one car under increasing OCR error rates."""
    car = build_car("D")
    tool = make_tool_for_car("D", car)
    capture = DataCollector(tool, read_duration_s=30.0).collect()
    capture.tool_error_rate = error_rate

    def run():
        report = DPReverser(ReverserConfig(gp_config=GpConfig(seed=2))).reverse_engineer(capture)
        truth = {}
        for ecu in car.ecus:
            for point in ecu.uds_data_points.values():
                truth[f"uds:{point.did:04X}"] = (point.formula, point.is_enum)
        correct = total = 0
        for esv in report.formula_esvs:
            formula, __ = truth[esv.identifier]
            total += 1
            correct += check_formula(esv.formula, formula, esv.samples)
        return correct, total

    correct, total = benchmark.pedantic(run, rounds=1, iterations=1)
    precision = correct / total if total else 0.0
    matched = total
    report_file(
        f"OCR frame error {error_rate:.0%}: matched {matched}/12 formula ESVs, "
        f"precision {precision:.1%}"
    )
    tag = f"ocr_err_{int(error_rate * 100)}"
    bench_artifact(
        {f"{tag}_correct": correct, f"{tag}_total": total},
        {f"{tag}_correct": "count", f"{tag}_total": "count"},
    )
    if error_rate <= 0.02:
        assert precision == 1.0 and matched == 12
    else:
        # Under heavy noise coverage/precision may degrade, but the pipeline
        # must keep working on a usable majority.
        assert matched >= 8
        assert precision >= 0.6
