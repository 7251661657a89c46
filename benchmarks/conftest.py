"""Shared fixtures for the experiment benches.

Every bench regenerates one table of the paper.  The heavy artefacts —
per-car captures, analysis contexts and full reverse-engineering reports —
are built lazily and cached for the whole pytest session so that e.g. the
Tab. 6, Tab. 7 and Tab. 11 benches reuse the same fleet run.

Bench output (the reproduced table rows) is written to
``benchmarks/results/<name>.txt`` so the numbers survive the run and can be
pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import pytest

import bench_io

from repro.core import AnalysisContext, DPReverser, GpConfig, ReverserConfig, ReverseReport, check_formula
from repro.cps import Capture, DataCollector
from repro.tools import make_tool_for_car
from repro.vehicle import CAR_SPECS, build_car

RESULTS_DIR = Path(__file__).parent / "results"

_capture_cache: Dict[str, Tuple[object, Capture]] = {}
_context_cache: Dict[str, AnalysisContext] = {}
_report_cache: Dict[str, ReverseReport] = {}


def _collect(key: str):
    if key not in _capture_cache:
        car = build_car(key)
        tool = make_tool_for_car(key, car)
        capture = DataCollector(tool, read_duration_s=30.0).collect()
        _capture_cache[key] = (car, capture)
    return _capture_cache[key]


def _analyze(key: str) -> AnalysisContext:
    if key not in _context_cache:
        __, capture = _collect(key)
        _context_cache[key] = DPReverser(ReverserConfig(gp_config=GpConfig(seed=2))).analyze(capture)
    return _context_cache[key]


def _reverse(key: str) -> ReverseReport:
    if key not in _report_cache:
        context = _analyze(key)
        _report_cache[key] = DPReverser(ReverserConfig(gp_config=GpConfig(seed=2))).infer(context)
    return _report_cache[key]


@pytest.fixture(scope="session")
def fleet():
    """Lazy access to per-car (vehicle, capture, context, report)."""

    class Fleet:
        keys = list(CAR_SPECS)

        @staticmethod
        def capture(key: str):
            return _collect(key)

        @staticmethod
        def context(key: str) -> AnalysisContext:
            return _analyze(key)

        @staticmethod
        def report(key: str) -> ReverseReport:
            return _reverse(key)

        @staticmethod
        def ground_truth(key: str):
            car, __ = _collect(key)
            truth = {}
            for ecu in car.ecus:
                for point in ecu.uds_data_points.values():
                    truth[f"uds:{point.did:04X}"] = (
                        point.name, point.formula, point.is_enum,
                    )
                for group in ecu.kwp_groups.values():
                    for index, m in enumerate(group.measurements):
                        truth[f"kwp:{group.local_id:02X}/{index}"] = (
                            m.name, m.formula, m.is_enum,
                        )
            return truth

    return Fleet()


_initialised_reports = set()

#: Files of the tests this session deselected (``-k``, ``-m``,
#: ``--deselect``, ``--lf``).
_deselected_files = set()


def pytest_deselected(items):
    _deselected_files.update(item.path for item in items)


@pytest.fixture()
def report_file(request):
    """Append the reproduced table rows to benchmarks/results/<module>.txt.

    The file is truncated the first time a module writes to it in a
    session, so parametrised tests accumulate into one table.  A run that
    selects only some of a module's tests, or runs a bench in another mode
    than its committed table's (``bench_io.writes_table``), leaves its
    table untouched.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    name = request.module.__name__.replace("test_", "")
    path = RESULTS_DIR / f"{name}.txt"
    lines = []

    def write(text: str = "") -> None:
        lines.append(text)

    yield write
    config = request.config
    module = request.module
    if not bench_io.selects_whole_module(
        request.path, config.args, config.invocation_params.dir, _deselected_files
    ) or not bench_io.writes_table(
        getattr(module, "MODE", None), getattr(module, "TABLE_MODE", None)
    ):
        return
    mode = "a" if path in _initialised_reports else "w"
    _initialised_reports.add(path)
    with path.open(mode) as handle:
        handle.write("\n".join(lines) + "\n")


_bench_accumulators: Dict[str, dict] = {}


@pytest.fixture()
def bench_artifact(request):
    """Accumulate structured metrics into benchmarks/results/BENCH_<name>.json.

    Call ``bench_artifact(metrics, units, config=...)`` any number of times
    (parametrised tests included); the artifact is rewritten after each
    test with everything the module has recorded so far, mirroring how
    :func:`report_file` accumulates the text table.  Schema and writer live
    in :mod:`bench_io`; CI uploads the artifacts and diffs them against the
    committed baselines with ``scripts/bench_compare.py``.
    """
    name = request.module.__name__.replace("test_", "")
    state = _bench_accumulators.setdefault(
        name, {"metrics": {}, "units": {}, "config": {}}
    )

    def record(
        metrics: Dict[str, float],
        units: Dict[str, str],
        config: Dict[str, object] = None,
    ) -> None:
        state["metrics"].update(metrics)
        state["units"].update(units)
        if config:
            state["config"].update(config)

    yield record
    if state["metrics"]:
        bench_io.write_bench(
            RESULTS_DIR, name, state["metrics"], state["units"], state["config"]
        )


def verify_car(fleet, key: str):
    """Score one car's report against ground truth (Tab. 6 style row)."""
    report = fleet.report(key)
    truth = fleet.ground_truth(key)
    correct = 0
    wrong = []
    for esv in report.formula_esvs:
        name, formula, __ = truth[esv.identifier]
        if check_formula(esv.formula, formula, esv.samples):
            correct += 1
        else:
            wrong.append(name)
    return report, correct, wrong
