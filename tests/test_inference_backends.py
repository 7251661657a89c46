"""Pluggable formula-inference backends: ``gp`` | ``linear`` | ``hybrid``.

Pins down the contract of the :class:`~repro.core.inference
.InferenceBackend` seam:

* the linear dictionary recovers GP-equivalent math on the affine/rescale
  ESVs and passes :func:`~repro.core.verification.check_formula` against
  ground truth — never a plausible wrong answer;
* ``hybrid`` finds exactly the ESV set pure GP finds, and its GP-tail
  report rows are byte-identical to the pure-GP run's;
* the formula memo is backend-tagged — cold/warm/switch runs never recall
  an entry written under a different ``formula_backend``;
* ``confidence`` survives report JSON, memo entries and the streaming
  service end to end.
"""

import asyncio
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DPReverser,
    FormulaMemo,
    GpConfig,
    INFERENCE_BACKENDS,
    LinearFormula,
    ReverserConfig,
    check_formula,
    dataset_key,
    get_backend,
)
from repro.core.inference import (
    LINEAR_ACCEPT_FITNESS,
    LinearBackend,
    _design_matrix,
    _term_value,
    sample_agreement,
)
from repro.core.response_analysis import InferredFormula, PairedDataset
from repro.cps import DataCollector
from repro.service import DiagnosticServer, ServiceConfig, stream_capture_async
from repro.tools import make_tool_for_car
from repro.vehicle import build_car, ground_truth_formulas

GP = GpConfig(seed=2, generations=8, population_size=100)


def collect(key):
    car = build_car(key)
    capture = DataCollector(make_tool_for_car(key, car)).collect()
    return car, capture


@pytest.fixture(scope="module")
def car_a():
    return collect("A")


@pytest.fixture(scope="module")
def car_e():
    return collect("E")


def reverse(capture, backend, **overrides):
    reverser = DPReverser(
        ReverserConfig(gp_config=GP, formula_backend=backend, **overrides)
    )
    return reverser.reverse_engineer(capture), reverser


# ----------------------------------------------------------------- unit level


class TestTermGrammar:
    def test_terms_evaluate(self):
        xs = (0x1234, 5.0)
        assert _term_value("1", xs) == 1.0
        assert _term_value("x0", xs) == float(0x1234)
        assert _term_value("x1", xs) == 5.0
        assert _term_value("x0>>8", xs) == float(0x12)
        assert _term_value("x0&255", xs) == float(0x34)
        assert _term_value("x0*x1", xs) == 0x1234 * 5.0
        assert _term_value("x0/x1", xs) == 0x1234 / 5.0

    def test_zero_divisor_is_nan_not_crash(self):
        assert math.isnan(_term_value("x0/x1", (7.0, 0.0)))

    def test_formula_payload_round_trip(self):
        formula = LinearFormula(("x0", "1"), (0.25, -40.0), arity=1)
        clone = LinearFormula.from_payload(formula.to_payload())
        assert clone.terms == formula.terms
        assert clone.coefficients == formula.coefficients
        assert clone.describe() == formula.describe() == "Y = 0.25*X0 - 40"
        assert clone((100.0,)) == formula((100.0,)) == -15.0


class TestRegistry:
    def test_names_resolve(self):
        for name in INFERENCE_BACKENDS:
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown formula backend"):
            get_backend("neural")

    def test_top_level_exports(self):
        import repro

        assert repro.LinearBackend is LinearBackend
        assert repro.LinearFormula is LinearFormula
        assert repro.InferenceBackend is type(get_backend("gp")).__mro__[1]


class TestSampleAgreement:
    def test_perfect_fit_is_one(self):
        formula = LinearFormula(("x0",), (2.0,), arity=1)
        dataset = PairedDataset([(x,) for x in range(10)], [2.0 * x for x in range(10)])
        assert sample_agreement(formula, dataset) == 1.0

    def test_disagreement_counts(self):
        formula = LinearFormula(("x0",), (2.0,), arity=1)
        dataset = PairedDataset([(100.0,), (200.0,)], [200.0, 4000.0])
        assert sample_agreement(formula, dataset) == 0.5


# ----------------------------------------------------------- column terms


def reference_sample_agreement(formula, dataset):
    """Agreement counted row by row through the scalar formula call."""
    if not len(dataset):
        return 0.0
    wants = dataset.y_values
    spread = max(wants) - min(wants)
    agreeing = 0
    for xs, want in zip(dataset.x_rows, wants):
        try:
            got = formula(xs)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if math.isnan(got) or math.isinf(got):
            continue
        if abs(got - want) <= max(0.5, 0.05 * abs(want), 0.03 * spread):
            agreeing += 1
    return agreeing / len(dataset)


_TERMS = st.sampled_from(
    ["1", "x0", "x1", "x0*x1", "x0/x1", "x1/x0", "x0>>8", "x0>>4", "x0&255",
     "x0&15", "x1>>8", "x1&255", "x0/2", "3*x1"]
)
# Raw integers, zeros (divisors), values past 2**63 where an int64 cast
# would wrap, and arbitrary floats (negative and fractional included).
_RAW = st.one_of(
    st.integers(0, 0xFFFF),
    st.sampled_from([0, 2**53 + 2, 2**63, 2**63 + 4096, 2**64 - 1, 2**70]),
    st.floats(-1e6, 1e6, allow_nan=False),
).map(float)
_ROWS = st.lists(st.tuples(_RAW, _RAW), min_size=1, max_size=12)


def _bits(array):
    """Bit patterns, with every NaN as one pattern."""
    values = np.asarray(array, dtype=float)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64).tolist()


class TestColumnTerms:
    """The column forms of term evaluation equal the per-row
    ``_term_value`` loop bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(terms=st.lists(_TERMS, min_size=1, max_size=3), rows=_ROWS)
    def test_design_matrix_equals_row_loop(self, terms, rows):
        want = np.array([[_term_value(t, xs) for t in terms] for xs in rows], dtype=float)
        got = _design_matrix(tuple(terms), rows)
        if np.isfinite(want).all():
            assert _bits(got) == _bits(want)
        else:
            assert got is None

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(_TERMS, min_size=1, max_size=3),
        coefficients=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3),
        rows=_ROWS,
        ys=st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=12, max_size=12),
    )
    def test_sample_agreement_equals_row_loop(self, terms, coefficients, rows, ys):
        formula = LinearFormula(terms, coefficients[: len(terms)], arity=2)
        assert _bits(formula.evaluate_rows(rows)) == _bits([formula(xs) for xs in rows])
        dataset = PairedDataset(rows, ys[: len(rows)])
        assert sample_agreement(formula, dataset) == reference_sample_agreement(formula, dataset)

    def test_values_past_int64(self):
        rows = [(float(2**63), 1.0), (float(2**64 - 1), 2.0), (float(2**70), 3.0)]
        matrix = _design_matrix(("x0>>8", "x0&255"), rows)
        assert matrix[:, 0].tolist() == [float(int(x) >> 8) for x, __ in rows]
        assert matrix[:, 1].tolist() == [float(int(x) & 255) for x, __ in rows]


# ------------------------------------------------------------ linear vs truth


class TestLinearRecoversGroundTruth:
    def test_linear_formulas_are_exact_on_ground_truth(self, car_e):
        car, capture = car_e
        report, reverser = reverse(capture, "linear")
        truth = ground_truth_formulas(car)
        assert report.formula_esvs, "car E should expose formula ESVs"
        for esv in report.formula_esvs:
            assert esv.formula is not None, f"{esv.identifier} not solved"
            assert esv.formula.backend == "linear"
            assert esv.formula.fitness <= LINEAR_ACCEPT_FITNESS
            assert check_formula(esv.formula, truth[esv.identifier], esv.samples), (
                f"linear formula for {esv.identifier} disagrees with truth: "
                f"{esv.formula.description}"
            )
        assert reverser.inference_stats["linear.formulas"] == len(report.formula_esvs)

    def test_linear_matches_gp_on_easy_esvs(self, car_e):
        """Same math, even when the two backends picked different
        interpretations of the raw bytes (per-byte vs big-endian int) —
        each formula is fed its own encoding of the same raw value."""
        __, capture = car_e
        linear_report, __ = reverse(capture, "linear")
        gp_report, __ = reverse(capture, "gp")
        gp_by_id = {e.identifier: e for e in gp_report.formula_esvs}

        def recode(xs, from_interp, to_interp, width):
            if from_interp == to_interp:
                return xs
            if to_interp == "int":
                value = 0
                for byte in xs:
                    value = (value << 8) | int(byte)
                return (float(value),)
            value = int(xs[0])
            return tuple(
                float((value >> (8 * (width - 1 - i))) & 0xFF) for i in range(width)
            )

        for esv in linear_report.formula_esvs:
            gp_esv = gp_by_id[esv.identifier]
            if gp_esv.formula is None:
                continue
            width = len(gp_esv.samples[0]) if gp_esv.samples else 1
            for xs in esv.samples[:24]:
                got = esv.formula.formula(xs)
                gp_xs = recode(
                    xs,
                    esv.formula.interpretation,
                    gp_esv.formula.interpretation,
                    width,
                )
                via_gp = gp_esv.formula.formula(gp_xs)
                tolerance = max(0.5, 0.05 * abs(via_gp))
                assert abs(got - via_gp) <= tolerance, (
                    f"{esv.identifier}: linear {got} vs gp {via_gp} at {xs}"
                )


# ------------------------------------------------------------- hybrid == gp


@pytest.mark.slow
class TestHybridMatchesGp:
    def test_identical_esv_set_and_gp_tail_rows(self, car_a):
        car, capture = car_a
        gp_report, __ = reverse(capture, "gp")
        hybrid_report, reverser = reverse(capture, "hybrid")
        truth = ground_truth_formulas(car)

        gp_rows = {row["identifier"]: row for row in gp_report.to_dict()["esvs"]}
        gp_found = {
            e.identifier for e in gp_report.formula_esvs if e.formula is not None
        }
        hybrid_found = {
            e.identifier for e in hybrid_report.formula_esvs if e.formula is not None
        }
        assert hybrid_found == gp_found

        n_linear = n_fallback = 0
        for esv, row in zip(hybrid_report.esvs, hybrid_report.to_dict()["esvs"]):
            if esv.is_enum or esv.formula is None:
                continue
            if esv.formula.backend == "gp":
                # The GP tail: the row (formula, fitness, samples...) must
                # be byte-identical to what pure GP produced.
                n_fallback += 1
                assert row == gp_rows[esv.identifier]
            else:
                n_linear += 1
                assert row["backend"] == "linear"
                assert 0.0 <= row["confidence"] <= 1.0
                assert check_formula(esv.formula, truth[esv.identifier], esv.samples)
        assert n_linear > 0, "expected linear coverage on car A"
        assert n_fallback > 0, "expected a GP tail on car A"
        assert reverser.inference_stats["hybrid.fallbacks"] == n_fallback
        assert reverser.inference_stats["linear.formulas"] == n_linear

    def test_pure_gp_report_shape_is_unchanged(self, car_a):
        __, capture = car_a
        report, __ = reverse(capture, "gp")
        payload = report.to_dict()
        assert "formula_backend" not in payload
        for row in payload["esvs"]:
            assert "backend" not in row
            assert "confidence" not in row

    def test_hybrid_report_declares_backend(self, car_a):
        __, capture = car_a
        report, __ = reverse(capture, "hybrid")
        assert report.to_dict()["formula_backend"] == "hybrid"


# --------------------------------------------------------- backend-tagged memo


class TestBackendTaggedMemo:
    def test_key_includes_backend(self, car_e):
        __, capture = car_e
        reverser = DPReverser(ReverserConfig(gp_config=GP))
        context = reverser.analyze(capture)
        match = context.matches[0]
        observations = context.grouped[match.identifier]
        series = context.series[match.label]
        keys = {
            backend: dataset_key(observations, series, GP, backend=backend)
            for backend in INFERENCE_BACKENDS
        }
        assert len(set(keys.values())) == len(INFERENCE_BACKENDS)

    def test_cold_warm_switch_matrix_never_crosses_backends(self, car_e, tmp_path):
        __, capture = car_e
        memo_dir = str(tmp_path / "memo")
        reports = {}
        # Cold then warm per backend, interleaved so a cross-backend
        # recall would have plenty of foreign entries to (wrongly) hit.
        for phase in ("cold", "warm"):
            for backend in INFERENCE_BACKENDS:
                report, reverser = reverse(capture, backend, gp_memo_dir=memo_dir)
                n = len(report.formula_esvs)
                if phase == "cold":
                    reports[backend] = report.to_json()
                    assert reverser.memo_stats["hits"] == 0
                    assert reverser.memo_stats[f"{backend}.misses"] == n
                else:
                    assert report.to_json() == reports[backend], (
                        f"warm {backend} run diverged from its cold run"
                    )
                    assert reverser.memo_stats["misses"] == 0
                    assert reverser.memo_stats[f"{backend}.hits"] == n

    def test_memo_entry_round_trips_confidence(self, tmp_path):
        memo = FormulaMemo(tmp_path)
        inferred = InferredFormula(
            formula=LinearFormula(("x0", "1"), (0.25, -40.0), arity=1),
            description="Y = 0.25*X0 - 40",
            fitness=0.001,
            interpretation="int",
            n_samples=32,
            generations=0,
            backend="linear",
            confidence=0.9375,
        )
        memo.put("ab" * 32, inferred)
        hit, recalled = memo.get("ab" * 32)
        assert hit
        assert isinstance(recalled.formula, LinearFormula)
        assert recalled.backend == "linear"
        assert recalled.confidence == 0.9375
        assert recalled.description == inferred.description
        assert recalled.formula((100.0,)) == -15.0


# ------------------------------------------------------- confidence round trip


class TestConfidenceRoundTrip:
    def test_report_json_round_trip(self, car_e):
        __, capture = car_e
        report, __ = reverse(capture, "linear")
        payload = json.loads(report.to_json())
        assert payload["formula_backend"] == "linear"
        rows = [r for r in payload["esvs"] if "confidence" in r]
        assert rows, "expected linear rows carrying confidence"
        for row in rows:
            assert row["backend"] == "linear"
            assert 0.0 <= row["confidence"] <= 1.0
            assert row["confidence"] == round(row["confidence"], 4)

    def test_streaming_service_carries_confidence(self, car_e):
        __, capture = car_e

        async def run():
            config = ServiceConfig(gp_config=GP, formula_backend="hybrid")
            async with DiagnosticServer(config) as server:
                result = await stream_capture_async(
                    "127.0.0.1", server.port, capture, transport="auto"
                )
                return server, result

        server, result = asyncio.run(run())
        assert result.report["formula_backend"] == "hybrid"
        rows = [r for r in result.report["esvs"] if "confidence" in r]
        assert rows, "expected linear-solved rows in the streamed report"
        assert server.inference_stats["linear.formulas"] >= len(rows)
        counters = server.snapshot()["counters"]
        assert counters["inference.linear.formulas"] >= len(rows)
