"""Tests for response analysis: pairing, Tab. 2 scaling, GP inference."""

import pytest

from repro.core.response_analysis import (
    PairedDataset,
    build_dataset,
    infer_formula,
    prescale,
    table2_factor,
)
from repro.core.gp import GpConfig

from . import frontend_reference as ref


def make_obs(identifier, raws, dt=0.5, protocol="uds"):
    observations = [
        ref.EsvObservation(
            protocol,
            identifier,
            bytes(raw) if isinstance(raw, tuple) else bytes([raw]),
            i * dt,
        )
        for i, raw in enumerate(raws)
    ]
    return ref.observation_columns(observations)[identifier]


def make_series(label, values, dt=0.5):
    return ref.make_series(label, [(i * dt, f"{v}", float(v)) for i, v in enumerate(values)])


class TestTable2Factor:
    @pytest.mark.parametrize(
        "magnitude,expected",
        [
            (5e4, 1e-4),
            (5e3, 1e-3),
            (500, 1e-2),
            (50, 1e-1),
            (5, 1.0),
            (0.5, 10.0),
            (0.05, 1e2),
            (0.005, 1e3),
            (0.0005, 1e4),
        ],
    )
    def test_y_factors_follow_table2(self, magnitude, expected):
        assert table2_factor(magnitude, allow_enlarge=True) == expected

    def test_x_never_enlarged(self):
        """X values are raw integers >= 1 — the paper only reduces them."""
        assert table2_factor(0.5, allow_enlarge=False) == 1.0
        assert table2_factor(500, allow_enlarge=False) == 1e-2


class TestPrescale:
    def test_values_land_near_unit_range(self):
        dataset = PairedDataset([(2000.0,), (3000.0,), (4000.0,)], [0.002, 0.003, 0.004])
        scaled = prescale(dataset)
        assert all(1.0 <= x[0] < 10.0 for x in scaled.x.tolist())
        assert all(1.0 <= y < 10.0 for y in scaled.y.tolist())
        assert scaled.x_factors == (1e-3,)
        assert scaled.y_factor == 1e3


class TestBuildDataset:
    def test_pairs_by_nearest_time(self):
        observations = make_obs("uds:F400", [10, 20, 30])
        series = make_series("X", [100, 200, 300])
        dataset = build_dataset(observations, series)
        assert dataset.x.tolist() == [[10.0], [20.0], [30.0]]
        assert dataset.y.tolist() == [100.0, 200.0, 300.0]

    def test_observation_without_nearby_frame_skipped(self):
        observations = make_obs("uds:F400", [10, 20, 30, 40, 50, 60], dt=0.5)
        # Frames stop at t=1.5; later observations have no frame within the
        # adaptive gap (0.6 * frame spacing) and must be dropped rather
        # than mispaired with the last frame.
        series = make_series("X", [100, 200, 300, 400], dt=0.5)
        dataset = build_dataset(observations, series)
        assert len(dataset) == 4

    def test_kwp_uses_two_variables(self):
        observations = make_obs("kwp:01/0", [(10, 20), (30, 40)], protocol="kwp")
        series = make_series("X", [1, 2])
        dataset = build_dataset(observations, series)
        assert dataset.x[0].tolist() == [10.0, 20.0]

    def test_bytes_interpretation(self):
        observations = make_obs("uds:F400", [(1, 244), (2, 200)])
        series = make_series("X", [1, 2])
        as_int = build_dataset(observations, series, "int")
        per_byte = build_dataset(observations, series, "bytes")
        assert as_int.x[0].tolist() == [500.0]
        assert per_byte.x[0].tolist() == [1.0, 244.0]


class TestInference:
    def test_affine_formula_recovered(self):
        raws = [20, 60, 100, 140, 180, 220, 40, 80, 120, 160]
        observations = make_obs("uds:F400", raws)
        series = make_series("Temp", [0.75 * r - 48 for r in raws])
        inferred = infer_formula(observations, series, GpConfig(seed=1))
        for raw in raws:
            assert inferred((raw,)) == pytest.approx(0.75 * raw - 48, abs=0.5)

    def test_restart_span_records_generations_run(self):
        """A run that reaches the fitness threshold stops before the
        generation budget, and its ``gp_restart`` span says so."""
        from repro.observability.trace import Tracer, activated

        raws = [20, 60, 100, 140, 180, 220, 40, 80, 120, 160]
        observations = make_obs("uds:F400", raws)
        series = make_series("Temp", [0.75 * r - 48 for r in raws])
        config = GpConfig(seed=1)
        tracer = Tracer()
        with activated(tracer):
            inferred = infer_formula(observations, series, config)
        restarts = tracer.by_name()["gp_restart"]
        assert restarts
        ran = [span.attrs["generations"] for span in restarts]
        assert all(generations < config.generations for generations in ran)
        assert inferred.generations in ran

    def test_kwp_product_recovered(self):
        pairs = [
            (40, 20), (40, 60), (40, 120), (40, 200), (40, 240),
            (40, 90), (40, 150), (40, 30), (40, 180), (40, 250),
        ]
        observations = make_obs("kwp:01/0", pairs, protocol="kwp")
        series = make_series("RPM", [0.2 * a * b for a, b in pairs])
        inferred = infer_formula(observations, series, GpConfig(seed=1))
        for a, b in pairs:
            assert inferred((a, b)) == pytest.approx(0.2 * a * b, rel=0.02, abs=1.0)

    def test_two_byte_value_as_integer(self):
        raws = [(h, l) for h, l in [(1, 0), (2, 50), (3, 100), (5, 200), (8, 30), (11, 99), (14, 220), (9, 12)]]
        observations = make_obs("uds:F400", raws)
        series = make_series("RPM", [0.25 * (256 * h + l) for h, l in raws])
        inferred = infer_formula(observations, series, GpConfig(seed=1))
        assert inferred.interpretation in ("int", "bytes")
        for h, l in raws:
            xs = (256 * h + l,) if inferred.interpretation == "int" else (h, l)
            assert inferred(xs) == pytest.approx(0.25 * (256 * h + l), rel=0.02, abs=1.0)

    def test_too_few_samples_returns_none(self):
        observations = make_obs("uds:F400", [1, 2])
        series = make_series("X", [1, 2])
        assert infer_formula(observations, series, GpConfig(seed=1)) is None

    def test_outlier_in_ui_values_tolerated(self):
        """GP robustness (§4.4): one OCR-corrupted Y must not break the fit."""
        raws = [20, 40, 60, 80, 100, 120, 140, 160, 180, 200, 220, 240]
        ys = [2.0 * r for r in raws]
        ys[5] = ys[5] * 10  # decimal-point-drop style corruption
        observations = make_obs("uds:F400", raws)
        series = make_series("Pressure", ys)
        inferred = infer_formula(observations, series, GpConfig(seed=1))
        clean = [r for i, r in enumerate(raws) if i != 5]
        for raw in clean:
            assert inferred((raw,)) == pytest.approx(2.0 * raw, rel=0.05, abs=1.0)
