"""Tests for message/screenshot time alignment (§9.4)."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alignment import (
    estimate_offset_via_obd,
    obd_ground_truth_values,
    shift_series,
)
from repro.core.fields import ObservationTable

from .frontend_reference import (
    EsvObservation,
    SampleSeries,
    UiSample,
    make_series,
    observation_columns,
    series_columns,
)


def obd_observation(pid, data, t):
    return EsvObservation("obd2", f"obd2:{pid:02X}", data, t)


def table(observations):
    return ObservationTable(observation_columns(observations))


class TestGroundTruth:
    def test_metric_and_imperial_candidates(self):
        values = obd_ground_truth_values("obd2:0D", b"\x64")  # 100 km/h
        assert 100.0 in values
        assert any(abs(v - 62.14) < 0.01 for v in values)

    def test_non_obd_rejected(self):
        with pytest.raises(ValueError):
            obd_ground_truth_values("uds:F400", b"\x01")

    def test_unknown_pid_empty(self):
        assert obd_ground_truth_values("obd2:EE", b"\x01") == []


class TestOffsetEstimation:
    def make_ui(self, values_at):
        readings = [(t, f"{v}", float(v)) for t, v in values_at]
        return {"Vehicle Speed": make_series("Vehicle Speed", readings)}

    def test_recovers_constant_offset(self):
        observations = [
            obd_observation(0x0D, bytes([speed]), t)
            for t, speed in [(1.0, 50), (2.0, 60), (3.0, 70)]
        ]
        # Camera clock runs 2.5 s ahead of the sniffer clock.
        ui = self.make_ui([(3.5, 50), (4.5, 60), (5.5, 70)])
        offset = estimate_offset_via_obd(table(observations), ui)
        assert offset == pytest.approx(2.5, abs=0.01)

    def test_no_anchor_returns_none(self):
        observations = [
            EsvObservation("uds", "uds:F400", b"\x01", 1.0)
        ]
        assert estimate_offset_via_obd(table(observations), self.make_ui([(1.0, 99)])) is None

    def test_no_matching_value_returns_none(self):
        observations = [obd_observation(0x0D, b"\x64", 1.0)]
        ui = self.make_ui([(1.2, 250)])  # 250 matches neither 100 nor 62.1
        assert estimate_offset_via_obd(table(observations), ui) is None


def reference_offset(observations, ui_series, value_tolerance=0.02, max_offset_s=30.0):
    """The anchor search as a scan over every numeric sample."""
    samples = [s for series in ui_series.values() for s in series.samples if s.value is not None]
    offsets = []
    for observation in observations:
        if observation.protocol != "obd2":
            continue
        for truth in obd_ground_truth_values(observation.identifier, observation.raw_bytes):
            tolerance = max(0.51, abs(truth) * value_tolerance)
            candidates = [
                s
                for s in samples
                if abs(s.value - truth) <= tolerance
                and abs(s.timestamp - observation.timestamp) <= max_offset_s
            ]
            if candidates:
                best = min(candidates, key=lambda s: abs(s.timestamp - observation.timestamp))
                offsets.append(best.timestamp - observation.timestamp)
    return statistics.median(offsets) if offsets else None


@st.composite
def anchor_inputs(draw):
    # Coarse grids make equal distances (ties) and repeated values common;
    # two labels put samples out of time order across series.
    observations = [
        obd_observation(draw(st.sampled_from([0x0C, 0x0D, 0x05])), bytes([v, w]), t * 0.5)
        for v, w, t in draw(
            st.lists(st.tuples(st.integers(0, 120), st.integers(0, 255), st.integers(0, 80)),
                     max_size=6)
        )
    ]
    ui = {}
    for label in ("Vehicle Speed", "Coolant"):
        points = draw(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 160)), max_size=12))
        ui[label] = SampleSeries(
            label, [UiSample(t * 0.5, f"{v}", float(v)) for t, v in sorted(points)]
        )
    return observations, ui


class TestOffsetAgainstScan:
    @settings(max_examples=200, deadline=None)
    @given(inputs=anchor_inputs())
    def test_equals_per_sample_scan(self, inputs):
        observations, ui = inputs
        columns = {label: series_columns(series) for label, series in ui.items()}
        offset = estimate_offset_via_obd(table(observations), columns)
        assert offset == reference_offset(observations, ui)


class TestShift:
    def test_shift_series(self):
        ui = {"X": make_series("X", [(10.0, "1", 1.0)])}
        shifted = shift_series(ui, 2.5)
        assert shifted["X"].times.tolist() == [7.5]
        assert ui["X"].times.tolist() == [10.0]
