"""Cross-cutting property-based tests on pipeline invariants."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fields import extract_fields
from repro.core.assembly import AssembledMessage, MessageTable
from repro.core.response_analysis import PairedDataset, prescale, table2_factor
from repro.core.screenshot import outlier_mask, range_mask
from repro.diagnostics import uds

from .frontend_reference import make_series


class TestTable2Properties:
    @settings(max_examples=100, deadline=None)
    @given(magnitude=st.floats(1e-4, 1e5))
    def test_factor_brings_value_near_unit_range(self, magnitude):
        # Tab. 2's extreme rows scale by at most 10^±4, so the guarantee
        # holds for magnitudes in [10^-4, 10^5]; outside, the table
        # saturates — a limit inherent to the paper's design.
        factor = table2_factor(magnitude, allow_enlarge=True)
        scaled = magnitude * factor
        assert 0.1 <= scaled <= 10.0 or math.isclose(scaled, 10.0)

    @settings(max_examples=100, deadline=None)
    @given(magnitude=st.floats(1e-6, 1e6))
    def test_x_factor_never_exceeds_one(self, magnitude):
        assert table2_factor(magnitude, allow_enlarge=False) <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        xs=st.lists(st.floats(1, 60000), min_size=4, max_size=40),
        ys=st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=40),
    )
    def test_prescale_is_invertible(self, xs, ys):
        n = min(len(xs), len(ys))
        dataset = PairedDataset([(x,) for x in xs[:n]], ys[:n])
        scaled = prescale(dataset)
        for (raw,), (scaled_x,) in zip(dataset.x_rows, scaled.x_rows):
            assert scaled_x == pytest.approx(raw * scaled.x_factors[0])
        for raw, scaled_y in zip(dataset.y_values, scaled.y_values):
            assert scaled_y == pytest.approx(raw * scaled.y_factor)


class TestFilterProperties:
    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60))
    def test_filters_never_invent_samples(self, values):
        series = make_series("X", [(i * 0.5, str(v), v) for i, v in enumerate(values)])
        kept_range = series.take(range_mask(series.values, series.numeric))
        kept = kept_range.take(outlier_mask(kept_range.values, kept_range.numeric))
        assert len(kept) <= len(series)
        assert set(kept.times.tolist()) <= set(series.times.tolist())
        assert all(values[int(t * 2)] == v for t, v in zip(kept.times, kept.values))

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(-1e4, 1e4), min_size=5, max_size=60))
    def test_outlier_filter_idempotent(self, values):
        series = make_series("X", [(i * 0.5, str(v), v) for i, v in enumerate(values)])
        once = series.take(outlier_mask(series.values, series.numeric))
        twice = once.take(outlier_mask(once.values, once.numeric))
        # A second pass may trim newly exposed single spikes but never grows.
        assert len(twice) <= len(once)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(0, 100), min_size=6, max_size=40),
        lo=st.floats(-10, 0),
        hi=st.floats(100, 200),
    )
    def test_range_filter_keeps_in_range(self, values, lo, hi):
        series = make_series("X", [(i * 0.5, str(v), v) for i, v in enumerate(values)])
        assert range_mask(series.values, series.numeric, (lo, hi)).all()


class TestFieldExtractionProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        dids=st.lists(
            st.integers(0x0100, 0xF5FF), min_size=1, max_size=4, unique=True
        ),
        widths=st.lists(st.integers(1, 3), min_size=4, max_size=4),
        data=st.data(),
    )
    def test_multi_did_roundtrip_through_extraction(self, dids, widths, data):
        # Build a synthetic request/response pair and re-extract the values.
        values = []
        for index, did in enumerate(dids):
            width = widths[index % len(widths)]
            raw = data.draw(st.integers(0, (1 << (8 * width)) - 1))
            values.append(raw.to_bytes(width, "big"))
        # DID markers inside value bytes can legitimately confuse the
        # delimiting (the paper's approach shares this ambiguity); skip
        # colliding cases.
        blob = b"".join(
            did.to_bytes(2, "big") + value for did, value in zip(dids, values)
        )
        for index, did in enumerate(dids):
            marker = did.to_bytes(2, "big")
            first = blob.find(marker)
            assume(blob.find(marker, first + 1) == -1)

        request = uds.encode_read_data_by_identifier(dids)
        response = bytes([0x62]) + blob
        messages = MessageTable.from_messages(
            [
                AssembledMessage(request, 0x7E0, 1.0, 1.0, 1),
                AssembledMessage(response, 0x7E8, 1.1, 1.1, 1),
            ]
        )
        fields = extract_fields(messages)
        got = {key: column.raw_bytes() for key, column in fields.by_identifier().items()}
        expected = {
            f"uds:{did:04X}": [value] for did, value in zip(dids, values)
        }
        assert got == expected


class TestUiSeriesProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        numeric=st.lists(st.floats(0, 1e3), min_size=0, max_size=20),
        textual=st.lists(st.sampled_from(["On", "Off", "Auto"]), min_size=0, max_size=20),
    )
    def test_is_numeric_classification(self, numeric, textual):
        readings = [(i * 0.5, str(v), float(v)) for i, v in enumerate(numeric)]
        readings += [((len(numeric) + i) * 0.5, t, None) for i, t in enumerate(textual)]
        series = make_series("X", readings)
        if len(numeric) >= max(3, len(readings) // 2):
            assert series.is_numeric
        if not numeric:
            assert not series.is_numeric
