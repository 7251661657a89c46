"""Tests for screenshot analysis: text extraction + two-stage ESV filter."""

import pytest

from repro.core import DPReverser
from repro.core.screenshot import (
    extract_ui_series,
    filter_series,
    outlier_mask,
    pair_value_rows,
    parse_value,
    range_mask,
)
from repro.cps import Camera, DataCollector, OcrEngine, UIAnalyzer
from repro.simtime import SimClock
from repro.tools import make_tool_for_car
from repro.tools.ui import ScreenBuilder, Widget, WidgetKind
from repro.vehicle import build_car

from .frontend_reference import make_series


class TestParseValue:
    def test_plain_number(self):
        assert parse_value("771.2") == (771.2, "")

    def test_number_with_unit(self):
        assert parse_value("33 km/h") == (33.0, "km/h")

    def test_negative(self):
        assert parse_value("-12.5 degC") == (-12.5, "degC")

    def test_enum_text(self):
        assert parse_value("Open") == (None, "")

    def test_ocr_mangled_number(self):
        value, __ = parse_value("2500")  # decimal point dropped
        assert value == 2500.0


def live_frames(values, label="Engine Speed", dt=0.5, buttons=()):
    camera = Camera(SimClock())
    ocr = OcrEngine(error_rate=0.0)
    frames = []
    clock = camera.clock
    for value in values:
        builder = ScreenBuilder("live", "Engine - Data Stream")
        builder.add_pair(label, f"{value}")
        for text in buttons:
            builder.add_row(WidgetKind.BUTTON, text)
        frames.append(ocr.read_frame(camera.capture(builder.screen)))
        clock.advance(dt)
    return frames


def paired_texts(screen):
    frame = OcrEngine(error_rate=0.0).read_frame(Camera(SimClock()).capture(screen))
    return [(label.text, value.text) for label, value in pair_value_rows(frame)]


class TestValueRows:
    def test_value_rows_paired_by_geometry(self):
        builder = ScreenBuilder("live", "Engine - Data Stream")
        builder.add_pair("Engine Speed", "800 rpm")
        builder.add_pair("Coolant Temperature", "90.0 degC")
        assert dict(paired_texts(builder.screen)) == {
            "Engine Speed": "800 rpm",
            "Coolant Temperature": "90.0 degC",
        }

    def test_value_pairs_with_nearest_label_on_its_row(self):
        builder = ScreenBuilder("live", "Engine - Data Stream")
        name_widget, value_widget = builder.add_pair("Coolant Temperature", "90.0 degC")
        # A second label on the same row, horizontally nearer the value.
        builder.screen.add(
            Widget(WidgetKind.LABEL, "Sensor 2", x=value_widget.x + 250, y=name_widget.y)
        )
        assert paired_texts(builder.screen) == [("Sensor 2", "90.0 degC")]

    def test_keyword_buttons_leave_series_unchanged(self):
        """Pairing ignores buttons, including the clicker's keywords."""
        values = [800, 810, 820]
        buttons = ("Back", "Clear Trouble Codes")
        plain = extract_ui_series(live_frames(values))
        with_buttons = extract_ui_series(live_frames(values, buttons=buttons))
        assert with_buttons == plain
        assert with_buttons["Engine Speed"].values.tolist() == values


class TestWorkCount:
    def test_analyze_reads_each_video_frame_once(self, monkeypatch):
        """One OCR pass feeds both series, and no button is classified."""
        car = build_car("C")
        capture = DataCollector(make_tool_for_car("C", car), read_duration_s=8.0).collect()
        calls = {"read_frame": 0, "analyze": 0}

        def count(cls, name):
            original = getattr(cls, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(cls, name, counted)

        count(OcrEngine, "read_frame")
        count(UIAnalyzer, "analyze")
        context = DPReverser().analyze(capture)
        assert context.series_raw
        assert calls == {"read_frame": len(capture.video), "analyze": 0}


class TestSeriesExtraction:
    def test_series_built_per_label(self):
        frames = live_frames([800, 810, 820])
        series = extract_ui_series(frames)
        assert "Engine Speed" in series
        assert series["Engine Speed"].values.tolist() == [800, 810, 820]

    def test_timestamps_increase(self):
        frames = live_frames([1, 2, 3])
        times = extract_ui_series(frames)["Engine Speed"].times
        assert times[0] < times[-1]

    def test_rare_mangled_label_merged(self):
        good = live_frames([800] * 10, label="Engine Speed")
        bad = live_frames([805], label="Engine Sped")  # OCR dropped a char
        series = extract_ui_series(good + bad)
        assert "Engine Speed" in series
        assert len(series) == 1
        assert len(series["Engine Speed"]) == 11

    def test_distinct_similar_labels_not_merged(self):
        a = live_frames([1] * 10, label="Wheel Speed FL")
        b = live_frames([2] * 10, label="Wheel Speed FR")
        series = extract_ui_series(a + b)
        assert set(series) == {"Wheel Speed FL", "Wheel Speed FR"}

    def test_placeholder_values_skipped(self):
        frames = live_frames(["---", 800])
        series = extract_ui_series(frames)
        assert len(series["Engine Speed"]) == 1


class TestRangeFilter:
    def test_out_of_range_removed(self):
        series = make_series("X", [(0.0, "50", 50.0), (0.5, "999999", 999999.0)])
        keep = range_mask(series.values, series.numeric, bounds=(0, 1000))
        assert keep.tolist() == [True, False]
        assert series.take(keep).values.tolist() == [50.0]

    def test_enum_samples_kept(self):
        series = make_series("X", [(0.0, "Open", None)])
        assert range_mask(series.values, series.numeric, bounds=(0, 1)).tolist() == [True]


class TestOutlierFilter:
    def removed(self, values):
        series = make_series("X", [(i * 0.5, str(v), float(v)) for i, v in enumerate(values)])
        keep = outlier_mask(series.values, series.numeric)
        return [v for v, kept in zip(values, keep.tolist()) if not kept]

    def test_isolated_spike_removed(self):
        """OCR x10 error: 94 -> 940 for one frame."""
        assert self.removed([90, 92, 94, 940, 96, 98, 100]) == [940]

    def test_sawtooth_wrap_kept(self):
        """Legit wrap-arounds (odometer-style) must survive (§3.3 despike)."""
        values = [100, 200, 300, 400, 10, 110, 210, 310, 410, 20, 120]
        assert self.removed(values) == []

    def test_smooth_series_untouched(self):
        assert self.removed(list(range(0, 200, 10))) == []

    def test_short_series_untouched(self):
        assert self.removed([1, 1000, 1]) == []

    def test_partial_read_spike_removed(self):
        """OCR partial read: 251.3 -> 1.3 for one frame on a slow signal."""
        assert self.removed([250.1, 250.9, 251.3, 1.3, 252.0, 252.4, 253.0]) == [1.3]


class TestFilterSeries:
    def test_report_accounts_for_both_stages(self):
        series = make_series(
            "X",
            [
                (0.0, "10", 10.0),
                (0.5, "11", 11.0),
                (1.0, "12", 12.0),
                (1.5, "120", 120.0),  # spike
                (2.0, "13", 13.0),
                (2.5, "14", 14.0),
                (3.0, "1e7", 1e7),  # out of range
            ],
        )
        cleaned, report = filter_series(series, bounds=(0, 1000))
        assert report.removed_range == 1
        assert report.removed_outlier == 1
        assert report.kept == 5
        assert cleaned.values.tolist() == [10.0, 11.0, 12.0, 13.0, 14.0]
