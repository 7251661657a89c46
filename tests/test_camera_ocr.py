"""Tests for the virtual cameras and the OCR error model."""

from dataclasses import replace

import pytest

from repro.cps import Camera, OcrEngine, VideoRecorder
from repro.simtime import SimClock, SkewedClock
from repro.tools.ui import Screen, ScreenBuilder, Widget, WidgetKind


def make_screen():
    builder = ScreenBuilder("live", "Engine - Data Stream")
    builder.add_pair("Engine Speed", "771.2 rpm")
    builder.add_pair("Coolant Temperature", "25.00 degC")
    builder.add_row(WidgetKind.BUTTON, "Back")
    builder.add_row(WidgetKind.ICON_BUTTON, "", icon="home")
    return builder.screen


class TestCamera:
    def test_capture_preserves_text_and_geometry(self):
        camera = Camera(SimClock(5.0))
        frame = camera.capture(make_screen())
        texts = frame.texts()
        assert "Engine Speed" in texts and "771.2 rpm" in texts
        assert frame.timestamp == 5.0

    def test_icon_buttons_captured_without_text(self):
        frame = Camera(SimClock()).capture(make_screen())
        icons = [r for r in frame.regions if r.kind == "icon_button"]
        assert len(icons) == 1 and icons[0].icon == "home"

    def test_skewed_clock_offsets_timestamps(self):
        base = SimClock(10.0)
        camera = Camera(SkewedClock(base, offset=2.5))
        assert Camera(base).capture(make_screen()).timestamp == 10.0
        assert camera.capture(make_screen()).timestamp == 12.5

    def test_video_recorder_accumulates(self):
        clock = SimClock()
        recorder = VideoRecorder(clock)
        screen = make_screen()
        recorder.record(screen)
        clock.advance(0.5)
        recorder.record(screen)
        assert len(recorder) == 2
        assert recorder.frames[1].timestamp > recorder.frames[0].timestamp


class TestOcrEngine:
    def test_zero_error_rate_is_faithful(self):
        camera = Camera(SimClock())
        ocr = OcrEngine(error_rate=0.0)
        frame = ocr.read_frame(camera.capture(make_screen()))
        assert not frame.corrupted
        assert "771.2 rpm" in frame.texts()

    def test_full_error_rate_corrupts_every_frame(self):
        camera = Camera(SimClock())
        ocr = OcrEngine(error_rate=1.0, seed=3)
        corrupted = 0
        for __ in range(20):
            frame = ocr.read_frame(camera.capture(make_screen()))
            corrupted += frame.corrupted
        assert corrupted >= 18  # corruption may no-op when text unchanged

    def test_observed_precision_tracks_error_rate(self):
        camera = Camera(SimClock())
        ocr = OcrEngine(error_rate=0.15, seed=5)
        for __ in range(500):
            ocr.read_frame(camera.capture(make_screen()))
        assert ocr.observed_precision == pytest.approx(0.85, abs=0.05)

    def test_corruption_prefers_value_regions(self):
        camera = Camera(SimClock())
        ocr = OcrEngine(error_rate=1.0, seed=11)
        frame = ocr.read_frame(camera.capture(make_screen()))
        if frame.corrupted:
            original = {r.text for r in camera.capture(make_screen()).regions}
            changed = [r for r in frame.regions if r.text not in original]
            assert all(r.kind == "value" for r in changed)

    def test_regions_are_the_cameras_own_and_the_frame_is_never_changed(self):
        camera = Camera(SimClock())
        clean = camera.capture(make_screen())
        read = OcrEngine(error_rate=0.0).read_frame(clean)
        assert len(read.regions) == len(clean.regions)
        assert all(r is c for r, c in zip(read.regions, clean.regions))

        captured = camera.capture(make_screen())
        before = list(captured.regions)
        frame = OcrEngine(error_rate=1.0, seed=11).read_frame(captured)
        assert frame.corrupted
        assert len(captured.regions) == len(before)
        assert all(r is b for r, b in zip(captured.regions, before))
        (index,) = [i for i, (r, b) in enumerate(zip(frame.regions, before)) if r is not b]
        misread = frame.regions[index]
        assert misread.text != before[index].text
        assert misread == replace(before[index], text=misread.text)

    def test_invalid_error_rate_rejected(self):
        with pytest.raises(ValueError):
            OcrEngine(error_rate=1.5)

    def test_deterministic_given_seed(self):
        camera = Camera(SimClock())
        frames = [camera.capture(make_screen()) for __ in range(10)]
        a = [f.texts() for f in OcrEngine(0.5, seed=9).read_video(frames)]
        b = [f.texts() for f in OcrEngine(0.5, seed=9).read_video(frames)]
        assert a == b

    def test_decimal_drop_error_class_reachable(self):
        """The §3.3 example: "25.00" can become "2500"."""
        camera = Camera(SimClock())
        seen = set()
        for seed in range(60):
            ocr = OcrEngine(error_rate=1.0, seed=seed)
            frame = ocr.read_frame(camera.capture(make_screen()))
            seen.update(frame.texts())
        assert any("2500" in text.replace(" ", "") for text in seen)
