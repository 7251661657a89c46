"""Data-collection orchestrator (the application layer of Fig. 6b).

Given a diagnostic tool attached to a vehicle, :class:`DataCollector` runs
the paper's full closed loop:

1. *camera a* screenshots the UI → OCR → :class:`UIAnalyzer` classifies the
   screen and proposes click targets;
2. the :class:`ClickPlanner` orders the targets (nearest-neighbour TSP);
3. the :class:`ScriptGenerator` emits a click/wait script which the
   :class:`RoboticClicker` executes, logging every tap;
4. while data streams, *camera b* records the timestamped UI video and the
   OBD sniffer captures every CAN frame.

The result is a :class:`Capture` — the sole input of the DP-Reverser
pipeline (plus the click log used to split it into per-action segments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..can import CanLog
from ..simtime import SkewedClock
from ..tools.diagtool import DiagnosticTool
from .arm import ClickRecord, RoboticClicker, ScriptGenerator
from .camera import Camera, CapturedFrame, VideoRecorder
from .ocr import OcrEngine
from .planner import ClickPlanner
from .uianalyzer import UIAnalyzer, UiAnalysis


@dataclass
class Segment:
    """One logged activity window within a capture."""

    kind: str  # "live" | "active_test"
    ecu: str
    label: str
    t_start: float
    t_end: float


@dataclass
class Capture:
    """Everything one collection campaign produced."""

    model: str
    tool_name: str
    can_log: CanLog
    video: List[CapturedFrame]
    clicks: List[ClickRecord]
    segments: List[Segment]
    tool_error_rate: float
    camera_offset_s: float = 0.0  # camera-vs-sniffer clock offset, if any

    def video_between(self, start: float, end: float) -> List[CapturedFrame]:
        return [f for f in self.video if start <= f.timestamp < end]


class DataCollector:
    """Runs one full collection campaign against one vehicle."""

    def __init__(
        self,
        tool: DiagnosticTool,
        read_duration_s: float = 30.0,
        camera_offset_s: float = 0.0,
        ocr_seed: int = 11,
        analyzer: Optional[UIAnalyzer] = None,
        obd_anchor_rounds: int = 10,
    ) -> None:
        self.tool = tool
        self.vehicle = tool.vehicle
        self.clock = tool.clock
        self.read_duration_s = read_duration_s
        self.sniffer = self.vehicle.attach_sniffer()
        self.camera_a = Camera(self.clock, "camera-a")
        # camera b may run on a device whose clock is offset (§9.4).
        camera_clock = (
            SkewedClock(self.clock, offset=camera_offset_s)
            if camera_offset_s
            else self.clock
        )
        self.camera_offset_s = camera_offset_s
        self.video = VideoRecorder(camera_clock)
        self.ocr = OcrEngine(tool.profile.ocr_error_rate, seed=ocr_seed)
        self.arm = RoboticClicker(self.clock)
        self.planner = ClickPlanner()
        self.scriptgen = ScriptGenerator(click_wait_s=0.5, read_wait_s=read_duration_s)
        self.analyzer = analyzer or UIAnalyzer()
        self.obd_anchor_rounds = obd_anchor_rounds
        self.segments: List[Segment] = []

    # ----------------------------------------------------------------- camera

    def _look(self) -> UiAnalysis:
        """Screenshot with camera a, OCR it, classify the regions."""
        frame = self.camera_a.capture(self.tool.screen)
        return self.analyzer.analyze(self.ocr.read_frame(frame))

    def _click_region(self, region, label: str = "") -> bool:
        x, y = region.center
        return self.arm.click(x, y, self.tool.tap, label or region.text)

    # ------------------------------------------------------------------- main

    def collect(self) -> Capture:
        """Drive the whole tool menu tree and return the capture."""
        self._run_obd_anchor()
        home = self._look()
        ecu_names = [region.text for region in home.plain_buttons]
        for ecu_label in ecu_names:
            self._visit_ecu(ecu_label)
        return Capture(
            model=self.vehicle.model,
            tool_name=self.tool.profile.name,
            can_log=self.sniffer.log,
            video=self.video.frames,
            clicks=self.arm.log,
            segments=self.segments,
            tool_error_rate=self.tool.profile.ocr_error_rate,
            camera_offset_s=self.camera_offset_s,
        )

    # ------------------------------------------------------------- OBD anchor

    def _run_obd_anchor(self) -> None:
        """§9.4 method (2): read well-documented OBD-II PIDs first.

        Their public formulas let the offline pipeline compute each
        response's true value, find it on a screenshot, and estimate the
        camera-vs-sniffer clock offset for the whole capture.
        """
        if not self.obd_anchor_rounds or not self.tool.obd_supported():
            return
        t_start = self.clock.now()
        snap_delay = 0.3 * self.tool.profile.poll_interval_s
        for __ in range(self.obd_anchor_rounds):
            self.tool.obd_anchor_tick()
            self.clock.advance(snap_delay)
            self.tool.flush_display()
            self.video.record(self.tool.screen)
            self.clock.advance(self.tool.profile.poll_interval_s - snap_delay)
        self.segments.append(
            Segment("obd_anchor", "OBD-II", "Quick Check", t_start, self.clock.now())
        )
        back = self.tool.screen.find("Back")
        if back is not None:
            self.arm.click(*back.center, self.tool.tap, "Back")

    # -------------------------------------------------------------- ECU visit

    def _visit_ecu(self, ecu_label: str) -> None:
        home = self._look()
        target = next(
            (r for r in home.plain_buttons if r.text == ecu_label), None
        )
        if target is None:
            return
        self._click_region(target)
        menu = self._look()
        if "Read Data Stream" in menu.function_buttons:
            self._click_region(menu.function_buttons["Read Data Stream"])
            self._run_datastream(ecu_label)
        menu = self._look()
        if "Active Test" in menu.function_buttons:
            self._click_region(menu.function_buttons["Active Test"])
            self._run_active_tests(ecu_label)
        menu = self._look()
        if "Back" in menu.nav_buttons:
            self._click_region(menu.nav_buttons["Back"])

    # ------------------------------------------------------------ data stream

    def _run_datastream(self, ecu_label: str) -> None:
        """Select every ESV row (TSP-ordered clicks), then record live data."""
        pages_visited = 0
        while True:
            analysis = self._look()
            rows = self.analyzer.unchecked_rows(analysis)
            targets = [((r.center), r) for r in rows]
            for __, region in self.planner.plan(targets):
                self._click_region(region, self.analyzer.row_label(region))
            pages_visited += 1
            analysis = self._look()
            if pages_visited < analysis.pages and "Next Page" in analysis.nav_buttons:
                self._click_region(analysis.nav_buttons["Next Page"])
                continue
            break
        analysis = self._look()
        start_button = analysis.nav_buttons.get("Start")
        if start_button is None:
            return
        self._click_region(start_button)
        t_start = self.clock.now()
        # Live: keep the tool polling and camera b rolling for the read
        # window.  The frame is recorded right after each poll so its
        # timestamp matches the responses it displays; the poll interval is
        # the tool's refresh rate.
        snap_delay = 0.3 * self.tool.profile.poll_interval_s
        while self.clock.now() - t_start < self.read_duration_s:
            self.tool.tick()
            # The camera snaps shortly after the poll (so each frame is
            # nearest its own tick); values still inside the tool's
            # rendering pipeline at that moment show their previous
            # reading — the paper's display-lag noise (§4.3 cause (i)).
            self.clock.advance(snap_delay)
            self.tool.flush_display()
            self.video.record(self.tool.screen)
            self.clock.advance(self.tool.profile.poll_interval_s - snap_delay)
        self.segments.append(
            Segment("live", ecu_label, "Read Data Stream", t_start, self.clock.now())
        )
        analysis = self._look()
        if "Back" in analysis.nav_buttons:
            self._click_region(analysis.nav_buttons["Back"])

    # ------------------------------------------------------------ active test

    def _run_active_tests(self, ecu_label: str) -> None:
        """Run every actuator test, re-analyzing after each (layout shifts)."""
        tested: set = set()
        while True:
            analysis = self._look()
            self.video.record(self.tool.screen)
            candidates = [
                r
                for r in analysis.plain_buttons
                if r.text not in tested and not r.text.startswith("Last test:")
            ]
            if not candidates:
                break
            ordered = self.planner.plan([(r.center, r) for r in candidates])
            __, region = ordered[0]
            tested.add(region.text)
            t_start = self.clock.now()
            self._click_region(region)
            self.video.record(self.tool.screen)
            self.segments.append(
                Segment("active_test", ecu_label, region.text, t_start, self.clock.now())
            )
            self.clock.advance(0.5)
        analysis = self._look()
        if "Back" in analysis.nav_buttons:
            self._click_region(analysis.nav_buttons["Back"])
