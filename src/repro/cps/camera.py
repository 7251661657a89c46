"""Virtual cameras.

Two cameras observe the diagnostic tool (Fig. 6): *camera a* feeds live
screenshots to the UI analyzer that steers the robotic clicker, and
*camera b* records a timestamped video of the UI for offline reverse
engineering.

A captured frame is an abstract image: a list of :class:`TextRegion`
rectangles, each holding the pixel-perfect text the screen showed.  Reading
errors are *not* introduced here — they belong to the OCR stage
(:mod:`repro.cps.ocr`), exactly as in the real system where the camera is
faithful and Tesseract is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..simtime import SkewedClock
from ..tools.ui import Screen, WidgetKind


@dataclass(frozen=True)
class TextRegion:
    """One detected text area of a screenshot (the EAST detector's output)."""

    text: str
    x: int
    y: int
    width: int
    height: int
    kind: str  # "label" | "value" | "button" | "icon_button"
    icon: str = ""

    @property
    def center(self):
        return (self.x + self.width // 2, self.y + self.height // 2)


@dataclass
class CapturedFrame:
    """One screenshot: regions + the camera-local capture timestamp."""

    timestamp: float
    screen_name: str
    regions: List[TextRegion]

    def texts(self) -> List[str]:
        return [region.text for region in self.regions]


class Camera:
    """Renders the tool's current screen into a :class:`CapturedFrame`."""

    def __init__(self, clock, name: str = "camera") -> None:
        # Accepts a SimClock or a SkewedClock (device-local timestamps).
        self.clock = clock
        self.name = name

    def _now(self) -> float:
        if isinstance(self.clock, SkewedClock):
            return self.clock.read()
        return self.clock.now()

    def capture(self, screen: Screen) -> CapturedFrame:
        regions = [
            TextRegion(
                text=widget.text,
                x=widget.x,
                y=widget.y,
                width=widget.width,
                height=widget.height,
                kind=widget.kind.value,
                icon=widget.icon,
            )
            for widget in screen.widgets
            if widget.text or widget.kind == WidgetKind.ICON_BUTTON
        ]
        return CapturedFrame(self._now(), screen.name, regions)


class VideoRecorder:
    """Camera *b*: accumulates timestamped frames of the tool UI.

    Mirrors the "Timestamp Camera Free" app of §3.1 — every frame carries
    the recorder's local timestamp so the pipeline can align UI text with
    CAN traffic.
    """

    def __init__(self, clock, name: str = "camera-b") -> None:
        self.camera = Camera(clock, name)
        self.frames: List[CapturedFrame] = []

    def record(self, screen: Screen) -> CapturedFrame:
        frame = self.camera.capture(screen)
        self.frames.append(frame)
        return frame

    def __len__(self) -> int:
        return len(self.frames)
