"""Cyber-physical data-collection substrate: cameras, OCR, arm, planner."""

from .camera import Camera, CapturedFrame, TextRegion, VideoRecorder
from .ocr import CONFUSION_PAIRS, OcrEngine, OcrFrame
from .arm import (
    ClickRecord,
    ClickStatement,
    RoboticClicker,
    Script,
    ScriptGenerator,
    WaitStatement,
)
from .planner import (
    ClickPlanner,
    brute_force_route,
    manhattan,
    nearest_neighbour_route,
    random_route,
    route_length,
)
from .uianalyzer import (
    IGNORE_KEYWORDS,
    NAV_KEYWORDS,
    TARGET_KEYWORDS,
    UIAnalyzer,
    UiAnalysis,
    fuzzy_match,
    text_similarity,
)
from .collector import Capture, DataCollector, Segment

__all__ = [
    "Camera",
    "CapturedFrame",
    "TextRegion",
    "VideoRecorder",
    "CONFUSION_PAIRS",
    "OcrEngine",
    "OcrFrame",
    "ClickRecord",
    "ClickStatement",
    "RoboticClicker",
    "Script",
    "ScriptGenerator",
    "WaitStatement",
    "ClickPlanner",
    "brute_force_route",
    "manhattan",
    "nearest_neighbour_route",
    "random_route",
    "route_length",
    "IGNORE_KEYWORDS",
    "NAV_KEYWORDS",
    "TARGET_KEYWORDS",
    "UIAnalyzer",
    "UiAnalysis",
    "fuzzy_match",
    "text_similarity",
    "Capture",
    "DataCollector",
    "Segment",
]
