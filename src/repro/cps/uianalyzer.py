"""UI analyzer: decides what to click from OCR'd screenshots (§3.1).

The analyzer never touches the tool's internals — it works purely on the
:class:`~repro.cps.ocr.OcrFrame` produced from *camera a*'s screenshot:

* text regions are matched against target keywords ("Read Data Stream",
  "Active Test"), navigation keywords and an ignore list ("Clear Trouble
  Codes"...), with fuzzy matching to survive OCR character drops;
* textless buttons are matched against pre-defined icon templates by
  similarity (the paper's Canny-edge + template comparison), and only
  clicked above a threshold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import Dict, List, Optional, Tuple

from .camera import TextRegion
from .ocr import OcrFrame

TARGET_KEYWORDS = ("Read Data Stream", "Active Test")
NAV_KEYWORDS = ("Start", "Back", "Next Page")
IGNORE_KEYWORDS = (
    "Clear Trouble Codes",
    "Read Trouble Codes",
    "ECU Coding",
    "Special Functions",
)

_PAGE_PATTERN = re.compile(r"\((\d+)\s*/\s*(\d+)\)")


def text_similarity(a: str, b: str) -> float:
    """Normalised similarity in [0, 1] tolerant to OCR character noise."""
    return SequenceMatcher(None, a.lower(), b.lower()).ratio()


def fuzzy_match(text: str, keyword: str, threshold: float = 0.82) -> bool:
    return text_similarity(text, keyword) >= threshold


@dataclass
class UiAnalysis:
    """Classification of one screenshot's regions."""

    function_buttons: Dict[str, TextRegion] = field(default_factory=dict)
    nav_buttons: Dict[str, TextRegion] = field(default_factory=dict)
    selectable_rows: List[TextRegion] = field(default_factory=list)
    plain_buttons: List[TextRegion] = field(default_factory=list)
    icon_buttons: List[Tuple[TextRegion, str, float]] = field(default_factory=list)
    title: str = ""
    page: int = 1
    pages: int = 1


class UIAnalyzer:
    """Classifies OCR'd screenshots into clickable targets."""

    def __init__(
        self,
        icon_templates: Optional[Dict[str, str]] = None,
        icon_threshold: float = 0.8,
        keyword_threshold: float = 0.82,
    ) -> None:
        # template name -> semantic action label
        self.icon_templates = icon_templates or {}
        self.icon_threshold = icon_threshold
        self.keyword_threshold = keyword_threshold

    # ------------------------------------------------------------------ icons

    def icon_similarity(self, icon: str, template: str) -> float:
        """Similarity of a screen icon to a stored template picture.

        The real system compares cropped widget images ([86] in the paper);
        here identity of the icon asset is a perfect-match proxy, with name
        similarity standing in for near-matches.
        """
        if not icon or not template:
            return 0.0
        if icon == template:
            return 0.95
        return 0.5 * text_similarity(icon, template)

    # ---------------------------------------------------------------- analyze

    def analyze(self, frame: OcrFrame) -> UiAnalysis:
        analysis = UiAnalysis()
        labels = [r for r in frame.regions if r.kind == "label"]
        if labels:
            analysis.title = labels[0].text
            match = _PAGE_PATTERN.search(analysis.title)
            if match:
                analysis.page = int(match.group(1))
                analysis.pages = int(match.group(2))

        for region in frame.regions:
            if region.kind == "icon_button":
                best: Tuple[str, float] = ("", 0.0)
                for template, action in self.icon_templates.items():
                    score = self.icon_similarity(region.icon, template)
                    if score > best[1]:
                        best = (action, score)
                if best[1] >= self.icon_threshold:
                    analysis.icon_buttons.append((region, best[0], best[1]))
                continue
            if region.kind != "button":
                continue
            text = region.text.strip()
            if any(fuzzy_match(text, kw, self.keyword_threshold) for kw in IGNORE_KEYWORDS):
                continue
            matched_nav = next(
                (kw for kw in NAV_KEYWORDS if fuzzy_match(text, kw, self.keyword_threshold)),
                None,
            )
            if matched_nav:
                analysis.nav_buttons[matched_nav] = region
                continue
            matched_fn = next(
                (kw for kw in TARGET_KEYWORDS if fuzzy_match(text, kw, self.keyword_threshold)),
                None,
            )
            if matched_fn:
                analysis.function_buttons[matched_fn] = region
                continue
            if text.startswith("[ ]") or text.startswith("[x]"):
                analysis.selectable_rows.append(region)
                continue
            analysis.plain_buttons.append(region)
        return analysis

    # ---------------------------------------------------------------- helpers

    @staticmethod
    def unchecked_rows(analysis: UiAnalysis) -> List[TextRegion]:
        return [r for r in analysis.selectable_rows if not r.text.startswith("[x]")]

    @staticmethod
    def row_label(region: TextRegion) -> str:
        """Strip the checkbox prefix from a selectable row's text."""
        text = region.text
        for prefix in ("[ ] ", "[x] ", "[ ]", "[x]"):
            if text.startswith(prefix):
                return text[len(prefix) :]
        return text
