"""Simulated OCR engine with a Tesseract-style error model.

The paper's pipeline quality hinges on OCR imperfection: §3.3 dedicates a
two-stage filter to OCR mistakes and §4.4 traces most baseline-regression
failures to them.  The error model reproduces the three error classes the
paper reports:

* **decimal-point drop** — ``"25.00" → "2500"`` (the §3.3 example);
* **partial read** — ``"11.4" → "4"`` (the §4.4 example);
* **digit confusion** — ``"3.7" → "8.0"``-style substitutions from the
  classic OCR confusion pairs (3↔8, 1↔7, 0↔O…).

Error probability is configured per *frame* so the Tab. 4 per-picture
precision (97.6 % AUTEL, 85.0 % LAUNCH) maps directly onto the
``error_rate`` parameter of the tool profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List

from .camera import CapturedFrame, TextRegion

#: Classic single-character OCR confusions (subset of Tesseract's).
CONFUSION_PAIRS = {
    "3": "8", "8": "3", "1": "7", "7": "1", "0": "9", "9": "0",
    "5": "6", "6": "5", "2": "7", "4": "9",
}


@dataclass
class OcrFrame:
    """OCR output for one captured frame.

    ``regions`` holds the camera's own frozen :class:`TextRegion` objects,
    except for a mis-read region, which is a new one with the OCR'd text.
    """

    timestamp: float
    screen_name: str
    regions: List[TextRegion]
    corrupted: bool  # whether the error model fired on this frame

    def texts(self) -> List[str]:
        return [region.text for region in self.regions]


def _has_digits(text: str) -> bool:
    return any(ch.isdigit() for ch in text)


class OcrEngine:
    """Tesseract stand-in with a seeded, per-frame error model."""

    def __init__(self, error_rate: float = 0.024, seed: int = 7) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error rate {error_rate} outside [0, 1]")
        self.error_rate = error_rate
        self.rng = random.Random(seed)
        self.frames_read = 0
        self.frames_corrupted = 0

    # ------------------------------------------------------------- corruption

    def _corrupt_value(self, text: str) -> str:
        """Apply one of the three error classes to a numeric string."""
        mode = self.rng.random()
        if mode < 0.4 and "." in text:
            return text.replace(".", "", 1)  # decimal-point drop: 25.00 -> 2500
        if mode < 0.7 and len(text) > 2:
            # Partial read: keep a suffix of the numeric part (11.4 -> 4).
            head, __, unit = text.partition(" ")
            cut = self.rng.randrange(1, max(2, len(head)))
            partial = head[cut:] or head[-1]
            return f"{partial} {unit}".strip()
        # Digit confusion.
        chars = list(text)
        digit_positions = [i for i, ch in enumerate(chars) if ch in CONFUSION_PAIRS]
        if digit_positions:
            pos = self.rng.choice(digit_positions)
            chars[pos] = CONFUSION_PAIRS[chars[pos]]
        return "".join(chars)

    def _corrupt_label(self, text: str) -> str:
        """Drop or mangle a character of a non-numeric label."""
        if len(text) < 2:
            return text
        pos = self.rng.randrange(len(text))
        return text[:pos] + text[pos + 1 :]

    # ------------------------------------------------------------------- read

    def read_frame(self, frame: CapturedFrame) -> OcrFrame:
        """Recognise every text region of ``frame``.

        With probability ``error_rate`` the frame is *corrupted*: one of its
        digit-bearing regions (preferring live values) is mis-read.  The
        frame itself is never changed: the result shares its regions and
        replaces only the mis-read one.
        """
        self.frames_read += 1
        regions = list(frame.regions)
        corrupted = False
        if regions and self.rng.random() < self.error_rate:
            candidates = [i for i, r in enumerate(regions) if r.kind == "value" and _has_digits(r.text)]
            if not candidates:
                candidates = [i for i, r in enumerate(regions) if _has_digits(r.text)]
            if not candidates:
                candidates = list(range(len(regions)))
            index = self.rng.choice(candidates)
            region = regions[index]
            new_text = (
                self._corrupt_value(region.text)
                if _has_digits(region.text)
                else self._corrupt_label(region.text)
            )
            if new_text != region.text:
                regions[index] = replace(region, text=new_text)
                corrupted = True
        if corrupted:
            self.frames_corrupted += 1
        return OcrFrame(frame.timestamp, frame.screen_name, regions, corrupted)

    def read_video(self, frames: List[CapturedFrame]) -> List[OcrFrame]:
        """OCR a whole recording (MPlayer frame split + Tesseract, §3.3)."""
        return [self.read_frame(frame) for frame in frames]

    @property
    def observed_precision(self) -> float:
        """Fraction of frames read without any error (the Tab. 4 metric)."""
        if not self.frames_read:
            return 1.0
        return 1.0 - self.frames_corrupted / self.frames_read
