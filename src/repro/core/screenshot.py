"""Screenshot analysis (§3.3): UI text extraction + incorrect-ESV filtering.

The recorded UI video is OCR'd frame by frame; name/value rows become
per-label time series.  Because the OCR engine mis-reads a fraction of
frames (dropped decimal points, digit confusion, partial reads), a
two-stage filter removes bad samples:

1. **Range filter** — values outside the plausible range for the ESV type
   (or a generous global default) are dropped;
2. **Outlier filter** — values far from the local rolling median are
   dropped: over a short window the physical quantity cannot jump, so a
   spike is almost surely an OCR error.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cps.camera import CapturedFrame, TextRegion
from ..cps.ocr import OcrEngine, OcrFrame
from ..cps.uianalyzer import text_similarity

_VALUE_PATTERN = re.compile(r"^\s*(-?\d+(?:\.\d+)?)\s*([^\d\s].*)?$")

#: Global plausibility bounds used when no per-type hint exists.
DEFAULT_RANGE = (-1e5, 1e5)


@dataclass(frozen=True)
class UiSample:
    """One OCR'd value reading."""

    timestamp: float
    text: str
    value: Optional[float]  # None for enum/state readings
    unit: str = ""


@dataclass
class UiSeries:
    """The readings observed for one on-screen label."""

    label: str
    samples: List[UiSample] = field(default_factory=list)

    @property
    def numeric_samples(self) -> List[UiSample]:
        return [s for s in self.samples if s.value is not None]

    @property
    def is_numeric(self) -> bool:
        numeric = len(self.numeric_samples)
        return numeric >= max(3, len(self.samples) // 2)

    def values(self) -> List[Tuple[float, float]]:
        return [(s.timestamp, s.value) for s in self.numeric_samples]


def parse_value(text: str) -> Tuple[Optional[float], str]:
    """Parse a displayed value like ``"771.2 rpm"`` into (float, unit)."""
    match = _VALUE_PATTERN.match(text)
    if not match:
        return None, ""
    try:
        value = float(match.group(1))
    except ValueError:
        return None, ""
    unit = (match.group(2) or "").strip()
    return value, unit


def pair_value_rows(frame: OcrFrame) -> List[Tuple[TextRegion, TextRegion]]:
    """Pair each live value region with the nearest label on its row.

    Pairing is geometry only: a label shares the value's row when its y
    lies within half the value's height, and the horizontally closest such
    label wins.  Buttons play no part, so no keyword matching runs here.
    """
    regions = frame.regions
    return [(regions[i], regions[j]) for i, j in _row_indices(regions)]


def _row_indices(regions: Sequence[TextRegion]) -> List[Tuple[int, int]]:
    """:func:`pair_value_rows` as ``(label index, value index)`` pairs."""
    labels = [(i, r) for i, r in enumerate(regions) if r.kind == "label"]
    rows: List[Tuple[int, int]] = []
    for j, value in enumerate(regions):
        if value.kind != "value":
            continue
        row_labels = [(i, l) for i, l in labels if abs(l.y - value.y) <= value.height // 2]
        if row_labels:
            rows.append((min(row_labels, key=lambda item: abs(item[1].x - value.x))[0], j))
    return rows


def extract_ui_series(
    ocr_frames: Sequence[OcrFrame],
    merge_threshold: float = 0.88,
) -> Dict[str, UiSeries]:
    """Build per-label time series from OCR'd video frames.

    OCR occasionally mangles a *label*, fragmenting its series; labels are
    therefore canonicalised by fuzzy-merging near-duplicates into the most
    frequent spelling.
    """
    raw: Dict[str, UiSeries] = {}
    # Row pairing reads only each region's kind and position, so frames of
    # one screen layout share it: pair once per layout, as region indices.
    layouts: Dict[Tuple[Tuple[str, int, int, int], ...], List[Tuple[int, int]]] = {}
    for frame in ocr_frames:
        regions = frame.regions
        layout = tuple((r.kind, r.x, r.y, r.height) for r in regions)
        rows = layouts.get(layout)
        if rows is None:
            rows = layouts[layout] = _row_indices(regions)
        for label_index, value_index in rows:
            label_region, value_region = regions[label_index], regions[value_index]
            text = value_region.text.strip()
            if text in ("---", ""):
                continue
            value, unit = parse_value(text)
            series = raw.setdefault(label_region.text, UiSeries(label_region.text))
            series.samples.append(UiSample(frame.timestamp, text, value, unit))

    # Canonicalise labels: an OCR-mangled label appears in only a handful of
    # frames, so merge a *rare* series into a similar *frequent* one.  Two
    # similarly-named but genuinely distinct rows ("Wheel Speed FL" vs
    # "Wheel Speed FR") both appear in every frame and stay separate.
    by_count = sorted(raw.values(), key=lambda s: len(s.samples), reverse=True)
    merged: Dict[str, UiSeries] = {}
    for series in by_count:
        target = None
        for canonical in merged:
            frequent = len(merged[canonical].samples)
            if (
                len(series.samples) <= max(2, frequent // 4)
                and text_similarity(series.label, canonical) >= merge_threshold
            ):
                target = canonical
                break
        if target is None:
            merged[series.label] = series
        else:
            merged[target].samples.extend(series.samples)
    for series in merged.values():
        series.samples.sort(key=lambda s: s.timestamp)
    return merged


# -------------------------------------------------------------------- filters


@dataclass
class FilterReport:
    """Bookkeeping of the two-stage filter."""

    kept: int = 0
    removed_range: int = 0
    removed_outlier: int = 0


def range_filter(
    samples: Sequence[UiSample],
    bounds: Tuple[float, float] = DEFAULT_RANGE,
) -> Tuple[List[UiSample], int]:
    """Stage 1: drop numeric samples outside the plausible range."""
    lo, hi = bounds
    kept: List[UiSample] = []
    removed = 0
    for sample in samples:
        if sample.value is None or lo <= sample.value <= hi:
            kept.append(sample)
        else:
            removed += 1
    return kept, removed


def outlier_filter(
    samples: Sequence[UiSample],
    z_threshold: float = 4.0,
    min_abs: float = 1.0,
) -> Tuple[List[UiSample], int]:
    """Stage 2: drop isolated spikes inconsistent with both neighbours.

    Physical quantities move in trends — even a fast sweep changes by a
    bounded step per frame — whereas an OCR mis-read appears for a single
    frame and then snaps back.  A sample is flagged when it jumps away from
    its predecessor *and* back toward its successor (opposite-sign steps),
    both by more than ``z_threshold`` typical steps.  This keeps legitimate
    ramps and wrap-arounds (same-sign continuation) that a naive
    rolling-median rule would destroy.
    """
    numeric = [s for s in samples if s.value is not None]
    if len(numeric) < 5:
        return list(samples), 0
    values = [s.value for s in numeric]
    steps = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    typical_step = statistics.median(steps)
    threshold = max(min_abs, z_threshold * typical_step)
    outliers = set()
    for index in range(1, len(values) - 1):
        d_prev = values[index] - values[index - 1]
        d_next = values[index + 1] - values[index]
        if d_prev * d_next < 0 and min(abs(d_prev), abs(d_next)) > threshold:
            outliers.add(id(numeric[index]))
    kept = [s for s in samples if s.value is None or id(s) not in outliers]
    return kept, len(samples) - len(kept)


def filter_series(
    series: UiSeries,
    bounds: Tuple[float, float] = DEFAULT_RANGE,
    z_threshold: float = 4.0,
) -> Tuple[UiSeries, FilterReport]:
    """Apply both filter stages; returns the cleaned series and a report."""
    report = FilterReport()
    stage1, report.removed_range = range_filter(series.samples, bounds)
    stage2, report.removed_outlier = outlier_filter(stage1, z_threshold)
    report.kept = len(stage2)
    return UiSeries(series.label, stage2), report


def filter_ui_series(
    raw_series: Dict[str, UiSeries],
    bounds: Tuple[float, float] = DEFAULT_RANGE,
) -> Tuple[Dict[str, UiSeries], Dict[str, FilterReport]]:
    """Filter every series; ``raw_series`` itself is left untouched."""
    cleaned: Dict[str, UiSeries] = {}
    reports: Dict[str, FilterReport] = {}
    for label, series in raw_series.items():
        cleaned[label], reports[label] = filter_series(series, bounds)
    return cleaned, reports


def analyze_video(
    video: Sequence[CapturedFrame],
    ocr: OcrEngine,
    bounds: Tuple[float, float] = DEFAULT_RANGE,
) -> Tuple[Dict[str, UiSeries], Dict[str, FilterReport]]:
    """Full §3.3 pipeline: OCR the video, build series, filter each one."""
    return filter_ui_series(extract_ui_series(ocr.read_video(list(video))), bounds)
