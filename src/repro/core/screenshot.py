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

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cps.camera import CapturedFrame, TextRegion
from ..cps.ocr import OcrEngine, OcrFrame
from ..cps.uianalyzer import fuzzy_match

_VALUE_PATTERN = re.compile(r"^\s*(-?\d+(?:\.\d+)?)\s*([^\d\s].*)?$")

#: Global plausibility bounds used when no per-type hint exists.
DEFAULT_RANGE = (-1e5, 1e5)


@dataclass(eq=False)
class UiSeries:
    """The readings observed for one on-screen label, as time-sorted columns.

    Row ``i`` is one reading: its time, its text, whether that text parsed
    as a number (``numeric``), the number (NaN for enum/state text) and
    its unit.
    """

    label: str
    times: np.ndarray  # float64
    texts: np.ndarray  # object: str
    numeric: np.ndarray  # bool
    values: np.ndarray  # float64, NaN where not numeric
    units: np.ndarray  # object: str

    def __len__(self) -> int:
        return len(self.times)

    @property
    def numeric_times(self) -> np.ndarray:
        return self.times[self.numeric]

    @property
    def numeric_values(self) -> np.ndarray:
        return self.values[self.numeric]

    @property
    def is_numeric(self) -> bool:
        return int(np.count_nonzero(self.numeric)) >= max(3, len(self) // 2)

    def take(self, rows: np.ndarray) -> "UiSeries":
        """The readings at ``rows``, an index array or a boolean mask."""
        return UiSeries(
            self.label,
            self.times[rows],
            self.texts[rows],
            self.numeric[rows],
            self.values[rows],
            self.units[rows],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UiSeries):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.times, other.times)
            and self.texts.tolist() == other.texts.tolist()
            and np.array_equal(self.numeric, other.numeric)
            and np.array_equal(self.values, other.values, equal_nan=True)
            and self.units.tolist() == other.units.tolist()
        )


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
    frequent spelling.  Each distinct value text is parsed once.
    """
    # Per label, the reading times and codes of their stripped texts;
    # ``codes`` maps a region's text to its code (None for "---" or blank).
    readings: Dict[str, Tuple[List[float], List[int]]] = {}
    codes: Dict[str, Optional[int]] = {}
    texts: Dict[str, int] = {}
    # Row pairing reads only each region's kind and position, so frames of
    # one screen layout share it: pair once per layout, as region indices.
    layouts: Dict[Tuple[Tuple[str, int, int, int], ...], List[Tuple[int, int]]] = {}
    for frame in ocr_frames:
        regions = frame.regions
        layout = tuple((r.kind, r.x, r.y, r.height) for r in regions)
        rows = layouts.get(layout)
        if rows is None:
            rows = layouts[layout] = _row_indices(regions)
        timestamp = frame.timestamp
        for label_index, value_index in rows:
            text = regions[value_index].text
            try:
                code = codes[text]
            except KeyError:
                stripped = text.strip()
                code = codes[text] = (
                    None if stripped in ("---", "") else texts.setdefault(stripped, len(texts))
                )
            if code is None:
                continue
            label = regions[label_index].text
            entry = readings.get(label)
            if entry is None:
                entry = readings[label] = ([], [])
            entry[0].append(timestamp)
            entry[1].append(code)

    # Canonicalise labels: an OCR-mangled label appears in only a handful of
    # frames, so merge a *rare* series into a similar *frequent* one.  Two
    # similarly-named but genuinely distinct rows ("Wheel Speed FL" vs
    # "Wheel Speed FR") both appear in every frame and stay separate.
    sizes = {label: len(times) for label, (times, __) in readings.items()}
    merged: Dict[str, List[str]] = {}  # canonical label -> labels merged into it
    totals: Dict[str, int] = {}
    for label in sorted(readings, key=sizes.__getitem__, reverse=True):
        for canonical in merged:
            if (
                sizes[label] <= max(2, totals[canonical] // 4)
                and fuzzy_match(label, canonical, merge_threshold)
            ):
                merged[canonical].append(label)
                totals[canonical] += sizes[label]
                break
        else:
            merged[label] = [label]
            totals[label] = sizes[label]

    distinct = list(texts)
    parsed = [parse_value(text) for text in distinct]
    table_texts = np.array(distinct, dtype=object)
    table_numeric = np.array([value is not None for value, __ in parsed], dtype=bool)
    table_values = np.array(
        [math.nan if value is None else value for value, __ in parsed], dtype=float
    )
    table_units = np.array([unit for __, unit in parsed], dtype=object)
    series: Dict[str, UiSeries] = {}
    for canonical, members in merged.items():
        times = np.array([t for member in members for t in readings[member][0]], dtype=float)
        picked = np.array([c for member in members for c in readings[member][1]], dtype=np.intp)
        order = np.argsort(times, kind="stable")
        picked = picked[order]
        series[canonical] = UiSeries(
            canonical,
            times[order],
            table_texts[picked],
            table_numeric[picked],
            table_values[picked],
            table_units[picked],
        )
    return series


# -------------------------------------------------------------------- filters


@dataclass
class FilterReport:
    """Bookkeeping of the two-stage filter."""

    kept: int = 0
    removed_range: int = 0
    removed_outlier: int = 0


def range_mask(
    values: np.ndarray,
    numeric: np.ndarray,
    bounds: Tuple[float, float] = DEFAULT_RANGE,
) -> np.ndarray:
    """Stage 1: keep enum readings and numeric ones inside ``bounds``."""
    lo, hi = bounds
    return ~numeric | ((lo <= values) & (values <= hi))


def outlier_mask(
    values: np.ndarray,
    numeric: np.ndarray,
    z_threshold: float = 4.0,
    min_abs: float = 1.0,
) -> np.ndarray:
    """Stage 2: keep all but isolated spikes inconsistent with both neighbours.

    Physical quantities move in trends — even a fast sweep changes by a
    bounded step per frame — whereas an OCR mis-read appears for a single
    frame and then snaps back.  A numeric reading is flagged when it jumps
    away from its numeric predecessor *and* back toward its successor
    (opposite-sign steps), both by more than ``z_threshold`` typical
    (median) steps.  This keeps legitimate ramps and wrap-arounds
    (same-sign continuation) that a naive rolling-median rule would
    destroy.
    """
    keep = np.ones(len(values), dtype=bool)
    rows = np.flatnonzero(numeric)
    if len(rows) < 5:
        return keep
    numbers = values[rows]
    steps = np.sort(np.abs(np.diff(numbers)))
    middle = len(steps) // 2
    if len(steps) % 2:
        typical_step = float(steps[middle])
    else:  # statistics.median's mean of the two middle steps
        typical_step = (float(steps[middle - 1]) + float(steps[middle])) / 2
    threshold = max(min_abs, z_threshold * typical_step)
    d_prev = numbers[1:-1] - numbers[:-2]
    d_next = numbers[2:] - numbers[1:-1]
    smaller = np.where(np.abs(d_next) < np.abs(d_prev), np.abs(d_next), np.abs(d_prev))
    keep[rows[1:-1][(d_prev * d_next < 0) & (smaller > threshold)]] = False
    return keep


def filter_series(
    series: UiSeries,
    bounds: Tuple[float, float] = DEFAULT_RANGE,
    z_threshold: float = 4.0,
) -> Tuple[UiSeries, FilterReport]:
    """Apply both filter stages; returns the cleaned series and a report."""
    report = FilterReport()
    kept = np.flatnonzero(range_mask(series.values, series.numeric, bounds))
    report.removed_range = len(series) - len(kept)
    spikes = ~outlier_mask(series.values[kept], series.numeric[kept], z_threshold)
    report.removed_outlier = int(np.count_nonzero(spikes))
    kept = kept[~spikes]
    report.kept = len(kept)
    return series.take(kept), report


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
