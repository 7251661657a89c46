"""Per-value reference implementations of field extraction and screenshot
analysis.

These are the oracles the columnar front end (:mod:`repro.core.fields`,
:mod:`repro.core.screenshot`, :func:`repro.core.alignment.shift_series`)
is checked against: the same §3.2–§3.3 steps written the obvious way,
one object per value.

* :func:`extract_fields` walks the messages once and decodes every read
  request and every read response with the scalar
  :mod:`~repro.diagnostics.uds` and :mod:`~repro.diagnostics.kwp2000`
  decoders, emitting one :class:`EsvObservation` per value;
* :func:`extract_ui_series` parses every reading's text and emits one
  :class:`UiSample` per reading; :func:`range_filter`,
  :func:`outlier_filter` and :func:`filter_series` drop samples one by one;
  :func:`shift_series` rebuilds every sample.

:func:`observation_columns` and :func:`series_columns` turn their output
into the columns the program emits, so a test compares the two with
``==``.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fields import (
    EsvColumns,
    IoControlEvent,
    _decode_io_request,
    _match_pending_io,
)
from repro.core.screenshot import DEFAULT_RANGE, FilterReport, UiSeries, _row_indices
from repro.cps.uianalyzer import text_similarity
from repro.diagnostics import kwp2000, uds
from repro.diagnostics.messages import NEGATIVE_RESPONSE_SID

# ------------------------------------------------------------------ fields


@dataclass(frozen=True)
class EsvObservation:
    """One raw ECU-signal-value sighting in traffic."""

    protocol: str  # "uds" | "kwp" | "obd2"
    identifier: str  # canonical key, e.g. "uds:F400", "kwp:01/0", "obd2:0C"
    raw_bytes: bytes  # value field as it appeared on the wire
    timestamp: float
    formula_type: int = 0  # KWP formula-type byte (0 elsewhere)

    def variables(self) -> Tuple[int, ...]:
        """Raw integer variables: KWP yields (X0, X1); others yield per-byte."""
        if self.protocol == "kwp":
            return (self.raw_bytes[0], self.raw_bytes[1])
        return tuple(self.raw_bytes)

    def as_int(self) -> int:
        return int.from_bytes(self.raw_bytes, "big") if self.raw_bytes else 0


@dataclass
class ReferenceFields:
    observations: List[EsvObservation] = field(default_factory=list)
    io_events: List[IoControlEvent] = field(default_factory=list)


def extract_fields(messages) -> ReferenceFields:
    """Field extraction, one scalar decode per request and response."""
    out = ReferenceFields()
    last_uds_read: Optional[Tuple[int, ...]] = None
    pending_io: Dict[Tuple[int, int], IoControlEvent] = {}
    for message in messages:
        payload = message.payload
        if not payload:
            continue
        sid = payload[0]
        if sid < 0x40 and sid != NEGATIVE_RESPONSE_SID:
            if sid == 0x22:
                try:
                    request = uds.decode_request_dids(payload)
                except Exception:
                    continue
                last_uds_read = request.dids
            elif sid in (0x2F, 0x30):
                event = _decode_io_request(sid, payload, message.t_last)
                if event is not None:
                    pending_io[(event.service, event.identifier)] = event
            continue
        if sid == NEGATIVE_RESPONSE_SID:
            if len(payload) >= 3 and payload[2] == 0x78:
                continue
            if len(payload) >= 2:
                key = _match_pending_io(pending_io, payload[1])
                if key is not None:
                    event = pending_io.pop(key)
                    out.io_events.append(
                        IoControlEvent(
                            event.service, event.identifier, event.io_parameter,
                            event.control_state, event.timestamp, positive=False,
                        )
                    )
            continue
        if sid == 0x62 and last_uds_read:
            try:
                pairs = uds.decode_read_response(last_uds_read, payload)
            except Exception:
                continue
            for did, value in pairs:
                out.observations.append(
                    EsvObservation("uds", f"uds:{did:04X}", value, message.t_last)
                )
        elif sid == 0x61:
            try:
                local_id, records = kwp2000.decode_read_response(payload)
            except Exception:
                continue
            for record in records:
                out.observations.append(
                    EsvObservation(
                        "kwp",
                        f"kwp:{local_id:02X}/{record.position}",
                        bytes([record.x0, record.x1]),
                        message.t_last,
                        formula_type=record.formula_type,
                    )
                )
        elif sid == 0x41 and len(payload) >= 3:
            pid = payload[1]
            out.observations.append(
                EsvObservation("obd2", f"obd2:{pid:02X}", bytes(payload[2:]), message.t_last)
            )
        elif sid in (0x6F, 0x70):
            key = _match_pending_io(pending_io, sid - 0x40)
            if key is not None:
                event = pending_io.pop(key)
                out.io_events.append(
                    IoControlEvent(
                        event.service, event.identifier, event.io_parameter,
                        event.control_state, event.timestamp, positive=True,
                    )
                )
    return out


def observation_columns(observations: Sequence[EsvObservation]) -> Dict[str, EsvColumns]:
    """Observations grouped per identifier, in first-appearance order, as
    columns: a byte matrix when every value has the same width."""
    grouped: Dict[str, List[EsvObservation]] = {}
    for obs in observations:
        grouped.setdefault(obs.identifier, []).append(obs)
    columns = {}
    for identifier, group in grouped.items():
        raws = [o.raw_bytes for o in group]
        widths = {len(r) for r in raws}
        if len(widths) == 1:
            raw = np.array([list(r) for r in raws], dtype=np.uint8).reshape(len(raws), widths.pop())
        else:
            raw = raws
        columns[identifier] = EsvColumns(
            group[0].protocol,
            np.array([o.timestamp for o in group], dtype=float),
            raw,
            np.array([o.formula_type for o in group], dtype=np.uint8),
        )
    return columns


# -------------------------------------------------------------- screenshot

_VALUE_PATTERN = re.compile(r"^\s*(-?\d+(?:\.\d+)?)\s*([^\d\s].*)?$")


@dataclass(frozen=True)
class UiSample:
    """One OCR'd value reading."""

    timestamp: float
    text: str
    value: Optional[float]  # None for enum/state readings
    unit: str = ""


@dataclass
class SampleSeries:
    """The readings observed for one on-screen label."""

    label: str
    samples: List[UiSample] = field(default_factory=list)

    @property
    def numeric_samples(self) -> List[UiSample]:
        return [s for s in self.samples if s.value is not None]

    @property
    def is_numeric(self) -> bool:
        return len(self.numeric_samples) >= max(3, len(self.samples) // 2)

    def values(self) -> List[Tuple[float, float]]:
        return [(s.timestamp, s.value) for s in self.numeric_samples]


def parse_value(text: str) -> Tuple[Optional[float], str]:
    match = _VALUE_PATTERN.match(text)
    if not match:
        return None, ""
    try:
        value = float(match.group(1))
    except ValueError:
        return None, ""
    return value, (match.group(2) or "").strip()


def extract_ui_series(ocr_frames, merge_threshold: float = 0.88) -> Dict[str, SampleSeries]:
    """Per-label series, one parsed :class:`UiSample` per reading."""
    raw: Dict[str, SampleSeries] = {}
    for frame in ocr_frames:
        regions = frame.regions
        for label_index, value_index in _row_indices(regions):
            label_region, value_region = regions[label_index], regions[value_index]
            text = value_region.text.strip()
            if text in ("---", ""):
                continue
            value, unit = parse_value(text)
            series = raw.setdefault(label_region.text, SampleSeries(label_region.text))
            series.samples.append(UiSample(frame.timestamp, text, value, unit))
    by_count = sorted(raw.values(), key=lambda s: len(s.samples), reverse=True)
    merged: Dict[str, SampleSeries] = {}
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


def range_filter(samples, bounds=DEFAULT_RANGE):
    lo, hi = bounds
    kept, removed = [], 0
    for sample in samples:
        if sample.value is None or lo <= sample.value <= hi:
            kept.append(sample)
        else:
            removed += 1
    return kept, removed


def outlier_filter(samples, z_threshold=4.0, min_abs=1.0):
    numeric = [s for s in samples if s.value is not None]
    if len(numeric) < 5:
        return list(samples), 0
    values = [s.value for s in numeric]
    steps = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    threshold = max(min_abs, z_threshold * statistics.median(steps))
    outliers = set()
    for index in range(1, len(values) - 1):
        d_prev = values[index] - values[index - 1]
        d_next = values[index + 1] - values[index]
        if d_prev * d_next < 0 and min(abs(d_prev), abs(d_next)) > threshold:
            outliers.add(index)
    flagged = {id(numeric[index]) for index in outliers}
    kept = [s for s in samples if s.value is None or id(s) not in flagged]
    return kept, len(samples) - len(kept)


def filter_series(series: SampleSeries, bounds=DEFAULT_RANGE, z_threshold=4.0):
    report = FilterReport()
    stage1, report.removed_range = range_filter(series.samples, bounds)
    stage2, report.removed_outlier = outlier_filter(stage1, z_threshold)
    report.kept = len(stage2)
    return SampleSeries(series.label, stage2), report


def shift_series(ui_series: Dict[str, SampleSeries], offset: float):
    return {
        label: SampleSeries(
            label,
            [UiSample(s.timestamp - offset, s.text, s.value, s.unit) for s in series.samples],
        )
        for label, series in ui_series.items()
    }


def series_columns(series: SampleSeries) -> UiSeries:
    """A sample series as the program's columns."""
    samples = series.samples
    return UiSeries(
        series.label,
        np.array([s.timestamp for s in samples], dtype=float),
        np.array([s.text for s in samples], dtype=object),
        np.array([s.value is not None for s in samples], dtype=bool),
        np.array([math.nan if s.value is None else s.value for s in samples], dtype=float),
        np.array([s.unit for s in samples], dtype=object),
    )


def make_series(label: str, readings) -> UiSeries:
    """Columns from ``(time, text, value or None[, unit])`` readings."""
    return series_columns(SampleSeries(label, [UiSample(*reading) for reading in readings]))
