"""Message/screenshot time alignment (§9.4).

The diagnostic messages and the UI video are timestamped by different
devices.  Two alignment methods are implemented, matching the paper:

1. **NTP** — both clocks synchronise to a common reference before the
   capture (:func:`repro.simtime.ntp_synchronise`); afterwards the offset
   is zero by construction.
2. **OBD-II anchoring** — the capture begins with a few reads of
   well-documented OBD-II PIDs.  Since their formulas are public, the real
   value of every OBD-II response is computable; searching the video for a
   frame displaying that value yields per-message offsets whose median is
   the camera-vs-sniffer clock offset, reusable for the whole capture.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from ..diagnostics import obd2
from .fields import ObservationTable
from .screenshot import UiSeries


def obd_ground_truth_values(identifier: str, data: bytes) -> List[float]:
    """All physical values a standard OBD-II response could display.

    ``identifier`` is the response's ``obd2:<PID>`` key and ``data`` its
    data bytes.  Both the metric and (when defined) the imperial formula
    are candidates because the pipeline does not know which unit the tool
    shows.
    """
    protocol, __, pid = identifier.partition(":")
    if protocol != "obd2":
        raise ValueError("ground truth only exists for OBD-II observations")
    try:
        definition = obd2.pid_definition(int(pid, 16))
    except Exception:
        return []
    values = []
    if len(data) < definition.num_bytes:
        return []
    xs = tuple(float(b) for b in data[: definition.num_bytes])
    values.append(definition.formula(xs))
    if definition.alt_formula is not None:
        values.append(definition.alt_formula(xs))
    return values


def estimate_offset_via_obd(
    observations: ObservationTable,
    ui_series: Dict[str, UiSeries],
    value_tolerance: float = 0.02,
    max_offset_s: float = 30.0,
) -> Optional[float]:
    """Estimate (camera time - sniffer time) from OBD-II anchor reads.

    Returns ``None`` when no anchor matches were found.
    """
    offsets: List[float] = []
    series = list(ui_series.values())
    times = np.concatenate([np.zeros(0)] + [s.numeric_times for s in series])
    values = np.concatenate([np.zeros(0)] + [s.numeric_values for s in series])
    for identifier, column in observations.columns.items():
        if column.protocol != "obd2":
            continue
        for timestamp, data in zip(column.times.tolist(), column.raw_bytes()):
            distance = np.abs(times - timestamp)
            in_reach = distance <= max_offset_s
            for truth in obd_ground_truth_values(identifier, data):
                tolerance = max(0.51, abs(truth) * value_tolerance)
                candidates = np.flatnonzero(in_reach & (np.abs(values - truth) <= tolerance))
                if not len(candidates):
                    continue
                # The first sample at the least distance, in series order.
                best = candidates[np.argmin(distance[candidates])]
                offsets.append(float(times[best]) - timestamp)
    if not offsets:
        return None
    # The median does not depend on the order the anchors were visited in.
    return statistics.median(offsets)


def shift_series(
    ui_series: Dict[str, UiSeries], offset: float
) -> Dict[str, UiSeries]:
    """Re-express UI timestamps on the sniffer clock (subtract ``offset``)."""
    return {
        label: replace(series, times=series.times - offset)
        for label, series in ui_series.items()
    }
