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
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..diagnostics import obd2
from .fields import EsvObservation
from .screenshot import UiSeries


def obd_ground_truth_values(observation: EsvObservation) -> List[float]:
    """All physical values a standard OBD-II response could display.

    Both the metric and (when defined) the imperial formula are candidates
    because the pipeline does not know which unit the tool shows.
    """
    if observation.protocol != "obd2":
        raise ValueError("ground truth only exists for OBD-II observations")
    pid = int(observation.identifier.split(":")[1], 16)
    try:
        definition = obd2.pid_definition(pid)
    except Exception:
        return []
    values = []
    data = observation.raw_bytes
    if len(data) < definition.num_bytes:
        return []
    xs = tuple(float(b) for b in data[: definition.num_bytes])
    values.append(definition.formula(xs))
    if definition.alt_formula is not None:
        values.append(definition.alt_formula(xs))
    return values


def estimate_offset_via_obd(
    observations: Sequence[EsvObservation],
    ui_series: Dict[str, UiSeries],
    value_tolerance: float = 0.02,
    max_offset_s: float = 30.0,
) -> Optional[float]:
    """Estimate (camera time - sniffer time) from OBD-II anchor reads.

    Returns ``None`` when no anchor matches were found.
    """
    offsets: List[float] = []
    numeric_samples = [
        sample
        for series in ui_series.values()
        for sample in series.numeric_samples
    ]
    times = np.array([s.timestamp for s in numeric_samples], dtype=float)
    values = np.array([s.value for s in numeric_samples], dtype=float)
    for observation in observations:
        if observation.protocol != "obd2":
            continue
        distance = np.abs(times - observation.timestamp)
        in_reach = distance <= max_offset_s
        for truth in obd_ground_truth_values(observation):
            tolerance = max(0.51, abs(truth) * value_tolerance)
            candidates = np.flatnonzero(in_reach & (np.abs(values - truth) <= tolerance))
            if not len(candidates):
                continue
            # The first sample at the least distance, in series order.
            best = candidates[np.argmin(distance[candidates])]
            offsets.append(float(times[best]) - observation.timestamp)
    if not offsets:
        return None
    return statistics.median(offsets)


def shift_series(
    ui_series: Dict[str, UiSeries], offset: float
) -> Dict[str, UiSeries]:
    """Re-express UI timestamps on the sniffer clock (subtract ``offset``)."""
    from .screenshot import UiSample

    shifted: Dict[str, UiSeries] = {}
    for label, series in ui_series.items():
        shifted[label] = UiSeries(
            label,
            [
                UiSample(s.timestamp - offset, s.text, s.value, s.unit)
                for s in series.samples
            ],
        )
    return shifted
