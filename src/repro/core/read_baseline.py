"""READ / LibreCAN-style CAN frame analysis (the §4.4 comparison target).

READ (Marchetti & Stabili, IEEE TIFS 2018) reverse engineers *broadcast*
CAN frames: for each CAN id it computes per-bit flip rates over consecutive
frames and segments the 64-bit data field into physical-signal, counter and
CRC fields.  LibreCAN (Pesé et al., CCS 2019) then matches extracted signal
fields to reference signals (OBD-II readings) by correlation.

The paper's §4.4 point, reproduced by the benches: these techniques assume
one frame == one message, so they cannot handle diagnostic traffic where a
message spans several transport-layer frames — the extracted "fields" cut
across PCI bytes and payload chunks and correlate with nothing.

This is a faithful re-implementation of the published heuristics at the
level of detail the comparison needs:

* bit-flip *rate* and *magnitude* arrays (READ §IV-A),
* field segmentation on magnitude discontinuities,
* field classification: CRC (uniform ~0.5 flip rates), counter (flip rate
  doubling bit over bit, LSB flipping almost every frame), physical
  signals (monotone rate increase toward the LSB), constants,
* LibreCAN-style best-correlation matching against reference series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..can import CanFrame
from .pairing import nearest_pairs, pearson

N_BITS = 64


@dataclass(frozen=True)
class BitStatistics:
    """Per-bit flip counts for one CAN id's frame stream."""

    flip_rate: Tuple[float, ...]  # fraction of consecutive pairs that flip
    magnitude: Tuple[float, ...]  # READ's log10-scaled rates
    n_frames: int


def bit_statistics(frames: Sequence[CanFrame]) -> BitStatistics:
    """Compute flip rates over consecutive frames of one CAN id."""
    if len(frames) < 2:
        raise ValueError("need at least two frames to compute flip rates")
    flips = [0] * N_BITS
    previous = None
    pairs = 0
    for frame in frames:
        data = int.from_bytes(frame.data.ljust(8, b"\x00"), "big")
        if previous is not None:
            pairs += 1
            changed = data ^ previous
            for bit in range(N_BITS):
                if changed & (1 << (N_BITS - 1 - bit)):
                    flips[bit] += 1
        previous = data
    rates = tuple(count / pairs for count in flips)
    magnitudes = tuple(
        math.floor(math.log10(rate)) if rate > 0 else -10 for rate in rates
    )
    return BitStatistics(rates, magnitudes, len(frames))


@dataclass(frozen=True)
class ReadField:
    """One field READ identified in a frame layout."""

    start_bit: int
    length: int
    kind: str  # "physical" | "counter" | "crc" | "constant"

    @property
    def end_bit(self) -> int:
        return self.start_bit + self.length

    def extract(self, frame: CanFrame) -> int:
        data = int.from_bytes(frame.data.ljust(8, b"\x00"), "big")
        shift = N_BITS - self.end_bit
        return (data >> shift) & ((1 << self.length) - 1)


def _is_counter(rates: Sequence[float], start: int, length: int) -> bool:
    """Counters: each bit flips ~half as often as the next, LSB ~always."""
    if length < 2:
        return False
    segment = rates[start : start + length]
    if segment[-1] < 0.9:
        return False
    for left, right in zip(segment, segment[1:]):
        if left > right * 0.75 + 1e-9:
            return False
    return True


def _is_crc(rates: Sequence[float], start: int, length: int) -> bool:
    """CRCs: every bit flips at roughly one half."""
    segment = rates[start : start + length]
    return length >= 8 and all(0.3 <= rate <= 0.7 for rate in segment)


def segment_fields(statistics: BitStatistics) -> List[ReadField]:
    """READ's segmentation: split on magnitude discontinuities.

    Scanning MSB→LSB, a *physical* signal's flip rate never decreases (the
    LSB moves fastest); a drop in magnitude therefore starts a new field.
    Zero-rate runs are constants.
    """
    rates = statistics.flip_rate
    magnitudes = statistics.magnitude
    fields: List[ReadField] = []
    start = 0
    for bit in range(1, N_BITS + 1):
        boundary = bit == N_BITS or (
            (magnitudes[bit] < magnitudes[bit - 1])
            or (rates[bit] == 0.0) != (rates[bit - 1] == 0.0)
        )
        if not boundary:
            continue
        length = bit - start
        if all(rate == 0.0 for rate in rates[start:bit]):
            kind = "constant"
        elif _is_crc(rates, start, length):
            kind = "crc"
        elif _is_counter(rates, start, length):
            kind = "counter"
        else:
            kind = "physical"
        fields.append(ReadField(start, length, kind))
        start = bit
    return fields


def read_analysis(frames: Sequence[CanFrame]) -> List[ReadField]:
    """Full READ pass over one CAN id's frames."""
    return segment_fields(bit_statistics(frames))


# ------------------------------------------------------------------ LibreCAN


@dataclass(frozen=True)
class FieldMatch:
    """One extracted field matched against a reference signal."""

    field: ReadField
    reference: str
    correlation: float


def librecan_match(
    frames: Sequence[CanFrame],
    fields: Sequence[ReadField],
    references: Dict[str, Sequence[Tuple[float, float]]],
    min_correlation: float = 0.8,
) -> List[FieldMatch]:
    """Phase-1 LibreCAN: correlate physical fields with reference signals.

    ``references`` maps a signal name to its (t, value) series (in the
    original system these come from simultaneous OBD-II polling).  Field
    values are sampled at frame times and paired with the nearest
    reference sample.
    """
    times = [f.timestamp for f in frames]
    columns = {
        name: ([t for t, __ in reference], np.array([v for __, v in reference], dtype=float))
        for name, reference in references.items()
    }
    matches: List[FieldMatch] = []
    for read_field in fields:
        if read_field.kind != "physical":
            continue
        values = np.array([float(read_field.extract(f)) for f in frames])
        best: Optional[FieldMatch] = None
        for name, (reference_times, reference_values) in columns.items():
            ix, iy = nearest_pairs(times, reference_times, 0.5)
            correlation = abs(pearson(values[ix], reference_values[iy]))
            if best is None or correlation > best.correlation:
                best = FieldMatch(read_field, name, correlation)
        if best is not None and best.correlation >= min_correlation:
            matches.append(best)
    return matches
