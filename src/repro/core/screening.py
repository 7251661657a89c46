"""Step 1 of diagnostic-frames analysis: screening (§3.2).

Captured traffic mixes payload-carrying frames with pure control frames.
Screening removes the latter:

* **ISO 15765-2** — flow-control frames (PCI nibble ``0x3``) only notify the
  sender of receiver properties; drop them, keep SF/FF/CF.
* **VW TP 2.0** — broadcast/channel-setup, channel-parameter and ACK frames
  carry no payload; keep only data-transmission frames.
* **BMW extended addressing** — same as ISO-TP after the address byte
  (handled by the assembler); screening drops flow control at offset 1.

The module also auto-detects which transport a capture uses, so the
pipeline needs no per-vehicle configuration.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..can import CanFrame, CanLog
from ..transport.arrays import FrameArrays
from ..transport.isotp import PciType
from ..transport.vwtp import (
    BROADCAST_ID_BASE,
    VwTpFrameKind,
    classify_vwtp_frame,
)

#: Known transports, in the vocabulary of this module.
TRANSPORT_ISOTP = "isotp"
TRANSPORT_VWTP = "vwtp"
TRANSPORT_BMW = "bmw"


def _isotp_pci_nibble(data: bytes, offset: int = 0) -> int:
    if len(data) <= offset:
        return -1
    return data[offset] >> 4


def detect_transport(frames) -> str:
    """Guess the transport family of a capture.

    VW TP 2.0 reveals itself through channel-setup frames in the broadcast
    id range; BMW extended addressing through frames whose *second* byte
    carries a valid ISO-TP PCI while the first byte repeats per CAN id (the
    ECU address).  Plain ISO-TP is the default.

    ``frames`` is an iterable of :class:`CanFrame` or the capture's
    :class:`~repro.transport.arrays.FrameArrays`; the heuristic is a few
    reductions over its id and first-two-byte columns.
    """
    arrays = frames if isinstance(frames, FrameArrays) else FrameArrays.from_frames(frames)
    usable = arrays.dlcs >= 2  # frames holding both candidate PCI bytes
    ids = arrays.can_ids[usable]
    first = arrays.payloads[usable, 0]
    second = arrays.payloads[usable, 1]
    setup = (second == 0xC0) | (second == 0xD0)
    if (setup & (ids >= BROADCAST_ID_BASE) & (ids <= BROADCAST_ID_BASE + 0xFF)).any():
        return TRANSPORT_VWTP
    if not ids.size:
        return TRANSPORT_ISOTP
    # BMW heuristic: per-id *dominant* first byte + valid PCI at offset 1,
    # while offset 0 is *not* a globally valid PCI for a decent fraction.
    # A lossy sniffer tap flips the occasional bit, so strict per-id
    # constancy would abandon the whole BMW decode over a single corrupted
    # frame; instead require the most common first byte to account for the
    # overwhelming majority of each id's traffic.  (Byte 0 of an ISO-TP
    # frame could still be a BMW address with a low nibble; per-id
    # dominance disambiguates.)
    votes_isotp = np.count_nonzero(first >> 4 <= PciType.FLOW_CONTROL)
    votes_bmw = np.count_nonzero(second >> 4 <= PciType.FLOW_CONTROL)
    pairs, counts = np.unique((ids.astype(np.int64) << 8) | first, return_counts=True)
    pair_ids = pairs >> 8
    new_id = np.append(True, pair_ids[1:] != pair_ids[:-1])
    id_starts = np.flatnonzero(new_id)
    totals = np.add.reduceat(counts, id_starts)
    tops = np.maximum.reduceat(counts, id_starts)
    if votes_bmw < votes_isotp or not (tops >= 0.9 * totals).all():
        return TRANSPORT_ISOTP
    # Each id's top count is now over 90% of its frames: one dominant byte.
    dominant = (pairs & 0xFF)[counts == tops[np.cumsum(new_id) - 1]]
    if (dominant >= 0x40).any():
        return TRANSPORT_BMW
    return TRANSPORT_ISOTP


def screen_isotp(frames: Iterable[CanFrame], pci_offset: int = 0) -> List[CanFrame]:
    """Keep SF/FF/CF frames; drop flow control and non-ISO-TP noise."""
    kept: List[CanFrame] = []
    for frame in frames:
        nibble = _isotp_pci_nibble(frame.data, pci_offset)
        if nibble in (PciType.SINGLE, PciType.FIRST, PciType.CONSECUTIVE):
            kept.append(frame)
    return kept


def screen_vwtp(frames: Iterable[CanFrame]) -> List[CanFrame]:
    """Keep only TP 2.0 data-transmission frames (§3.2 Step 1)."""
    return [
        frame
        for frame in frames
        if classify_vwtp_frame(frame) == VwTpFrameKind.DATA
    ]


def frame_passes_screen(frame: CanFrame, transport: str) -> bool:
    """Per-frame screening predicate (the stateless core of :func:`screen`).

    Screening never looks across frames, so a live stream can screen each
    frame as it arrives and reach exactly the batch decision.
    """
    if transport == TRANSPORT_VWTP:
        return classify_vwtp_frame(frame) == VwTpFrameKind.DATA
    if transport == TRANSPORT_BMW:
        offset = 1
    elif transport == TRANSPORT_ISOTP:
        offset = 0
    else:
        raise ValueError(f"unknown transport {transport!r}")
    nibble = _isotp_pci_nibble(frame.data, offset)
    return nibble in (PciType.SINGLE, PciType.FIRST, PciType.CONSECUTIVE)


def screen_mask(arrays, transport: str):
    """Vectorised :func:`screen`: a keep-mask over a whole capture.

    Takes a :class:`~repro.transport.arrays.FrameArrays` and returns a
    boolean numpy array marking the frames batch screening would keep,
    or ``None`` when the transport has no vectorised screen (VW TP 2.0
    classification is stateful enough that the event path handles it).
    Bit-for-bit equivalent to mapping :func:`frame_passes_screen`: the
    ``dlcs > offset`` term reproduces the "too short to hold a PCI"
    rejection that zero padding would otherwise hide.
    """
    if transport == TRANSPORT_BMW:
        offset = 1
    elif transport == TRANSPORT_ISOTP:
        offset = 0
    else:
        return None
    return (arrays.dlcs > offset) & (arrays.nibbles(offset) <= PciType.CONSECUTIVE)


def screen(frames: Iterable[CanFrame], transport: str) -> List[CanFrame]:
    """Dispatch to the right screener for ``transport``."""
    if transport == TRANSPORT_VWTP:
        return screen_vwtp(frames)
    if transport == TRANSPORT_BMW:
        return screen_isotp(frames, pci_offset=1)
    if transport == TRANSPORT_ISOTP:
        return screen_isotp(frames, pci_offset=0)
    raise ValueError(f"unknown transport {transport!r}")


def screen_log(log: CanLog, transport: str = "") -> List[CanFrame]:
    """Screen a whole capture, auto-detecting the transport when not given."""
    frames = list(log)
    return screen(frames, transport or detect_transport(frames))
