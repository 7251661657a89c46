"""Columnar (structure-of-arrays) view of a CAN capture.

The event decoders in this package process one frame at a time through a
Python state machine — necessary for a stream that is lossy, corrupt or
hostile, but pure overhead for the common conversation of complete,
well-formed transfers.  :class:`FrameArrays` converts a whole capture into
numpy columns once (ids, timestamps, DLCs, and a zero-padded ``N x 8``
payload matrix) so that transport detection, screening and the slicing of
complete single- and multi-frame ISO-TP/BMW transfers
(:meth:`~repro.core.assembly.StreamAssembler.feed_chunk`) become array
operations over the entire capture instead of per-frame Python calls.
Sliced transfers leave as columns of a
:class:`~repro.core.assembly.MessageTable`: frames in, message rows out,
with no object per frame or per message on the way.

The original :class:`~repro.can.CanFrame` objects are kept alongside the
columns: the frames around a chunk boundary or a fault go to the event
decoders, which need the real frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List

import numpy as np

from ..can import MAX_DATA_LENGTH, CanFrame


@dataclass
class FrameArrays:
    """One capture as columns plus the original frames for fallback."""

    can_ids: "np.ndarray"  # uint32 (N,)
    timestamps: "np.ndarray"  # float64 (N,)
    dlcs: "np.ndarray"  # int16 (N,)
    payloads: "np.ndarray"  # uint8 (N, MAX_DATA_LENGTH), zero-padded
    frames: List[CanFrame]

    def __len__(self) -> int:
        return len(self.frames)

    @classmethod
    def from_frames(cls, frames: Iterable[CanFrame]) -> "FrameArrays":
        """Build the columnar view; one pass over the capture.

        The payload matrix is filled by scattering the concatenation of
        all data fields through a column-index mask — row-major order of
        the mask's true cells is exactly frame order x byte order, so no
        per-frame Python assignment is needed.
        """
        frames = list(frames)
        n = len(frames)
        can_ids = np.fromiter(map(attrgetter("can_id"), frames), dtype=np.uint32, count=n)
        timestamps = np.fromiter(map(attrgetter("timestamp"), frames), dtype=np.float64, count=n)
        data = list(map(attrgetter("data"), frames))
        dlcs = np.fromiter(map(len, data), dtype=np.int16, count=n)
        payloads = np.zeros((n, MAX_DATA_LENGTH), dtype=np.uint8)
        if n:
            flat = np.frombuffer(b"".join(data), dtype=np.uint8)
            columns = np.arange(MAX_DATA_LENGTH, dtype=np.int16)
            payloads[columns[None, :] < dlcs[:, None]] = flat
        return cls(can_ids, timestamps, dlcs, payloads, frames)

    def nibbles(self, offset: int) -> "np.ndarray":
        """High PCI nibble of byte ``offset`` for every frame.

        Frames too short to hold byte ``offset`` read the zero padding;
        callers must mask with ``dlcs > offset`` (mirroring the event
        path, where such frames have no PCI at all).
        """
        return self.payloads[:, offset] >> 4
