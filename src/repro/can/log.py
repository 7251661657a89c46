"""CAN capture logs.

The sniffer attached to the OBD port produces a :class:`CanLog` — an ordered
list of timestamped frames.  Logs can be saved to and loaded from the
``candump -L`` text format so captures survive between pipeline stages (and
so users can feed real candump captures into the reverse-engineering
pipeline).
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from .frame import CanFrame, frame_from_candump, frame_to_candump


class CanLog:
    """An append-only, time-ordered sequence of captured CAN frames.

    A log built by :meth:`from_chunks` holds its frames as the sized frame
    sequences they arrived in — a streamed capture's wire batches, whose
    frames are built only when asked for.  Its length is the sum of the
    chunk lengths and builds nothing; iterating yields the chunks' frames
    in order; indexing, :attr:`frames` and :meth:`append` flatten the
    chunks into one list first.
    """

    def __init__(self, frames: Optional[Iterable[CanFrame]] = None) -> None:
        self._frames: List[CanFrame] = list(frames) if frames else []
        #: Frame sequences not yet flattened into ``_frames`` (which stays
        #: empty while there are any), and the frames they hold.
        self._chunks: List[Sequence[CanFrame]] = []
        self._chunked = 0

    @classmethod
    def from_chunks(cls, chunks: Iterable[Sequence[CanFrame]]) -> "CanLog":
        """A log of ``chunks``, in order, kept as they are until a caller
        needs one list of frames."""
        log = cls()
        log._chunks = [chunk for chunk in chunks if len(chunk)]
        log._chunked = sum(len(chunk) for chunk in log._chunks)
        return log

    def _flat(self) -> List[CanFrame]:
        if self._chunks:
            self._frames = [frame for chunk in self._chunks for frame in chunk]
            self._chunks, self._chunked = [], 0
        return self._frames

    # --------------------------------------------------------------- mutation

    def append(self, frame: CanFrame) -> None:
        """Record one frame.  Frames must arrive in non-decreasing time."""
        frames = self._flat() if self._chunks else self._frames
        if frames and frame.timestamp < frames[-1].timestamp:
            raise ValueError(
                f"frame at t={frame.timestamp} arrived after t="
                f"{frames[-1].timestamp}; captures must be ordered"
            )
        frames.append(frame)

    def extend(self, frames: Iterable[CanFrame]) -> None:
        for frame in frames:
            self.append(frame)

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._frames) + self._chunked

    def __iter__(self) -> Iterator[CanFrame]:
        if self._chunks:
            return chain.from_iterable(self._chunks)
        return iter(self._frames)

    def __getitem__(self, index):
        return self._flat()[index]

    @property
    def frames(self) -> List[CanFrame]:
        """The captured frames (shared list; treat as read-only)."""
        return self._flat()

    def between(self, start: float, end: float) -> "CanLog":
        """Frames with ``start <= timestamp < end`` (a capture split)."""
        return CanLog(f for f in self if start <= f.timestamp < end)

    def with_id(self, can_id: int) -> "CanLog":
        """Frames carrying the given arbitration id."""
        return CanLog(f for f in self if f.can_id == can_id)

    def ids(self) -> List[int]:
        """Distinct CAN ids in first-seen order."""
        seen: List[int] = []
        known = set()
        for frame in self:
            if frame.can_id not in known:
                known.add(frame.can_id)
                seen.append(frame.can_id)
        return seen

    # -------------------------------------------------------------------- I/O

    def save(self, path: Union[str, Path]) -> None:
        """Write the log in ``candump -L`` format."""
        text = "\n".join(frame_to_candump(f) for f in self)
        Path(path).write_text(text + ("\n" if text else ""))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CanLog":
        """Read a log previously written by :meth:`save` (or candump)."""
        log = cls()
        for line in Path(path).read_text().splitlines():
            if line.strip():
                log.append(frame_from_candump(line))
        return log


class Sniffer:
    """An OBD-port sniffer: a bus tap that accumulates a :class:`CanLog`."""

    def __init__(self) -> None:
        self.log = CanLog()

    def __call__(self, frame: CanFrame) -> None:
        self.log.append(frame)

    def attach_to(self, bus) -> "Sniffer":
        """Register on ``bus`` and return self for chaining."""
        bus.add_tap(self)
        return self
