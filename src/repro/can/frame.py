"""CAN frame primitives.

A CAN 2.0 data frame carries an 11-bit (standard) or 29-bit (extended)
identifier and up to eight data bytes.  Lower identifier values win bus
arbitration, i.e. they have higher priority.  This module defines the frame
value object used throughout the simulator and the reverse-engineering
pipeline, together with a few helpers for rendering frames in the familiar
``candump`` style.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_STANDARD_ID = 0x7FF
MAX_EXTENDED_ID = 0x1FFFFFFF
MAX_DATA_LENGTH = 8


class CanError(Exception):
    """Base class for errors raised by the CAN layer."""


class InvalidFrameError(CanError):
    """Raised when a frame violates the CAN 2.0 specification."""


@dataclass(frozen=True)
class CanFrame:
    """An immutable CAN 2.0 data frame.

    Attributes:
        can_id: Arbitration identifier.  Must fit in 11 bits unless
            ``extended`` is true, in which case 29 bits are allowed.
        data: Zero to eight payload bytes.
        timestamp: Seconds since the start of the capture (simulated time).
        extended: Whether the identifier uses the 29-bit extended format.
        channel: Name of the bus the frame was observed on.
    """

    can_id: int
    data: bytes
    timestamp: float = 0.0
    extended: bool = False
    channel: str = "can0"

    def __post_init__(self) -> None:
        limit = MAX_EXTENDED_ID if self.extended else MAX_STANDARD_ID
        if not 0 <= self.can_id <= limit:
            raise InvalidFrameError(
                f"CAN id {self.can_id:#x} out of range for "
                f"{'extended' if self.extended else 'standard'} frame"
            )
        if len(self.data) > MAX_DATA_LENGTH:
            raise InvalidFrameError(
                f"CAN data field holds at most {MAX_DATA_LENGTH} bytes, "
                f"got {len(self.data)}"
            )
        # dataclass(frozen=True) forbids plain assignment; normalise via
        # object.__setattr__ so callers may pass bytearray or list.
        object.__setattr__(self, "data", bytes(self.data))

    @property
    def dlc(self) -> int:
        """Data length code (number of payload bytes)."""
        return len(self.data)

    def priority_beats(self, other: "CanFrame") -> bool:
        """Return True when this frame wins arbitration against ``other``."""
        return self.can_id < other.can_id

    def hex_data(self) -> str:
        """Payload as uppercase space-separated hex, e.g. ``"02 10 03"``."""
        return " ".join(f"{b:02X}" for b in self.data)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ident = f"{self.can_id:08X}" if self.extended else f"{self.can_id:03X}"
        return f"({self.timestamp:012.6f}) {self.channel} {ident}#{self.data.hex().upper()}"

    def with_timestamp(self, timestamp: float) -> "CanFrame":
        """Return a copy of this frame stamped at ``timestamp``."""
        return CanFrame(
            can_id=self.can_id,
            data=self.data,
            timestamp=timestamp,
            extended=self.extended,
            channel=self.channel,
        )


def frame_from_candump(line: str) -> CanFrame:
    """Parse one line in ``candump -L`` format.

    Format: ``(1617000000.123456) can0 7E0#0210030000000000``
    """
    line = line.strip()
    if not line:
        raise InvalidFrameError("empty candump line")
    try:
        ts_part, channel, id_data = line.split()
        timestamp = float(ts_part.strip("()"))
        id_text, __, data_text = id_data.partition("#")
        can_id = int(id_text, 16)
        data = bytes.fromhex(data_text) if data_text else b""
    except ValueError as exc:
        raise InvalidFrameError(f"malformed candump line: {line!r}") from exc
    extended = len(id_text) > 3
    return CanFrame(can_id, data, timestamp=timestamp, extended=extended, channel=channel)


def frame_to_candump(frame: CanFrame) -> str:
    """Render ``frame`` as one ``candump -L`` style line."""
    ident = f"{frame.can_id:08X}" if frame.extended else f"{frame.can_id:03X}"
    return f"({frame.timestamp:.6f}) {frame.channel} {ident}#{frame.data.hex().upper()}"
