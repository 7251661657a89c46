"""K-Line (ISO 14230-1/2) physical + data-link layer.

KWP 2000 predates CAN diagnostics: its original carrier is the K-Line, a
single bidirectional wire driven like a UART at 10 400 baud (Tab. 1 of the
paper lists ISO 14230-1/2 beside CAN as KWP 2000's data-link options).
This module models:

* the **byte-level line** — every byte takes ``10 bits / baud`` seconds and
  is heard by *all* nodes including the transmitter (single wire);
* **fast init** — the tester pulls the line low for 25 ms, high for 25 ms,
  then sends StartCommunication (0x81); the ECU answers 0xC1 + key bytes;
* **message framing** (ISO 14230-2) — a format byte carrying addressing
  mode and length (or a separate length byte for >63 bytes), optional
  target/source addresses, payload, and an 8-bit additive checksum;
* offline **capture parsing** — a timestamped byte log is split back into
  diagnostic payloads, the K-Line counterpart of the CAN payload-assembly
  stage (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..observability.trace import get_active
from ..simtime import SimClock
from .base import (
    DEFAULT_HARDENING,
    DecodeEvent,
    DecoderStats,
    TransportDecoder,
    TransportError,
)

DEFAULT_BAUD = 10400
BITS_PER_BYTE = 10  # start + 8 data + stop
FAST_INIT_LOW_S = 0.025
FAST_INIT_HIGH_S = 0.025

START_COMMUNICATION = 0x81
START_COMMUNICATION_POSITIVE = 0xC1
FMT_ADDRESS_MODE = 0x80  # header with target/source address bytes
MAX_SHORT_LENGTH = 0x3F


def checksum(data: bytes) -> int:
    """ISO 14230-2 checksum: 8-bit sum over header + payload."""
    return sum(data) & 0xFF


def frame_message(payload: bytes, target: int, source: int) -> bytes:
    """Wrap ``payload`` in an ISO 14230-2 header + checksum.

    Short messages encode the length in the format byte's low six bits;
    longer ones use a separate length byte (format low bits zero).
    """
    if not payload:
        raise TransportError("cannot frame an empty payload")
    if len(payload) > 0xFF:
        raise TransportError(f"KWP payload of {len(payload)} bytes exceeds 255")
    if len(payload) <= MAX_SHORT_LENGTH:
        header = bytes([FMT_ADDRESS_MODE | len(payload), target, source])
    else:
        header = bytes([FMT_ADDRESS_MODE, target, source, len(payload)])
    body = header + payload
    return body + bytes([checksum(body)])


@dataclass(frozen=True)
class KLineMessage:
    """One de-framed K-Line message."""

    payload: bytes
    target: int
    source: int
    t_first: float
    t_last: float
    checksum_ok: bool


# A maximal ISO 14230-2 message is 4 header bytes + 255 payload + checksum
# (260 bytes).  Anything buffered beyond that is a corrupted length field
# holding the parser hostage; bound the buffer and shift to resynchronise.
MAX_BUFFERED_BYTES = 320


class KLineFrameParser:
    """Incremental de-framing of a K-Line byte stream (one direction).

    Carries a :class:`~repro.transport.base.DecoderStats` mirroring the CAN
    decoders' accounting: ``frames`` counts bytes fed, ``payloads`` counts
    messages with a valid checksum, ``errors`` counts checksum failures,
    ``resyncs`` counts format-byte scans that dropped garbage, and
    ``overflows`` counts bounded-buffer evictions.

    Buffered bytes older than
    :data:`~repro.transport.base.DEFAULT_HARDENING`'s ``kline_deadline_s``
    relative to the newest byte are evicted before parsing — a slowloris
    header (announcing a payload that never arrives) can hold at most one
    deadline's worth of real messages hostage instead of swallowing them
    indefinitely.  Real K-Line messages complete within milliseconds at
    10.4 kbaud, so clean captures never age out.
    """

    KIND = "kline"

    def __init__(self) -> None:
        self._buffer: List[Tuple[float, int]] = []
        self.stats = DecoderStats()

    def reset(self) -> None:
        self._buffer.clear()

    def _evict_stale(self, now: float) -> None:
        deadline = DEFAULT_HARDENING.kline_deadline_s
        stale = 0
        while stale < len(self._buffer) and now - self._buffer[stale][0] > deadline:
            stale += 1
        if stale:
            del self._buffer[:stale]
            self.stats.bytes_discarded += stale
            self.stats.stale_stream_evictions += 1
            self.stats.resyncs += 1
            self.stats.messages_lost += 1

    def feed(self, timestamp: float, byte: int) -> Optional[KLineMessage]:
        self.stats.frames += 1
        if self._buffer:
            self._evict_stale(timestamp)
        self._buffer.append((timestamp, byte))
        if len(self._buffer) > MAX_BUFFERED_BYTES:
            # Corrupted header announced more bytes than any real message
            # has; evict the stuck format byte so the scan can re-lock.
            self._buffer.pop(0)
            self.stats.bytes_discarded += 1
            self.stats.overflows += 1
            self.stats.resyncs += 1
            self.stats.messages_lost += 1
        dropped_before = self.stats.bytes_discarded
        message = self._try_parse()
        if self.stats.bytes_discarded > dropped_before:
            self.stats.resyncs += 1
        return message

    def _try_parse(self) -> Optional[KLineMessage]:
        if len(self._buffer) < 4:
            return None
        fmt = self._buffer[0][1]
        if not fmt & FMT_ADDRESS_MODE:
            # Resynchronise: drop garbage until a plausible format byte.
            self._buffer.pop(0)
            self.stats.bytes_discarded += 1
            return self._try_parse()
        length = fmt & MAX_SHORT_LENGTH
        if length:
            header_len = 3
        else:
            header_len = 4
            if len(self._buffer) < header_len:
                return None
            length = self._buffer[3][1]
            if length == 0:
                self._buffer.pop(0)
                self.stats.bytes_discarded += 1
                return self._try_parse()
        total = header_len + length + 1  # + checksum byte
        if len(self._buffer) < total:
            return None
        raw = bytes(b for __, b in self._buffer[:total])
        message = KLineMessage(
            payload=raw[header_len:-1],
            target=raw[1],
            source=raw[2],
            t_first=self._buffer[0][0],
            t_last=self._buffer[total - 1][0],
            checksum_ok=checksum(raw[:-1]) == raw[-1],
        )
        del self._buffer[:total]
        if message.checksum_ok:
            self.stats.payloads += 1
        else:
            self.stats.errors += 1
        return message


class KLineEventDecoder(TransportDecoder):
    """K-Line de-framing behind the CAN decoders' event contract.

    :class:`KLineFrameParser` predates the :meth:`TransportDecoder.feed`
    event API: it consumes ``(timestamp, byte)`` pairs and returns one
    optional :class:`KLineMessage`.  This adapter closes the gap so the
    streaming service can treat all four transports uniformly: each fed
    :class:`~repro.can.CanFrame` carries one or more wire bytes in its
    ``data`` field (stamped with the frame's timestamp), and the decoder
    emits ``payload`` / ``error`` / ``resync`` events exactly like the
    isotp/vwtp/bmw decoders, sharing the parser's :class:`DecoderStats`.

    ``last_message`` keeps the full :class:`KLineMessage` behind the most
    recent ``payload`` event — addressing and per-byte timing that the
    event's bare payload bytes cannot carry, the same trick
    :class:`~repro.transport.bmw.BmwReassembler.last_address` uses.
    """

    KIND = "kline"

    def __init__(self, strict: bool = False) -> None:
        super().__init__(strict)
        self._parser = KLineFrameParser()
        self.stats = self._parser.stats  # one shared accounting object
        self.last_message: Optional[KLineMessage] = None

    @property
    def idle(self) -> bool:
        return not self._parser._buffer

    @property
    def buffered_bytes(self) -> int:
        return len(self._parser._buffer)

    def evict_partial(self) -> int:
        freed = len(self._parser._buffer)
        if freed:
            self.stats.bytes_discarded += freed
            self.stats.messages_lost += 1
            self.stats.resyncs += 1
            self.stats.stale_stream_evictions += 1
            self._parser.reset()
        return freed

    def feed(self, frame) -> List[DecodeEvent]:
        events: List[DecodeEvent] = []
        for value in frame.data:
            resyncs_before = self.stats.resyncs
            evictions_before = self.stats.stale_stream_evictions
            message = self._parser.feed(frame.timestamp, value)
            if self.stats.stale_stream_evictions > evictions_before:
                events.append(
                    DecodeEvent.resync("stale buffered bytes evicted (deadline)")
                )
            elif self.stats.resyncs > resyncs_before:
                events.append(DecodeEvent.resync("format-byte scan dropped garbage"))
            if message is None:
                continue
            if message.checksum_ok:
                self.last_message = message
                events.append(DecodeEvent.message(message.payload))
            else:
                events.append(DecodeEvent.error("checksum mismatch"))
        return events

    def finish(self) -> DecoderStats:
        """End-of-stream accounting: a truncated in-progress message counts
        as lost, mirroring :func:`parse_capture`."""
        if self._parser._buffer:
            self.stats.bytes_discarded += len(self._parser._buffer)
            self.stats.messages_lost += 1
            self._parser.reset()
        return self.stats


@dataclass(frozen=True)
class KLineByte:
    """One byte observed on the wire with its timestamp."""

    timestamp: float
    value: int


class KLineBus:
    """The single-wire medium: every transmitted byte reaches every node."""

    def __init__(self, clock: Optional[SimClock] = None, baud: int = DEFAULT_BAUD) -> None:
        self.clock = clock or SimClock()
        self.baud = baud
        self.byte_time_s = BITS_PER_BYTE / baud
        self._listeners: List[Callable[[KLineByte, str], None]] = []
        self.capture: List[KLineByte] = []  # the sniffer's view
        self.init_events: List[float] = []  # fast-init wake-up pulses

    def add_listener(self, handler: Callable[[KLineByte, str], None]) -> None:
        self._listeners.append(handler)

    def transmit(self, sender: str, data: bytes) -> None:
        """Clock out ``data`` byte by byte."""
        for value in data:
            self.clock.advance(self.byte_time_s)
            byte = KLineByte(self.clock.now(), value)
            self.capture.append(byte)
            for listener in self._listeners:
                listener(byte, sender)

    def fast_init_pulse(self, sender: str) -> None:
        """The 25 ms low / 25 ms high wake-up pattern."""
        self.clock.advance(FAST_INIT_LOW_S + FAST_INIT_HIGH_S)
        self.init_events.append(self.clock.now())


class KLineEndpoint:
    """A node on the K-Line: an ECU (fixed address) or the tester (0xF1)."""

    def __init__(
        self,
        bus: KLineBus,
        name: str,
        address: int,
        on_message: Optional[Callable[[KLineMessage], None]] = None,
    ) -> None:
        self.bus = bus
        self.name = name
        self.address = address
        self.on_message = on_message
        self.communication_started = False
        self._parser = KLineFrameParser()
        self._inbox: List[KLineMessage] = []
        bus.add_listener(self._on_byte)

    def _on_byte(self, byte: KLineByte, sender: str) -> None:
        if sender == self.name:
            return  # ignore our own echo
        message = self._parser.feed(byte.timestamp, byte.value)
        if message is None or message.target != self.address:
            return
        if not message.checksum_ok:
            return  # corrupted messages are dropped, the tester retries
        if self._handle_session_control(message):
            return
        if self.on_message is not None:
            self.on_message(message)
        else:
            self._inbox.append(message)

    def _handle_session_control(self, message: KLineMessage) -> bool:
        if message.payload and message.payload[0] == START_COMMUNICATION:
            self.communication_started = True
            self.send(
                bytes([START_COMMUNICATION_POSITIVE, 0xEA, 0x8F]), target=message.source
            )
            return True
        if message.payload and message.payload[0] == START_COMMUNICATION_POSITIVE:
            self.communication_started = True
            return True
        return False

    def send(self, payload: bytes, target: int) -> None:
        self.bus.transmit(self.name, frame_message(payload, target, self.address))

    def receive(self) -> Optional[KLineMessage]:
        return self._inbox.pop(0) if self._inbox else None


class KLineTester(KLineEndpoint):
    """Tester-side endpoint with the fast-init handshake."""

    TESTER_ADDRESS = 0xF1

    def __init__(self, bus: KLineBus, name: str = "tester") -> None:
        super().__init__(bus, name, self.TESTER_ADDRESS)

    def fast_init(self, ecu_address: int) -> bool:
        """Wake the ECU and start communication (ISO 14230-2 fast init)."""
        self.bus.fast_init_pulse(self.name)
        self.send(bytes([START_COMMUNICATION]), target=ecu_address)
        return self.communication_started

    def request(self, payload: bytes, ecu_address: int) -> Optional[bytes]:
        """One request/response exchange."""
        self.send(payload, target=ecu_address)
        message = self.receive()
        return message.payload if message else None


def parse_capture(
    capture: List[KLineByte], stats: Optional[DecoderStats] = None
) -> List[KLineMessage]:
    """Offline de-framing of a sniffed K-Line byte log.

    The K-Line counterpart of the CAN payload-assembly stage: diagnostic
    payloads are recovered purely from the byte stream (header lengths +
    checksums), interleaved request/response directions included.  Pass a
    :class:`~repro.transport.base.DecoderStats` to collect the parser's
    error accounting (a truncated in-progress message at end of capture is
    counted as lost).
    """
    parser = KLineFrameParser()
    messages: List[KLineMessage] = []
    with get_active().span(
        "decode_stream", decoder=KLineFrameParser.KIND
    ) as span:
        for byte in capture:
            message = parser.feed(byte.timestamp, byte.value)
            if message is not None:
                if message.checksum_ok:
                    messages.append(message)
                # on checksum failure the parser already consumed the bytes;
                # the next message resynchronises via the format-byte scan
        if parser._buffer:
            parser.stats.bytes_discarded += len(parser._buffer)
            parser.stats.messages_lost += 1
        span.set(
            frames=parser.stats.frames,
            payloads=parser.stats.payloads,
            errors=parser.stats.errors,
            resyncs=parser.stats.resyncs,
        )
    if stats is not None:
        stats.merge(parser.stats)
    return messages


def to_assembled_messages(messages: List[KLineMessage]):
    """Convert K-Line messages into :class:`~repro.core.assembly.AssembledMessage`
    rows, which :meth:`~repro.core.assembly.MessageTable.from_messages`
    turns into the table field extraction reads."""
    from ..core.assembly import AssembledMessage

    return [
        AssembledMessage(
            payload=m.payload,
            can_id=m.source,  # direction key: the sender's address
            t_first=m.t_first,
            t_last=m.t_last,
            n_frames=1,
            ecu_address=m.target,
        )
        for m in messages
    ]
