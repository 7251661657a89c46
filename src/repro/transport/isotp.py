"""ISO 15765-2 (ISO-TP / DoCAN) transport protocol.

Four protocol control information (PCI) types exist, distinguished by the
high nibble of the first PCI byte (Fig. 7 of the paper):

====  ===================  =========================================
 PCI  Frame type           Layout
====  ===================  =========================================
 0x0  Single frame (SF)    ``0L dd dd ...``      L = length (1..7)
 0x1  First frame (FF)     ``1L LL dd ...``      12-bit total length
 0x2  Consecutive (CF)     ``2N dd dd ...``      N = sequence 1..15,0,..
 0x3  Flow control (FC)    ``3S BS ST``          S = flow status
====  ===================  =========================================

The sender of a multi-frame message transmits the FF, waits for a flow
control frame from the receiver (flow status 0 = continue to send), then
sends consecutive frames honouring the advertised block size and minimum
separation time.

This module provides:

* :func:`segment` / :class:`IsoTpReassembler` — stateless encoding and
  stateful decoding, used both by the simulator and by the offline
  payload-assembly stage of DP-Reverser;
* :class:`IsoTpEndpoint` — a bus-attached endpoint implementing the full
  handshake, used by simulated ECUs and diagnostic tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Tuple

from ..can import CanFrame, MAX_DATA_LENGTH
from .base import (
    DEFAULT_HARDENING,
    DecodeEvent,
    HardeningPolicy,
    TransportDecoder,
    TransportError,
)

SF_MAX_PAYLOAD = 7
FF_PAYLOAD = 6
CF_PAYLOAD = 7
MAX_MESSAGE_LENGTH = 0xFFF  # 12-bit length field


class PciType(IntEnum):
    """High nibble of the first PCI byte."""

    SINGLE = 0x0
    FIRST = 0x1
    CONSECUTIVE = 0x2
    FLOW_CONTROL = 0x3


class FlowStatus(IntEnum):
    """Flow status values carried by flow-control frames."""

    CONTINUE = 0x0
    WAIT = 0x1
    OVERFLOW = 0x2


def pci_type(frame_data: bytes) -> PciType:
    """Classify a raw CAN data field by its ISO-TP PCI nibble."""
    if not frame_data:
        raise TransportError("empty CAN data field has no PCI")
    nibble = frame_data[0] >> 4
    try:
        return PciType(nibble)
    except ValueError as exc:
        raise TransportError(f"unknown ISO-TP PCI nibble {nibble:#x}") from exc


@dataclass(frozen=True)
class FlowControl:
    """Decoded flow-control parameters."""

    status: FlowStatus
    block_size: int = 0  # 0 = send everything without further FC
    st_min_ms: float = 0.0

    def encode(self) -> bytes:
        st = int(self.st_min_ms)
        return bytes([0x30 | self.status, self.block_size, st])

    @classmethod
    def decode(cls, data: bytes) -> "FlowControl":
        if len(data) < 3 or data[0] >> 4 != PciType.FLOW_CONTROL:
            raise TransportError(f"not a flow-control frame: {data.hex()}")
        return cls(FlowStatus(data[0] & 0x0F), data[1], float(data[2]))


def segment(
    payload: bytes,
    can_id: int,
    padding: Optional[int] = 0x00,
    frame_capacity: int = MAX_DATA_LENGTH,
) -> List[CanFrame]:
    """Segment ``payload`` into ISO-TP frames (without flow control).

    Flow-control frames travel in the opposite direction, so the pure
    sender-side segmentation never contains them.  ``padding`` fills unused
    data bytes (classic CAN tools pad to 8 bytes; ``None`` disables
    padding).  ``frame_capacity`` is the usable data-field size per frame —
    8 for normal addressing, 7 for extended addressing where the first byte
    carries the target address.
    """
    if not payload:
        raise TransportError("cannot segment an empty payload")
    if len(payload) > MAX_MESSAGE_LENGTH:
        raise TransportError(
            f"payload of {len(payload)} bytes exceeds ISO-TP 12-bit length"
        )
    if not 3 <= frame_capacity <= MAX_DATA_LENGTH:
        raise TransportError(f"frame capacity {frame_capacity} out of range")
    sf_max = frame_capacity - 1
    ff_payload = frame_capacity - 2
    cf_payload = frame_capacity - 1

    def pad(data: bytes) -> bytes:
        if padding is None or len(data) >= frame_capacity:
            return data
        return data + bytes([padding]) * (frame_capacity - len(data))

    frames: List[CanFrame] = []
    if len(payload) <= sf_max:
        data = bytes([len(payload)]) + payload
        frames.append(CanFrame(can_id, pad(data)))
        return frames

    length = len(payload)
    first = bytes([0x10 | (length >> 8), length & 0xFF]) + payload[:ff_payload]
    frames.append(CanFrame(can_id, first))
    offset = ff_payload
    sequence = 1
    while offset < length:
        chunk = payload[offset : offset + cf_payload]
        frames.append(CanFrame(can_id, pad(bytes([0x20 | sequence]) + chunk)))
        offset += cf_payload
        sequence = (sequence + 1) % 16
    return frames


#: A capture drop of this many consecutive frames or fewer is plausible
#: sniffer loss; a larger sequence jump mid-message is classified as
#: adversarial sequence poisoning and the frame is dropped.
PLAUSIBLE_DROP_FRAMES = 3


class _ReassemblyContext:
    """One speculative partial message of an ISO-TP stream."""

    __slots__ = (
        "buffer",
        "expected_length",
        "next_sequence",
        "last_active",
        "t_first",
        "n_frames",
        "overtaken",
    )

    def __init__(self, data: bytes, length: int, tick: int, timestamp: float) -> None:
        self.buffer = bytearray(data)
        self.expected_length = length
        self.next_sequence = 1
        self.last_active = tick
        self.t_first = timestamp
        self.n_frames = 1
        #: A consecutive frame extended a newer context but not this one.
        self.overtaken = False


class IsoTpReassembler(TransportDecoder):
    """Stateful reassembly of one direction of an ISO-TP conversation.

    Feed frames in capture order; :meth:`feed` returns the
    :class:`~repro.transport.base.DecodeEvent`\\ s each frame produced — a
    ``payload`` event whenever a message completes, carrying the message's
    first-frame timestamp and frame count.  Flow-control frames are
    ignored (they carry no payload), matching Step 1 of the paper's
    diagnostic-frames analysis.

    Built for sniffed, possibly hostile traffic, the decoder never raises
    on stream content and runs *bounded speculative reassembly* under its
    :class:`~repro.transport.base.HardeningPolicy`:

    * up to ``max_contexts_per_stream`` partial messages are kept
      concurrently — a first frame never abandons an in-flight transfer,
      so an attacker racing the victim with its own first frame cannot
      starve it;
    * each consecutive frame extends every context expecting its sequence
      number; when one frame completes several, only one is emitted and
      the rest are abandoned (``resync``).  The older contexts then got
      none of their own consecutive frames: if they shared at most
      :data:`PLAUSIBLE_DROP_FRAMES` with the newest, the sniffer plausibly
      lost theirs and the most recently opened context wins; past that,
      the newer contexts were injected and the oldest wins;
    * a context that misses a frame a newer context took is marked
      *overtaken*; if a later frame fits both, the frame is the newer
      transfer's and the overtaken context is abandoned instead of
      spliced, while a frame only it takes proves its own sender is still
      transmitting and clears the mark;
    * a duplicate consecutive frame (the sequence number just consumed) is
      dropped with an ``error`` event — the message still completes;
    * a short forward sequence jump is plausible sniffer loss and abandons
      the longest-waiting context; a longer one is classified as
      poisoning and the frame is dropped (``error``);
    * a single frame abandons every partial message on the stream (the
      ISO 15765-2 receiver rule) before it is emitted;
    * the per-stream byte budget evicts the least recently active context
      first.

    On a clean capture exactly one context ever exists.
    """

    KIND = "isotp"

    def __init__(self, strict: bool = True, hardening: HardeningPolicy = DEFAULT_HARDENING) -> None:
        super().__init__(strict)
        self.hardening = hardening
        self._contexts: List[_ReassemblyContext] = []  # in opening order
        self._tick = 0

    @property
    def idle(self) -> bool:
        return not self._contexts

    @property
    def buffered_bytes(self) -> int:
        return sum(len(context.buffer) for context in self._contexts)

    def evict_partial(self) -> int:
        freed = self.buffered_bytes
        for context in list(self._contexts):
            self._abandon(context, "global byte budget", stale=True)
        return freed

    def open_transfer(self) -> Optional[Tuple[int, int]]:
        """``(next_sequence, bytes_missing)`` of the one partial message.

        ``None`` unless exactly one context is open and it is not
        overtaken: only then does a run of in-sequence consecutive frames
        that reaches the announced length provably complete it and leave
        the decoder idle.
        """
        if len(self._contexts) != 1 or self._contexts[0].overtaken:
            return None
        context = self._contexts[0]
        return context.next_sequence, context.expected_length - len(context.buffer)

    def _abandon(self, context: _ReassemblyContext, why: str, stale: bool = False) -> DecodeEvent:
        """Drop one partial message and account the loss."""
        self._contexts.remove(context)
        self.stats.resyncs += 1
        self.stats.messages_lost += 1
        self.stats.bytes_discarded += len(context.buffer)
        if stale:
            self.stats.stale_stream_evictions += 1
            return DecodeEvent.resync(f"stale partial message evicted ({why})")
        return DecodeEvent.resync(why)

    def _evict_over_bounds(self) -> List[DecodeEvent]:
        """Shed least recently active contexts beyond the policy's caps."""
        policy = self.hardening
        events: List[DecodeEvent] = []
        while len(self._contexts) > policy.max_contexts_per_stream:
            events.append(self._abandon(self._least_recent(), "context cap", stale=True))
        while self._contexts and self.buffered_bytes > policy.per_stream_budget:
            events.append(self._abandon(self._least_recent(), "stream byte budget", stale=True))
        return events

    def _least_recent(self) -> _ReassemblyContext:
        return min(self._contexts, key=lambda c: c.last_active)

    def _error(self, detail: str) -> DecodeEvent:
        self.stats.errors += 1
        return DecodeEvent.error(detail)

    def feed(self, frame: CanFrame) -> List[DecodeEvent]:
        self.stats.frames += 1
        data = frame.data
        try:
            kind = pci_type(data)
        except TransportError as exc:
            return [self._error(str(exc))]
        if kind == PciType.FLOW_CONTROL:
            return []
        self._tick += 1
        if kind == PciType.SINGLE:
            length = data[0] & 0x0F
            if length == 0 or length > SF_MAX_PAYLOAD or length > len(data) - 1:
                return [self._error(f"bad single-frame length in {data.hex()}")]
            events = [
                self._abandon(context, "single frame interrupted a multi-frame message")
                for context in list(self._contexts)
            ]
            self.stats.payloads += 1
            events.append(DecodeEvent.message(bytes(data[1 : 1 + length]), frame.timestamp, 1))
            return events
        if kind == PciType.FIRST:
            if len(data) < 3:
                return [self._error(f"truncated first frame {data.hex()}")]
            length = ((data[0] & 0x0F) << 8) | data[1]
            # A first frame announcing a tiny length is malformed.  The
            # threshold is the *extended-addressing* single-frame maximum
            # (6), since those streams reach us with the address stripped.
            if length <= SF_MAX_PAYLOAD - 1:
                return [
                    self._error(
                        f"first frame announces {length} bytes, "
                        "which would fit a single frame"
                    )
                ]
            if self._contexts:
                # Detection: an FF landing on a busy stream is exactly the
                # shape of a session-starvation attack.
                self.stats.suspected_starvation += 1
            self._contexts.append(_ReassemblyContext(data[2:], length, self._tick, frame.timestamp))
            return self._evict_over_bounds()
        # Consecutive frame.
        if not self._contexts:
            return [self._error("consecutive frame without a first frame")]
        sequence = data[0] & 0x0F
        extended = [c for c in self._contexts if c.next_sequence == sequence]
        if extended:
            events = []
            newest = extended[-1]
            for context in self._contexts[: self._contexts.index(newest)]:
                if context.next_sequence != sequence:
                    context.overtaken = True
                elif context.overtaken:
                    # It already missed a frame the newer transfer took, so
                    # this one is the newer transfer's too: no splice.
                    extended.remove(context)
                    events.append(self._abandon(context, "overtaken by a newer message"))
            newest.overtaken = False
            completed: List[_ReassemblyContext] = []
            for context in extended:
                context.next_sequence = (sequence + 1) % 16
                context.buffer.extend(data[1:])
                context.last_active = self._tick
                context.n_frames += 1
                if len(context.buffer) >= context.expected_length:
                    completed.append(context)
            if completed:
                # One frame belongs to one transfer.  Contexts complete
                # together when the older ones got none of their own
                # frames: either the sniffer lost them all and the newest
                # is the real message, or the newer ones were injected.
                shared = completed[-1].n_frames - 1
                winner = completed.pop(0 if shared > PLAUSIBLE_DROP_FRAMES else -1)
                events += [
                    self._abandon(context, "consecutive frame completed a newer message")
                    for context in completed
                ]
                self._contexts.remove(winner)
                self.stats.payloads += 1
                events.append(
                    DecodeEvent.message(
                        bytes(winner.buffer[: winner.expected_length]),
                        winner.t_first,
                        winner.n_frames,
                    )
                )
            return events + self._evict_over_bounds()
        recent = max(self._contexts, key=lambda c: c.last_active)
        if sequence == (recent.next_sequence - 1) % 16:
            # The frame just consumed, seen again: a duplicated capture,
            # not a lost one.  Ignore it and keep the message.
            return [self._error(f"duplicate consecutive frame {sequence}")]
        oldest = self._least_recent()
        if 1 <= (sequence - oldest.next_sequence) % 16 <= PLAUSIBLE_DROP_FRAMES:
            # Plausible sniffer drop on the longest-waiting transfer.
            return [
                self._abandon(
                    oldest,
                    f"sequence gap: expected {oldest.next_sequence}, got {sequence}",
                )
            ]
        self.stats.sequence_poisonings += 1
        return [
            self._error(f"alien consecutive frame {sequence} dropped (poisoning suspected)")
        ]


class IsoTpEndpoint:
    """A bus-attached ISO-TP endpoint with the full flow-control handshake.

    The endpoint transmits on ``tx_id`` and listens on ``rx_id``.  When it
    receives a first frame it immediately answers with a flow-control frame
    (continue-to-send); when it sends a multi-frame message it waits for the
    peer's flow control, which on the simulated bus arrives synchronously.
    Flow control is taken with bounded trust (:meth:`_accept_flow_control`)
    under :data:`~repro.transport.base.DEFAULT_HARDENING`.
    """

    def __init__(
        self,
        bus,
        name: str,
        tx_id: int,
        rx_id: int,
        block_size: int = 0,
        st_min_ms: float = 0.0,
        padding: Optional[int] = 0x00,
        on_message=None,
    ) -> None:
        from ..can import BusNode

        self.tx_id = tx_id
        self.rx_id = rx_id
        self.block_size = block_size
        self.st_min_ms = st_min_ms
        self.padding = padding
        self.on_message = on_message
        self._reassembler = IsoTpReassembler()
        self._inbox: List[bytes] = []
        self._fc_window = 0  # frames the peer allowed us to send
        self._peer_st_min_ms = 0.0  # pacing the peer demanded
        self._awaiting_fc = False
        self._cf_since_fc = 0  # receiver side: CFs since our last FC
        self._receiving_multi = False
        self._sending = False  # inside a multi-frame send() right now
        self._fc_accepted = 0  # FC grants taken for the current send
        self.fc_sent = 0
        #: Flow-control frames rejected as unsolicited or conflicting —
        #: the live-endpoint face of ``DecoderStats.fc_violations``.
        self.fc_rejected = 0
        self.node = BusNode(name, handler=self._on_frame)
        bus.attach(self.node)

    # ---------------------------------------------------------------- receive

    def _on_frame(self, frame: CanFrame) -> None:
        if frame.can_id != self.rx_id:
            return
        kind = pci_type(frame.data)
        if kind == PciType.FLOW_CONTROL:
            self._accept_flow_control(FlowControl.decode(frame.data))
            return
        payload = self._reassembler.feed_payloads(frame)
        if kind == PciType.FIRST:
            self._receiving_multi = True
            self._cf_since_fc = 0
            self._send_flow_control()
        elif kind == PciType.CONSECUTIVE and self._receiving_multi:
            self._cf_since_fc += 1
            # Block complete but message not finished: grant the next block.
            if (
                payload is None
                and self.block_size
                and self._cf_since_fc >= self.block_size
            ):
                self._cf_since_fc = 0
                self._send_flow_control()
        if payload is not None:
            self._receiving_multi = False
            if self.on_message is not None:
                self.on_message(payload)
            else:
                self._inbox.append(payload)

    def _accept_flow_control(self, control: FlowControl) -> None:
        """FC intake with bounded trust in what the wire claims.

        A grant is honoured only while a transfer is actually in flight;
        when two grants race for the same first frame (the genuine peer
        and a spoofer answering the same FF), the *most permissive* wins —
        a denial-of-service spoof is by construction less permissive than
        the real receiver, so the victim keeps its throughput while the
        conflict is counted.  STmin is clamped to ``max_st_min_ms``.
        """
        if not (self._sending or self._awaiting_fc):
            self.fc_rejected += 1
            self._reassembler.stats.fc_violations += 1
            return
        if control.status == FlowStatus.WAIT:
            return  # hold; the sender keeps waiting for a real grant
        st_min = min(control.st_min_ms, DEFAULT_HARDENING.max_st_min_ms)
        window = 0  # OVERFLOW: no window at all
        if control.status == FlowStatus.CONTINUE:
            window = control.block_size or -1  # -1 = unlimited
        self._fc_accepted += 1
        if self._fc_accepted == 1 or self._fc_window == 0:
            # First grant of this handshake, or the next-block grant after
            # an exhausted window: taken at face value.
            self._fc_window = window
            self._peer_st_min_ms = st_min
            self._awaiting_fc = False
            return
        # A second grant while a window is still open: someone is lying.
        self.fc_rejected += 1
        self._reassembler.stats.fc_violations += 1
        if self._fc_window != -1 and (window == -1 or window > self._fc_window):
            self._fc_window = window
        self._peer_st_min_ms = min(self._peer_st_min_ms, st_min)
        self._awaiting_fc = False

    def _send_flow_control(self) -> None:
        control = FlowControl(FlowStatus.CONTINUE, self.block_size, self.st_min_ms)
        data = control.encode()
        if self.padding is not None:
            data = data + bytes([self.padding]) * (MAX_DATA_LENGTH - len(data))
        self.fc_sent += 1
        self.node.send(CanFrame(self.tx_id, data))

    def receive(self) -> Optional[bytes]:
        """Pop the oldest fully reassembled message, if any."""
        return self._inbox.pop(0) if self._inbox else None

    def pending(self) -> int:
        return len(self._inbox)

    # ------------------------------------------------------------------- send

    def send(self, payload: bytes) -> List[CanFrame]:
        """Send ``payload``, performing the FC handshake for long messages."""
        frames = segment(payload, self.tx_id, self.padding)
        sent: List[CanFrame] = []
        if len(frames) == 1:
            sent.append(self.node.send(frames[0]))
            return sent
        self._sending = True
        self._fc_accepted = 0
        try:
            self._awaiting_fc = True
            sent.append(self.node.send(frames[0]))  # FF; peer answers FC inline
            if self._awaiting_fc:
                raise TransportError(
                    f"no flow control received after first frame on {self.tx_id:#x}"
                )
            for frame in frames[1:]:
                if self._fc_window == 0:
                    # The peer grants the next block with a fresh FC, which on
                    # the synchronous bus arrives nested inside the previous
                    # CF's delivery; reaching zero here means it never came.
                    raise TransportError("peer block size exhausted without new FC")
                if self._fc_window > 0:
                    # Reserve the slot *before* sending: the block-completing
                    # CF's delivery carries the peer's next grant nested inside,
                    # which must not be consumed by this frame's accounting.
                    self._fc_window -= 1
                if self._peer_st_min_ms:
                    # Honour the peer's minimum separation time between CFs.
                    self.node.bus.clock.advance(self._peer_st_min_ms / 1000.0)
                sent.append(self.node.send(frame))
        finally:
            self._sending = False
        return sent
