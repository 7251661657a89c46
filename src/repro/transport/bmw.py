"""BMW / Mini Cooper style addressed transport.

The paper observes (§3.2, Step 2) that BMW and Mini Cooper do not use plain
ISO 15765-2: *"the first byte of each CAN frame stores the ID of the target
ECU. The remaining bytes are the payload of the diagnostic message."*  This
is ISO-TP *extended addressing*: the address byte comes first and the normal
ISO-TP PCI follows in the second byte, shrinking every frame's data capacity
by one byte.

To recover the payload the pipeline must strip the address byte before
ISO-TP reassembly — which is exactly what :class:`BmwReassembler` does and
what a naive per-frame analysis gets wrong.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..can import CanFrame, MAX_DATA_LENGTH
from .base import (
    DEFAULT_HARDENING,
    EVENT_PAYLOAD,
    DecodeEvent,
    HardeningPolicy,
    TransportDecoder,
    TransportError,
)
from .isotp import IsoTpReassembler, segment


def segment_bmw(payload: bytes, can_id: int, ecu_address: int) -> List[CanFrame]:
    """Segment ``payload`` with a leading ECU-address byte on every frame.

    Internally this is ISO-TP segmentation with 7 usable data bytes per
    frame (the address byte consumes one), then the address is prepended.
    """
    if not 0 <= ecu_address <= 0xFF:
        raise TransportError(f"ECU address {ecu_address:#x} must fit one byte")
    inner = segment(payload, can_id, padding=0x00, frame_capacity=MAX_DATA_LENGTH - 1)
    frames: List[CanFrame] = []
    for frame in inner:
        frames.append(CanFrame(can_id, bytes([ecu_address]) + frame.data))
    return frames


class BmwReassembler(TransportDecoder):
    """Reassemble BMW extended-addressed ISO-TP traffic.

    Strips the leading address byte of every frame (recording the address
    of the current message) and routes the remainder to one ISO-TP
    reassembler per ECU address, all charging one shared
    :class:`~repro.transport.base.DecoderStats`.  Isolating addresses means
    a hostile stream on a spoofed address cannot abandon a victim peer's
    transfer.  Peers with nothing buffered are forgotten at once; beyond
    ``max_contexts_per_stream`` partial peers, or past the per-stream byte
    budget, the least recently active peer's partial message is evicted.
    """

    KIND = "bmw"

    def __init__(self, strict: bool = True, hardening: HardeningPolicy = DEFAULT_HARDENING) -> None:
        super().__init__(strict)
        self.hardening = hardening
        # Only peers holding a partial message, least recently active first.
        self._peers: "OrderedDict[int, IsoTpReassembler]" = OrderedDict()
        self.current_address: Optional[int] = None
        self.last_address: Optional[int] = None

    @property
    def idle(self) -> bool:
        return not self._peers

    @property
    def buffered_bytes(self) -> int:
        return sum(decoder.buffered_bytes for decoder in self._peers.values())

    def evict_partial(self) -> int:
        freed = sum(decoder.evict_partial() for decoder in self._peers.values())
        self._peers.clear()
        return freed

    def open_transfer(self) -> Optional[Tuple[int, int, int]]:
        """``(address, next_sequence, bytes_missing)`` of the one partial
        message, or ``None`` unless exactly one peer holds exactly one
        (see :meth:`IsoTpReassembler.open_transfer`)."""
        if len(self._peers) != 1:
            return None
        ((address, decoder),) = self._peers.items()
        transfer = decoder.open_transfer()
        return None if transfer is None else (address, *transfer)

    def feed(self, frame: CanFrame) -> List[DecodeEvent]:
        if len(frame.data) < 2:
            # Too short to hold address byte + PCI; never reaches a peer
            # decoder, so count it here.
            self.stats.frames += 1
            self.stats.errors += 1
            return [DecodeEvent.error(f"BMW frame too short: {frame.data.hex()}")]
        address = self.current_address = frame.data[0]
        stripped = CanFrame(
            frame.can_id,
            frame.data[1:],
            timestamp=frame.timestamp,
            extended=frame.extended,
            channel=frame.channel,
        )
        decoder = self._peers.get(address)
        if decoder is None:
            decoder = IsoTpReassembler(strict=self.strict, hardening=self.hardening)
            decoder.stats = self.stats
            self._peers[address] = decoder
        else:
            self._peers.move_to_end(address)
        events = decoder.feed(stripped)
        if decoder.idle:
            del self._peers[address]
        policy = self.hardening
        while len(self._peers) > policy.max_contexts_per_stream:
            events.append(self._evict_peer("peer cap"))
        while self._peers and self.buffered_bytes > policy.per_stream_budget:
            events.append(self._evict_peer("stream byte budget"))
        if any(event.kind == EVENT_PAYLOAD for event in events):
            self.last_address = address
        return events

    def _evict_peer(self, why: str) -> DecodeEvent:
        address, decoder = self._peers.popitem(last=False)
        decoder.evict_partial()
        return DecodeEvent.resync(
            f"stale peer {address:#04x} partial message evicted ({why})"
        )


class BmwEndpoint:
    """A bus-attached endpoint speaking BMW extended addressing.

    Like :class:`~repro.transport.isotp.IsoTpEndpoint` but every frame is
    prefixed with the target ECU's address byte, and flow control is not
    used (the simulated gateway forwards frames unconditionally, matching
    the behaviour the paper observed on BMW i3 / Mini Cooper captures).
    """

    def __init__(
        self,
        bus,
        name: str,
        tx_id: int,
        rx_id: int,
        ecu_address: int,
        on_message=None,
    ) -> None:
        from ..can import BusNode

        self.tx_id = tx_id
        self.rx_id = rx_id
        self.ecu_address = ecu_address
        self.on_message = on_message
        self._reassembler = BmwReassembler(strict=False)
        self._inbox: List[bytes] = []
        self.node = BusNode(name, handler=self._on_frame)
        bus.attach(self.node)

    def _on_frame(self, frame: CanFrame) -> None:
        if frame.can_id != self.rx_id:
            return
        payload = self._reassembler.feed_payloads(frame)
        if payload is not None:
            if self.on_message is not None:
                self.on_message(payload)
            else:
                self._inbox.append(payload)

    def receive(self) -> Optional[bytes]:
        return self._inbox.pop(0) if self._inbox else None

    def send(self, payload: bytes) -> List[CanFrame]:
        frames = segment_bmw(payload, self.tx_id, self.ecu_address)
        return [self.node.send(frame) for frame in frames]
