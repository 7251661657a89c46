"""VW TP 2.0 — Volkswagen's channel-oriented transport protocol.

Unlike ISO-TP, TP 2.0 is connection oriented.  A session proceeds through
three stages (all of which DP-Reverser must screen out, because only data
frames carry diagnostic payload):

1. **Channel setup** — the tester broadcasts a setup request on CAN id
   ``0x200``; the ECU answers on ``0x200 + ecu_address`` proposing the data
   CAN ids both sides will use.
2. **Channel parameters** — opcode ``0xA0`` request / ``0xA1`` response
   negotiating block size and timing parameters.
3. **Data transmission** — each frame starts with an opcode byte whose high
   nibble encodes *more/last packet* and *ACK expected*, and whose low
   nibble carries a 4-bit sequence number::

       0x0N  more packets follow, ACK expected after this block
       0x1N  last packet of the message, ACK expected
       0x2N  more packets follow, no ACK
       0x3N  last packet, no ACK
       0xBN  acknowledge, next expected sequence N

   Data frames carry **no length field**: message boundaries are determined
   solely by the *last packet* opcodes, which is exactly the property the
   paper's payload-assembly step relies on (§3.2, Step 2).
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Tuple

from ..can import CanFrame
from .base import DecodeEvent, TransportDecoder, TransportError
from .isotp import PLAUSIBLE_DROP_FRAMES

BROADCAST_ID_BASE = 0x200
SETUP_REQUEST_OPCODE = 0xC0
SETUP_RESPONSE_OPCODE = 0xD0
PARAMS_REQUEST_OPCODE = 0xA0
PARAMS_RESPONSE_OPCODE = 0xA1
CHANNEL_TEST_OPCODE = 0xA3
DISCONNECT_OPCODE = 0xA8
ACK_OPCODE_NIBBLE = 0xB
NACK_OPCODE_NIBBLE = 0x9
DATA_BYTES_PER_FRAME = 7

OP_MORE_ACK = 0x0
OP_LAST_ACK = 0x1
OP_MORE_NOACK = 0x2
OP_LAST_NOACK = 0x3


class VwTpFrameKind(Enum):
    """Classification used by the screening stage (§3.2 Step 1)."""

    BROADCAST_SETUP = "broadcast_setup"
    CHANNEL_PARAMS = "channel_params"
    ACK = "ack"
    DATA = "data"
    OTHER = "other"


def classify_vwtp_frame(frame: CanFrame) -> VwTpFrameKind:
    """Classify a captured frame of a VW TP 2.0 session.

    Setup frames live in the broadcast id range; everything else is keyed on
    the opcode byte.
    """
    if not frame.data:
        return VwTpFrameKind.OTHER
    if BROADCAST_ID_BASE <= frame.can_id <= BROADCAST_ID_BASE + 0xFF and len(
        frame.data
    ) >= 2 and frame.data[1] in (SETUP_REQUEST_OPCODE, SETUP_RESPONSE_OPCODE):
        return VwTpFrameKind.BROADCAST_SETUP
    opcode = frame.data[0]
    if opcode in (
        PARAMS_REQUEST_OPCODE,
        PARAMS_RESPONSE_OPCODE,
        CHANNEL_TEST_OPCODE,
        DISCONNECT_OPCODE,
    ):
        return VwTpFrameKind.CHANNEL_PARAMS
    nibble = opcode >> 4
    if nibble in (ACK_OPCODE_NIBBLE, NACK_OPCODE_NIBBLE):
        return VwTpFrameKind.ACK
    if nibble in (OP_MORE_ACK, OP_LAST_ACK, OP_MORE_NOACK, OP_LAST_NOACK):
        return VwTpFrameKind.DATA
    return VwTpFrameKind.OTHER


def is_last_packet(frame: CanFrame) -> bool:
    """True when a *data* frame's opcode marks the end of a message."""
    nibble = frame.data[0] >> 4
    return nibble in (OP_LAST_ACK, OP_LAST_NOACK)


def segment_vwtp(payload: bytes, can_id: int, start_sequence: int = 0) -> List[CanFrame]:
    """Segment ``payload`` into TP 2.0 data frames.

    Every frame except the last uses the *more packets, ACK expected* opcode;
    the final frame uses *last packet, ACK expected*.
    """
    if not payload:
        raise TransportError("cannot segment an empty payload")
    chunks = [
        payload[i : i + DATA_BYTES_PER_FRAME]
        for i in range(0, len(payload), DATA_BYTES_PER_FRAME)
    ]
    frames: List[CanFrame] = []
    sequence = start_sequence % 16
    for index, chunk in enumerate(chunks):
        op = OP_LAST_ACK if index == len(chunks) - 1 else OP_MORE_ACK
        frames.append(CanFrame(can_id, bytes([(op << 4) | sequence]) + chunk))
        sequence = (sequence + 1) % 16
    return frames


# TP 2.0 data frames carry no length field, so a missed last-packet opcode
# would otherwise grow the buffer without bound.  Cap at the same 4095-byte
# ceiling ISO-TP's 12-bit length imposes; no real diagnostic message is
# larger.
MAX_BUFFERED_BYTES = 0xFFF


class VwTpReassembler(TransportDecoder):
    """Reassemble one direction of a TP 2.0 data stream.

    Matches the paper exactly: data frames carry no length field, so the
    opcode's last-packet bit delimits messages.  :meth:`feed` returns
    :class:`~repro.transport.base.DecodeEvent`\\ s and never raises on
    stream content:

    * a duplicated data frame (the sequence number just consumed) is
      dropped with an ``error`` event;
    * a sequence jump too large to be sniffer loss (more than
      :data:`~repro.transport.isotp.PLAUSIBLE_DROP_FRAMES` frames) in the
      middle of a buffered message is judged an injected data frame and
      *dropped* (``error``) unless it is a last packet — the buffered
      message keeps its sequence lock and completes when the genuine
      frames arrive;
    * any other sequence gap abandons the buffered message (``resync``) and
      the gapped frame starts a fresh one — without a length field that is
      the only way to re-lock (a lost last packet followed by a restarted
      counter re-locks this way too);
    * a message abandoned for such a far-jumped last packet is kept aside
      for one more data frame: if that frame continues its sequence and is
      not itself a last packet, the jumped packet was injected and the
      message resumes, its loss uncounted.  A continuing *last* packet
      re-locks instead, because it is exactly what a new one-frame message
      after a lost last packet looks like;
    * exceeding :data:`MAX_BUFFERED_BYTES` (a lost last-packet opcode)
      abandons the buffer with a ``resync`` marked as an overflow.

    No :class:`~repro.transport.base.HardeningPolicy` bound applies to
    TP 2.0, so unlike the other decoders this one takes none.
    """

    KIND = "vwtp"

    def __init__(self, strict: bool = True) -> None:
        super().__init__(strict)
        self._buffer = bytearray()
        self._next_sequence: Optional[int] = None
        self._t_first = 0.0  # timestamp of the buffered message's first frame
        self._n_frames = 0  # frames in the buffered message (0 = none)
        # The message a far-jumped last packet abandoned, kept for one frame:
        # (buffer, next sequence, t_first, n_frames).
        self._set_aside: Optional[Tuple[bytearray, int, float, int]] = None

    def reset(self) -> None:
        self._buffer = bytearray()
        self._next_sequence = None
        self._n_frames = 0
        self._set_aside = None

    @property
    def idle(self) -> bool:
        return not self._n_frames

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def evict_partial(self) -> int:
        freed = len(self._buffer)
        if self._n_frames:
            self.stats.resyncs += 1
            self.stats.messages_lost += 1
            self.stats.bytes_discarded += freed
            self.stats.stale_stream_evictions += 1
            self.reset()
        return freed

    def _abandon(self, detail: str, overflow: bool = False) -> DecodeEvent:
        self.stats.resyncs += 1
        self.stats.messages_lost += 1
        self.stats.bytes_discarded += len(self._buffer)
        if overflow:
            self.stats.overflows += 1
        self.reset()
        return DecodeEvent.resync(detail)

    def feed(self, frame: CanFrame) -> List[DecodeEvent]:
        self.stats.frames += 1
        kind = classify_vwtp_frame(frame)
        if kind != VwTpFrameKind.DATA:
            return []
        events: List[DecodeEvent] = []
        sequence = frame.data[0] & 0x0F
        last = is_last_packet(frame)
        previous, self._set_aside = self._set_aside, None
        if previous is not None and sequence == previous[1] and not last:
            # The genuine stream went on: the jumped last packet was alien.
            self._buffer, self._next_sequence, self._t_first, self._n_frames = previous
            self.stats.messages_lost -= 1
            self.stats.bytes_discarded -= len(self._buffer)
        if self._next_sequence is not None and sequence != self._next_sequence:
            aside = None
            if sequence == (self._next_sequence - 1) % 16:
                # The frame we just consumed, captured twice.
                self.stats.errors += 1
                return [DecodeEvent.error(f"duplicate TP 2.0 data frame {sequence}")]
            if (sequence - self._next_sequence) % 16 > PLAUSIBLE_DROP_FRAMES:
                # Detection: too far ahead to be sniffer loss — the shape
                # of an injected data frame.
                self.stats.sequence_poisonings += 1
                if self._n_frames and not last:
                    # Mid-message: drop the alien frame, keep the buffer;
                    # the genuine stream still holds the sequence lock.
                    self.stats.errors += 1
                    return [
                        DecodeEvent.error(
                            f"alien TP 2.0 data frame {sequence} dropped "
                            "(poisoning suspected)"
                        )
                    ]
                if self._n_frames:
                    # A last packet: injected, or a new one-frame message
                    # after a lost last packet.  The next frame decides.
                    aside = (self._buffer, self._next_sequence, self._t_first, self._n_frames)
            events.append(
                self._abandon(
                    f"TP 2.0 sequence gap: expected {self._next_sequence}, "
                    f"got {sequence}"
                )
            )
            self._set_aside = aside
        if not self._n_frames:
            self._t_first = frame.timestamp
        self._n_frames += 1
        self._next_sequence = (sequence + 1) % 16
        self._buffer.extend(frame.data[1:])
        if len(self._buffer) > MAX_BUFFERED_BYTES:
            events.append(
                self._abandon(
                    "TP 2.0 buffer overflow: no last-packet opcode within "
                    f"{MAX_BUFFERED_BYTES} bytes",
                    overflow=True,
                )
            )
            return events
        if last:
            payload = bytes(self._buffer)
            self._buffer = bytearray()
            self.stats.payloads += 1
            events.append(DecodeEvent.message(payload, self._t_first, self._n_frames))
            self._n_frames = 0
        return events


class VwTpEndpoint:
    """A bus-attached TP 2.0 endpoint (either tester or ECU side).

    The tester calls :meth:`connect` which performs channel setup and
    parameter negotiation against a listening ECU endpoint; afterwards both
    sides exchange payloads with :meth:`send` / :meth:`receive`.  ACK frames
    are generated after every completed block and after the last packet.
    """

    def __init__(
        self,
        bus,
        name: str,
        ecu_address: int,
        tx_id: int,
        rx_id: int,
        is_tester: bool,
        block_size: int = 0x0F,
        on_message=None,
    ) -> None:
        from ..can import BusNode

        self.ecu_address = ecu_address
        self.tx_id = tx_id
        self.rx_id = rx_id
        self.is_tester = is_tester
        self.block_size = block_size
        self.on_message = on_message
        self.connected = False
        self._tx_sequence = 0
        self._reassembler = VwTpReassembler()
        self._inbox: List[bytes] = []
        self._frames_since_ack = 0
        self._acked_sequence: Optional[int] = None
        self.node = BusNode(name, handler=self._on_frame)
        bus.attach(self.node)

    # ------------------------------------------------------------- handshake

    def connect(self) -> None:
        """Tester side: broadcast setup then negotiate parameters."""
        if not self.is_tester:
            raise TransportError("only the tester initiates channel setup")
        setup = bytes(
            [
                self.ecu_address,
                SETUP_REQUEST_OPCODE,
                self.rx_id & 0xFF,
                (self.rx_id >> 8) & 0xFF,
                self.tx_id & 0xFF,
                (self.tx_id >> 8) & 0xFF,
                0x01,
            ]
        )
        self.node.send(CanFrame(BROADCAST_ID_BASE, setup))
        params = bytes([PARAMS_REQUEST_OPCODE, self.block_size, 0x8A, 0xFF, 0x32, 0xFF])
        self.node.send(CanFrame(self.tx_id, params))
        if not self.connected:
            raise TransportError("ECU did not complete TP 2.0 channel setup")

    # --------------------------------------------------------------- receive

    def _on_frame(self, frame: CanFrame) -> None:
        kind = classify_vwtp_frame(frame)
        if kind == VwTpFrameKind.BROADCAST_SETUP:
            self._handle_setup(frame)
            return
        if frame.can_id != self.rx_id:
            return
        if kind == VwTpFrameKind.CHANNEL_PARAMS:
            self._handle_params(frame)
            return
        if kind == VwTpFrameKind.ACK:
            self._acked_sequence = frame.data[0] & 0x0F
            return
        if kind != VwTpFrameKind.DATA:
            return
        payload = self._reassembler.feed_payloads(frame)
        self._frames_since_ack += 1
        if is_last_packet(frame) or (
            self.block_size and self._frames_since_ack >= self.block_size
        ):
            next_expected = ((frame.data[0] & 0x0F) + 1) % 16
            self.node.send(
                CanFrame(self.tx_id, bytes([(ACK_OPCODE_NIBBLE << 4) | next_expected]))
            )
            self._frames_since_ack = 0
        if payload is not None:
            if self.on_message is not None:
                self.on_message(payload)
            else:
                self._inbox.append(payload)

    def _handle_setup(self, frame: CanFrame) -> None:
        if self.is_tester:
            if frame.data[1] == SETUP_RESPONSE_OPCODE:
                self.connected = True
            return
        if frame.data[1] != SETUP_REQUEST_OPCODE or frame.data[0] != self.ecu_address:
            return
        response = bytes(
            [
                0x00,
                SETUP_RESPONSE_OPCODE,
                self.rx_id & 0xFF,
                (self.rx_id >> 8) & 0xFF,
                self.tx_id & 0xFF,
                (self.tx_id >> 8) & 0xFF,
                0x01,
            ]
        )
        self.node.send(CanFrame(BROADCAST_ID_BASE + self.ecu_address, response))
        self.connected = True

    def _handle_params(self, frame: CanFrame) -> None:
        if frame.data[0] == PARAMS_REQUEST_OPCODE and not self.is_tester:
            reply = bytes([PARAMS_RESPONSE_OPCODE, self.block_size, 0x8A, 0xFF, 0x32, 0xFF])
            self.node.send(CanFrame(self.tx_id, reply))

    def receive(self) -> Optional[bytes]:
        """Pop the oldest fully reassembled message, if any."""
        return self._inbox.pop(0) if self._inbox else None

    # ------------------------------------------------------------------ send

    def send(self, payload: bytes) -> List[CanFrame]:
        """Send ``payload`` over the established channel."""
        if not self.connected:
            raise TransportError("TP 2.0 channel not connected")
        self._acked_sequence = None
        frames = segment_vwtp(payload, self.tx_id, self._tx_sequence)
        sent = [self.node.send(frame) for frame in frames]
        self._tx_sequence = (self._tx_sequence + len(frames)) % 16
        if self._acked_sequence is None:
            raise TransportError("no TP 2.0 acknowledgement for transmitted block")
        return sent
