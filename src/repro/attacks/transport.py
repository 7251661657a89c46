"""Seeded TP-layer adversaries against our own transport stack.

PR 3's :class:`~repro.can.noise.FaultInjector` models *accidents* — a lossy
sniffer on a healthy bus.  This module models *adversaries*: deterministic,
seeded attack generators that weaponise exactly the protocol knowledge
DP-Reverser recovers (PCI layout, sequence numbering, flow control,
K-Line framing) against the reassembly stack itself.

Two attachment styles, mirroring how the attacks reach a real fleet:

* **capture attacks** (:class:`CaptureAttack` subclasses) transform a frame
  stream the way :class:`~repro.can.noise.FaultInjector` does —
  ``feed(frame) -> [frames]`` plus ``flush()`` — injecting hostile frames
  between the victim's.  They attack the *offline/streaming decode path*
  (``StreamAssembler`` and everything above it).
* **live attacks** (:class:`FcSpoofAttacker`) attach to a
  :class:`~repro.can.bus.SimulatedCanBus` as reactive nodes and race the
  genuine peer's flow control, attacking the *sender-side endpoint*.

Every attack takes a ``seed`` and is fully deterministic; the attack/defense
matrix in ``benchmarks/test_attack_defense_matrix.py`` runs each one against
the transport stack and regression-gates the recovery floor.  The class
docstrings describe the damage each attack does to a naive single-context
decoder (or a sender trusting the latest flow control) and how the bounded
decoders of :mod:`repro.transport` defeat it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..can import CanFrame
from ..transport.isotp import FlowControl, FlowStatus, PciType
from ..transport.vwtp import (
    OP_LAST_NOACK,
    OP_MORE_NOACK,
    VwTpFrameKind,
    classify_vwtp_frame,
    is_last_packet,
)

#: CAN-id block the exhaustion attack spreads its spoofed streams over.
SPOOF_BASE_ID = 0x700


class CaptureAttack:
    """Base class for frame-stream attacks (FaultInjector-shaped).

    Subclasses implement :meth:`feed`; ``injected`` counts hostile frames
    emitted, which reports use to size the attack.
    """

    name = "attack"

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.injected = 0

    def feed(self, frame: CanFrame) -> List[CanFrame]:
        raise NotImplementedError

    def flush(self) -> List[CanFrame]:
        return []

    def apply(self, frames) -> List[CanFrame]:
        """Transform a whole capture: per-frame feed plus final flush."""
        out: List[CanFrame] = []
        for frame in frames:
            out.extend(self.feed(frame))
        out.extend(self.flush())
        return out

    def _hostile(self, can_id: int, data: bytes, like: CanFrame) -> CanFrame:
        self.injected += 1
        return CanFrame(can_id, data, timestamp=like.timestamp)


class ReassemblyExhaustion(CaptureAttack):
    """Never-completed multi-frame streams across many spoofed CAN ids.

    Every ``interval`` victim frames the attacker opens (or extends) a
    hostile stream on one of ``spoofed_ids`` ids: a first frame announcing
    the maximum 12-bit length, then consecutive frames that never reach
    it.  Unbounded assembly would buffer every one of those streams
    forever; the per-stream and global byte budgets shed them by LRU.
    The victim's own streams live on different ids, so recovery is
    unaffected — the damage axis is memory.
    """

    name = "exhaustion"

    def __init__(
        self,
        seed: int = 0,
        spoofed_ids: int = 32,
        interval: int = 2,
        base_id: int = SPOOF_BASE_ID,
    ) -> None:
        super().__init__(seed)
        self.spoofed_ids = spoofed_ids
        self.interval = interval
        self.base_id = base_id
        self._count = 0
        self._sequences: Dict[int, int] = {}  # started streams -> next CF seq

    def feed(self, frame: CanFrame) -> List[CanFrame]:
        out = [frame]
        self._count += 1
        if self._count % self.interval:
            return out
        can_id = self.base_id + self.rng.randrange(self.spoofed_ids)
        sequence = self._sequences.get(can_id)
        if sequence is None:
            # FF announcing 0xFFF bytes that will never all arrive.
            self._sequences[can_id] = 1
            out.append(self._hostile(can_id, bytes([0x1F, 0xFF]) + b"\xaa" * 6, frame))
        else:
            self._sequences[can_id] = (sequence + 1) % 16
            out.append(
                self._hostile(can_id, bytes([0x20 | sequence]) + b"\xaa" * 7, frame)
            )
        return out


class SessionStarvation(CaptureAttack):
    """Hostile first frames raced into the victim's own CAN-id space.

    Immediately after each victim first frame, the attacker injects its
    own first frame on the *same* id.  A single-context decoder abandons
    the victim's transfer and the hostile context then swallows the
    victim's consecutive frames, so the victim's message never completes.
    Speculative reassembly keeps both contexts and the victim's completes
    at its announced length.

    The hostile frame announces the maximum 12-bit length unless
    ``copy_length`` is set, in which case it copies the victim's: both
    contexts then complete on the same consecutive frame, exactly like a
    first frame whose consecutive frames the sniffer lost followed by the
    next message.  The decoders resolve that tie for the newest context
    (the lost-frame reading), so the hostile head spliced onto the
    victim's tail comes out instead of the victim — an open gap the
    attack/defense matrix reports without gating.
    """

    name = "starvation"

    def __init__(self, seed: int = 0, offset: int = 0, copy_length: int = 0) -> None:
        super().__init__(seed)
        #: PCI byte offset: 0 for ISO-TP, 1 for BMW extended addressing.
        self.offset = offset
        self.copy_length = bool(copy_length)

    def feed(self, frame: CanFrame) -> List[CanFrame]:
        out = [frame]
        data = frame.data
        if len(data) > self.offset + 1 and data[self.offset] >> 4 == PciType.FIRST:
            length = data[self.offset : self.offset + 2] if self.copy_length else b"\x1f\xff"
            hostile = length + b"\xbb" * 6
            if self.offset:
                # Same stream, spoofed peer address: the BMW starvation shape.
                hostile = bytes([0xEE]) + hostile[:-1]
            out.append(self._hostile(frame.can_id, hostile, frame))
        return out


class SequencePoisoning(CaptureAttack):
    """Alien consecutive frames injected into the victim's transfers.

    The attacker tracks the victim stream like any sniffer would and,
    mid-transfer, injects a consecutive frame whose sequence number is
    ``jump`` ahead of the expected one — far beyond plausible capture
    loss.  A naive decoder treats it as a sequence gap and abandons the
    message; the bounded decoders classify and drop it.
    """

    name = "poisoning"

    def __init__(self, seed: int = 0, jump: int = 8, offset: int = 0) -> None:
        super().__init__(seed)
        self.jump = jump
        self.offset = offset
        self._expected: Dict[int, int] = {}

    def feed(self, frame: CanFrame) -> List[CanFrame]:
        out = [frame]
        data = frame.data
        if len(data) <= self.offset:
            return out
        nibble = data[self.offset] >> 4
        if nibble == PciType.FIRST:
            self._expected[frame.can_id] = 1
            alien = (1 + self.jump) % 16
            hostile = bytes([0x20 | alien]) + b"\xcc" * 7
            if self.offset:
                hostile = data[:1] + hostile[:-1]
            out.append(self._hostile(frame.can_id, hostile, frame))
        elif nibble == PciType.CONSECUTIVE and frame.can_id in self._expected:
            sequence = data[self.offset] & 0x0F
            self._expected[frame.can_id] = (sequence + 1) % 16
        return out


class VwTpPoisoning(CaptureAttack):
    """Alien TP 2.0 data frames injected into the victim's messages.

    TP 2.0 numbers data frames with a 4-bit counter that runs on across
    messages.  After the ``after``-th data frame of each message (when
    that frame is not the message's last) the attacker injects a data
    frame whose sequence number is ``jump`` ahead of the stream's — far
    beyond plausible capture loss.  A naive decoder abandons the message
    at the gap.  The decoder drops a non-last alien and keeps the
    message.  With ``last`` set the alien carries a last-packet opcode,
    the shape of a new message after a lost last packet: the decoder
    emits the alien as a one-frame message, then resumes the victim's
    message when the next frame continues it.  If that next frame is the
    victim's own last packet the two readings are indistinguishable, the
    decoder re-locks, and the victim is lost.
    """

    name = "vwtp_poisoning"

    def __init__(self, seed: int = 0, jump: int = 8, after: int = 2, last: int = 0) -> None:
        super().__init__(seed)
        self.jump = jump
        self.after = after
        self.last = bool(last)
        self._position: Dict[int, int] = {}  # data frames into the current message

    def feed(self, frame: CanFrame) -> List[CanFrame]:
        out = [frame]
        if classify_vwtp_frame(frame) != VwTpFrameKind.DATA:
            return out
        if is_last_packet(frame):
            self._position[frame.can_id] = 0
            return out
        position = self._position[frame.can_id] = self._position.get(frame.can_id, 0) + 1
        if position == self.after:
            opcode = OP_LAST_NOACK if self.last else OP_MORE_NOACK
            sequence = (frame.data[0] + 1 + self.jump) & 0x0F
            hostile = bytes([opcode << 4 | sequence]) + b"\xcc" * 7
            out.append(self._hostile(frame.can_id, hostile, frame))
        return out


class FcInjection(CaptureAttack):
    """Flow-control frames sprayed onto the victim's data id mid-transfer.

    Offline decode ignores flow control, so this cannot corrupt payloads —
    it is the *detection* scenario: assembly classifies an FC aimed at a
    mid-reassembly stream as ``fc_violations``.
    """

    name = "fc_flood"

    def __init__(self, seed: int = 0, offset: int = 0) -> None:
        super().__init__(seed)
        self.offset = offset
        self._busy: Dict[int, bool] = {}

    def feed(self, frame: CanFrame) -> List[CanFrame]:
        out = [frame]
        data = frame.data
        if len(data) <= self.offset:
            return out
        nibble = data[self.offset] >> 4
        if nibble == PciType.FIRST:
            self._busy[frame.can_id] = True
        elif nibble == PciType.SINGLE:
            self._busy[frame.can_id] = False
        if self._busy.get(frame.can_id):
            hostile = FlowControl(FlowStatus.WAIT).encode() + b"\x00" * 5
            if self.offset:
                hostile = data[:1] + hostile[:-1]
            out.append(self._hostile(frame.can_id, hostile, frame))
            if nibble == PciType.CONSECUTIVE:
                self._busy[frame.can_id] = False  # one burst per transfer leg
        return out


class KLineSlowloris:
    """Forged ISO 14230-2 headers dripped into K-Line idle gaps.

    Before each idle gap longer than ``gap_s`` the attacker transmits a
    header claiming a 63-byte payload that never arrives.  A parser
    without a deadline buffers it and the *next* real messages' bytes are
    consumed into the forged frame (checksum fails, the format-byte rescan
    eats more), losing real messages.  The parser's deadline eviction
    drops the stale forged bytes as soon as the next real byte arrives.

    Operates on ``KLineByte`` logs rather than CAN frames, hence not a
    :class:`CaptureAttack`.
    """

    name = "kline_slowloris"
    FORGED_HEADER = bytes([0x80 | 0x3F, 0x33, 0xF1])  # claims 63 payload bytes

    def __init__(self, seed: int = 0, gap_s: float = 0.5) -> None:
        self.rng = random.Random(seed)
        self.gap_s = gap_s
        self.injected = 0

    def apply(self, capture):
        from ..transport.kline import KLineByte

        out = []
        previous: Optional[float] = None
        for byte in capture:
            if previous is not None and byte.timestamp - previous > self.gap_s:
                for i, value in enumerate(self.FORGED_HEADER):
                    out.append(KLineByte(previous + 0.001 * (i + 1), value))
                    self.injected += 1
            out.append(byte)
            previous = byte.timestamp
        return out


class FcSpoofAttacker:
    """A reactive bus node racing the genuine peer's flow control.

    Watches ``watch_id`` (the victim sender's tx id) for first frames and
    answers each with a spoofed flow-control frame on ``fc_id`` (the id
    the victim listens on), delivered nested inside the same bus
    transaction as the genuine peer's FC.  Modes:

    ``overflow``
        Spoofs FC.OVERFLOW — a sender trusting the latest FC zeroes its
        window and the transfer dies with a
        :class:`~repro.transport.base.TransportError`;
        :class:`~repro.transport.isotp.IsoTpEndpoint` keeps the more
        permissive genuine grant.
    ``strangle``
        Spoofs CONTINUE with ``block_size=1`` and the ISO maximum
        ``STmin=127 ms`` — a trusting victim's multi-frame latency
        balloons ~100x; the endpoint clamps STmin and keeps the wider
        window.
    ``wait``
        Floods FC.WAIT — pure noise against our stack (detection-only:
        the sender counts each as an ``fc_violation`` once its handshake
        is satisfied).
    """

    MODES = ("overflow", "strangle", "wait")

    def __init__(self, bus, watch_id: int, fc_id: int, mode: str = "overflow") -> None:
        from ..can import BusNode

        if mode not in self.MODES:
            raise ValueError(f"unknown FC spoof mode {mode!r}; one of {self.MODES}")
        self.watch_id = watch_id
        self.fc_id = fc_id
        self.mode = mode
        self.spoofs_sent = 0
        self.node = BusNode("fc-spoofer", handler=self._on_frame)
        bus.attach(self.node)

    def _control(self) -> FlowControl:
        if self.mode == "overflow":
            return FlowControl(FlowStatus.OVERFLOW)
        if self.mode == "strangle":
            return FlowControl(FlowStatus.CONTINUE, block_size=1, st_min_ms=127.0)
        return FlowControl(FlowStatus.WAIT)

    def _on_frame(self, frame: CanFrame) -> None:
        if frame.can_id != self.watch_id or not frame.data:
            return
        if frame.data[0] >> 4 != PciType.FIRST:
            return
        data = self._control().encode()
        self.spoofs_sent += 1
        self.node.send(CanFrame(self.fc_id, data + b"\x00" * (8 - len(data))))


#: Registry for CLI/bench specs: name -> capture-attack factory.  These
#: attack ISO-TP framing (BMW via ``offset=1``); :class:`VwTpPoisoning`
#: speaks TP 2.0 and is built directly.
CAPTURE_ATTACKS: Dict[str, Callable[..., CaptureAttack]] = {
    ReassemblyExhaustion.name: ReassemblyExhaustion,
    SessionStarvation.name: SessionStarvation,
    SequencePoisoning.name: SequencePoisoning,
    FcInjection.name: FcInjection,
}


def parse_attack(spec: str) -> CaptureAttack:
    """Build a capture attack from ``name[:k=v,...]`` (keys type-checked).

    Unknown attack names and unknown parameter keys raise ``ValueError``
    naming the offender and listing the valid choices — the same loud
    failure :meth:`NoiseProfile.from_dict` gives profile typos.
    """
    name, _, params = spec.strip().partition(":")
    factory = CAPTURE_ATTACKS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown attack {name!r}; valid attacks: {sorted(CAPTURE_ATTACKS)}"
        )
    import inspect

    valid = {
        p
        for p in inspect.signature(factory).parameters
        if p not in ("self",)
    }
    kwargs: Dict[str, object] = {}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"attack spec item {item!r} is not key=value")
            if key not in valid:
                raise ValueError(
                    f"unknown attack parameter {key!r} for {name!r}; "
                    f"valid parameters: {sorted(valid)}"
                )
            number = float(value)
            kwargs[key] = number if key.endswith("_s") else int(number)
    return factory(**kwargs)
