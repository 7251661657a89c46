"""Step 2 of diagnostic-frames analysis: payload assembly (§3.2).

Long diagnostic messages span several CAN frames; this stage reassembles
raw payloads per CAN id stream:

* ISO 15765-2 — SF extracted directly; FF starts a buffer filled by CFs
  until the announced length is reached;
* VW TP 2.0 — no length field: concatenate until a last-packet opcode;
* BMW extended addressing — strip the leading ECU-address byte, then
  ISO-TP reassembly on the remainder (*"we ignore the first byte and put
  the remaining bytes together"*).

Output is a list of :class:`AssembledMessage` carrying the payload, the
CAN id it travelled on, and first/last frame timestamps — the time anchor
everything downstream uses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..can import CanFrame
from ..observability.trace import get_active
from ..transport.arrays import HAVE_NUMPY, FrameArrays, np
from ..transport.base import (
    DEFAULT_HARDENING,
    EVENT_PAYLOAD,
    EVENT_RESYNC,
    DecoderStats,
    HardeningPolicy,
    TransportDecoder,
)
from ..transport.bmw import BmwReassembler
from ..transport.isotp import SF_MAX_PAYLOAD, IsoTpReassembler, PciType
from ..transport.vwtp import VwTpReassembler
from .screening import (
    TRANSPORT_BMW,
    TRANSPORT_ISOTP,
    TRANSPORT_VWTP,
    detect_transport,
    frame_passes_screen,
    screen_mask,
)

#: Cap on the human-readable event details kept in diagnostics; counters
#: keep the full totals regardless.
MAX_DETAILS = 20

#: Chunks below this many frames take the per-frame event path outright —
#: the numpy set-up cost exceeds the win.
MIN_CHUNK_FRAMES = 8


@dataclass(frozen=True)
class AssembledMessage:
    """One reassembled diagnostic payload."""

    payload: bytes
    can_id: int
    t_first: float  # timestamp of the first frame of the message
    t_last: float  # timestamp of the frame completing the message
    n_frames: int
    ecu_address: Optional[int] = None  # BMW addressing only

    @property
    def service_id(self) -> int:
        return self.payload[0] if self.payload else -1


@dataclass
class DecodeDiagnostics:
    """Capture-quality accounting for one payload-assembly pass.

    ``stats`` aggregates every per-CAN-id decoder; ``streams`` keeps the
    per-id breakdown so a single sick conversation is attributable.
    ``details`` holds the first :data:`MAX_DETAILS` error/resync
    descriptions verbatim for reports.
    """

    transport: str = ""
    frames: int = 0  # frames fed to decoders (after screening)
    messages: int = 0  # payloads recovered
    stats: DecoderStats = field(default_factory=DecoderStats)
    streams: Dict[int, DecoderStats] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the capture decoded without a single error or resync."""
        return self.stats.errors == 0 and self.stats.resyncs == 0

    def record_detail(self, can_id: int, kind: str, detail: str) -> None:
        if len(self.details) < MAX_DETAILS:
            self.details.append(f"{can_id:#05x} {kind}: {detail}")

    def to_dict(self) -> dict:
        return {
            "transport": self.transport,
            "frames": self.frames,
            "messages": self.messages,
            "stats": self.stats.to_dict(),
            "streams": {f"{cid:#x}": s.to_dict() for cid, s in sorted(self.streams.items())},
            "details": list(self.details),
        }


def _new_decoder(transport: str, hardening: HardeningPolicy) -> TransportDecoder:
    """The lenient reassembler for one CAN id of ``transport``."""
    if transport == TRANSPORT_VWTP:
        return VwTpReassembler(strict=False)
    if transport == TRANSPORT_BMW:
        return BmwReassembler(strict=False, hardening=hardening)
    return IsoTpReassembler(strict=False, hardening=hardening)


class StreamAssembler:
    """Incremental payload assembly: one frame in, completed payloads out.

    The only assembly path: :func:`assemble_with_diagnostics` hands it a
    whole capture as one :meth:`feed_chunk`, and the diagnostic service
    (:mod:`repro.service`) feeds it live frames or chunks as they arrive
    off the wire.  Frames failing the per-frame screen are dropped, each
    surviving frame is routed to its CAN id's reassembler, and
    :meth:`finish` produces the same ``(messages, diagnostics)`` pair
    however the frame sequence was split into calls — the invariant the
    service's byte-identical-report guarantee rests on.

    The :class:`~repro.transport.base.HardeningPolicy` flows down to every
    per-id decoder and additionally bounds the *global* byte budget across
    streams: when the running total of buffered bytes exceeds it, the
    least recently active non-idle stream sheds its partial messages.
    Screened-out flow-control frames aimed at a stream mid-reassembly are
    classified as ``fc_violations`` — on a clean capture FC only travels
    on the reverse direction's id, whose stream is idle.
    """

    def __init__(self, transport: str, hardening: HardeningPolicy = DEFAULT_HARDENING) -> None:
        self.transport = transport
        self.hardening = hardening
        self.diagnostics = DecodeDiagnostics(transport=transport)
        self._streams: Dict[int, TransportDecoder] = {}
        self._messages: List[AssembledMessage] = []
        self._activity: Dict[int, int] = {}
        self._tick = 0
        self._buffered = 0  # bytes buffered across every stream right now
        self._finished = False

    @property
    def messages(self) -> List[AssembledMessage]:
        """Every payload assembled so far, in completion order."""
        return self._messages

    def anomaly_counts(self) -> Dict[str, int]:
        """Current adversarial-shape counters summed across streams."""
        if self._finished:
            return self.diagnostics.stats.anomaly_counts()
        totals = DecoderStats()
        for decoder in self._streams.values():
            totals.merge(decoder.stats)
        return totals.anomaly_counts()

    def _decoder(self, can_id: int) -> TransportDecoder:
        decoder = self._streams.get(can_id)
        if decoder is None:
            decoder = self._streams[can_id] = _new_decoder(self.transport, self.hardening)
        return decoder

    def _classify_screened_out(self, frame: CanFrame) -> None:
        """Detection for frames the screen drops.

        A flow-control frame landing on a CAN id that is mid-reassembly is
        the offline fingerprint of live FC abuse (FC belongs on the
        reverse direction's id, which never buffers data).
        """
        offset = 1 if self.transport == TRANSPORT_BMW else 0
        if self.transport == TRANSPORT_VWTP or len(frame.data) <= offset:
            return
        if frame.data[offset] >> 4 != PciType.FLOW_CONTROL:
            return
        decoder = self._streams.get(frame.can_id)
        if decoder is not None and not decoder.idle:
            decoder.stats.fc_violations += 1

    def _enforce_global_budget(self) -> None:
        while self._buffered > self.hardening.global_budget:
            candidates = [
                can_id for can_id, decoder in self._streams.items() if not decoder.idle
            ]
            if not candidates:
                break
            victim = min(candidates, key=lambda cid: self._activity.get(cid, 0))
            freed = self._streams[victim].evict_partial()
            self.diagnostics.record_detail(
                victim, EVENT_RESYNC, "stream evicted (global byte budget)"
            )
            if not freed:
                break
            self._buffered -= freed

    def feed(self, frame: CanFrame) -> List[AssembledMessage]:
        """Screen and decode one frame; return newly completed payloads."""
        if not frame_passes_screen(frame, self.transport):
            self._classify_screened_out(frame)
            return []
        self.diagnostics.frames += 1
        can_id = frame.can_id
        decoder = self._decoder(can_id)
        before = decoder.buffered_bytes
        completed: List[AssembledMessage] = []
        for event in decoder.feed(frame):
            if event.kind == EVENT_PAYLOAD:
                address = decoder.last_address if self.transport == TRANSPORT_BMW else None
                completed.append(
                    AssembledMessage(
                        payload=event.payload,
                        can_id=can_id,
                        t_first=event.t_first,
                        t_last=frame.timestamp,
                        n_frames=event.n_frames,
                        ecu_address=address,
                    )
                )
            else:
                self.diagnostics.record_detail(can_id, event.kind, event.detail)
        self._messages.extend(completed)
        self._tick += 1
        self._activity[can_id] = self._tick
        self._buffered += decoder.buffered_bytes - before
        if self._buffered > self.hardening.global_budget:
            self._enforce_global_budget()
        return completed

    def _stream_idle(self, can_id: int) -> bool:
        """True when ``can_id`` holds no partial message at the current
        chunk boundary (or has no decoder yet at all)."""
        decoder = self._streams.get(can_id)
        return decoder is None or decoder.idle

    def _build_singles(
        self, rows, lengths, timestamps, id_list, offset
    ) -> List[AssembledMessage]:
        """Messages + per-stream accounting for rows already proven to be
        clean single frames on idle streams.

        Every payload is sliced from the matrix in one mask op (column
        mask, one ``tobytes()``, cumsum offsets), and the accounting
        mirrors what the event decoder would have done: one frame in,
        one payload out, per clean SF; BMW additionally latches the
        address byte of each stream's last completed message.
        """
        columns = np.arange(rows.shape[1], dtype=np.int16)
        first = 1 + offset
        blob = rows[
            (columns[None, :] >= first)
            & (columns[None, :] < first + lengths[:, None])
        ].tobytes()
        ends = np.cumsum(lengths)
        starts = ends - lengths
        bmw = self.transport == TRANSPORT_BMW
        # Bulk tolist() first: per-element numpy scalar indexing would
        # dominate the whole fast path at 5-figure chunk volumes.
        address_list = rows[:, 0].tolist() if bmw else [None] * len(id_list)
        built = [
            AssembledMessage(blob[start:end], can_id, t, t, 1, address)
            for start, end, can_id, t, address in zip(
                starts.tolist(),
                ends.tolist(),
                id_list,
                timestamps.tolist(),
                address_list,
            )
        ]
        for can_id, count in Counter(id_list).items():
            stats = self._decoder(can_id).stats
            stats.frames += count
            stats.payloads += count
        if bmw:
            latest = dict(zip(id_list, address_list))  # last occurrence wins
            for can_id, address in latest.items():
                decoder = self._streams[can_id]
                decoder.current_address = address
                decoder.last_address = address
        self.diagnostics.frames += len(built)
        return built

    def feed_chunk(self, frames) -> List[AssembledMessage]:
        """Screen and decode a batch of frames; return completed payloads.

        Semantically identical to calling :meth:`feed` per frame — same
        messages, same diagnostics, same decoder state afterwards — but
        streams consisting solely of well-formed single frames are sliced
        straight out of a :class:`FrameArrays` payload matrix.  A stream
        is only eligible when its decoder holds no partial message at the
        chunk boundary; anything mid-reassembly, malformed, or multi-frame
        falls back to the event decoders frame by frame, preserving the
        global completion/detail order byte for byte.  Screened-out
        flow-control frames aimed at a stream off the fast path join that
        in-order walk, so their ``fc_violations`` classification sees the
        stream's state at exactly their position.  VW TP 2.0 and chunks
        under :data:`MIN_CHUNK_FRAMES` take the per-frame path outright.

        ``frames`` is either an iterable of :class:`CanFrame` or an
        already-columnar :class:`FrameArrays` (the binary wire's batch
        decode), in which case no per-frame conversion happens at all.
        """
        arrays = frames if isinstance(frames, FrameArrays) else None
        if arrays is None:
            frames = list(frames)
        if (
            self.transport not in (TRANSPORT_ISOTP, TRANSPORT_BMW)
            or not HAVE_NUMPY
            or len(frames) < MIN_CHUNK_FRAMES
        ):
            completed: List[AssembledMessage] = []
            for frame in arrays.frames if arrays is not None else frames:
                completed.extend(self.feed(frame))
            return completed

        if arrays is None:
            arrays = FrameArrays.from_frames(frames)
        offset = 1 if self.transport == TRANSPORT_BMW else 0
        keep = screen_mask(arrays, self.transport)
        kept = np.flatnonzero(keep)
        flow_control = np.flatnonzero(
            ~keep & (arrays.dlcs > offset) & (arrays.nibbles(offset) == PciType.FLOW_CONTROL)
        )
        ids = arrays.can_ids[kept]
        pci = arrays.payloads[kept, offset]
        lengths = (pci & 0x0F).astype(np.int16)
        sf_ok = (
            ((pci >> 4) == PciType.SINGLE)
            & (lengths >= 1)
            & (lengths <= SF_MAX_PAYLOAD)
            & (lengths <= arrays.dlcs[kept] - 1 - offset)
        )

        # The typical live chunk is nothing but clean single frames on
        # idle streams (flow control, if any, aimed at those same
        # streams); prove that with one reduction and a set lookup and
        # skip the per-stream grouping machinery entirely.
        if bool(sf_ok.all()):
            id_list = ids.tolist()
            fast_ids = set(id_list)
            fc_ids = set(arrays.can_ids[flow_control].tolist())
            if fc_ids <= fast_ids and all(self._stream_idle(can_id) for can_id in fast_ids):
                built = self._build_singles(
                    arrays.payloads[kept],
                    lengths,
                    arrays.timestamps[kept],
                    id_list,
                    offset,
                )
                self._messages.extend(built)
                return built

        unique_ids, inverse = np.unique(ids, return_inverse=True)
        clean = np.ones(len(unique_ids), dtype=bool)
        np.logical_and.at(clean, inverse, sf_ok)
        # A stream mid-reassembly at the chunk boundary must keep using
        # its event decoder even if this chunk's frames are all clean SFs.
        for index, can_id in enumerate(unique_ids.tolist()):
            if not self._stream_idle(can_id):
                clean[index] = False

        fast = clean[inverse]
        fast_rows = kept[fast]
        built = self._build_singles(
            arrays.payloads[fast_rows],
            lengths[fast],
            arrays.timestamps[fast_rows],
            ids[fast].tolist(),
            offset,
        )
        # Fast-path streams stay idle for the whole chunk, so flow control
        # aimed at them is never a violation; any other stream's state can
        # change mid-chunk, so its flow control is classified in order.
        walked_fc = flow_control[~np.isin(arrays.can_ids[flow_control], unique_ids[clean])]
        if fast.all() and not walked_fc.size:
            self._messages.extend(built)
            return built
        # Mixed (or wholly fallback) chunk: walk rows in order so fallback
        # completions and detail records interleave with fast-path
        # messages exactly as the per-frame path would have produced them.
        is_fast = np.zeros(len(arrays), dtype=bool)
        is_fast[fast_rows] = True
        walk = np.union1d(kept, walked_fc)
        completed = []
        singles = iter(built)
        for position, fast_row in zip(walk.tolist(), is_fast[walk].tolist()):
            if fast_row:
                message = next(singles)
                self._messages.append(message)
                completed.append(message)
            else:
                completed.extend(self.feed(arrays.frames[position]))
        return completed

    def finish(self) -> Tuple[List[AssembledMessage], DecodeDiagnostics]:
        """Close the stream: sort messages, fold per-stream accounting.

        Idempotent — a second call returns the same objects without
        re-merging stats.
        """
        if not self._finished:
            self._finished = True
            self._messages.sort(key=lambda m: m.t_last)
            for can_id, decoder in sorted(self._streams.items()):
                self.diagnostics.streams[can_id] = decoder.stats
                self.diagnostics.stats.merge(decoder.stats)
            self.diagnostics.messages = len(self._messages)
        return self._messages, self.diagnostics


def assemble_with_diagnostics(
    frames: Iterable[CanFrame], transport: str = ""
) -> Tuple[List[AssembledMessage], DecodeDiagnostics]:
    """Screen and reassemble a capture, returning decode diagnostics too.

    Frames are demultiplexed by CAN id (each id is one direction of one
    conversation) and fed to a per-id reassembler in timestamp order.  The
    returned :class:`DecodeDiagnostics` reports how much of the capture
    survived decoding — on a clean capture it is all zeros except frame and
    message totals.

    The whole capture is one :meth:`StreamAssembler.feed_chunk` call
    followed by :meth:`StreamAssembler.finish` — the same code the
    diagnostic service runs on live chunks, traced or not.  ``feed_chunk``
    screens every frame itself and decides per stream between columnar
    slicing and the per-frame event decoders (always the latter on VW TP
    2.0).
    """
    frames = list(frames)
    transport = transport or detect_transport(frames)
    assembler = StreamAssembler(transport)
    with get_active().span("decode", transport=transport) as span:
        assembler.feed_chunk(frames)
        messages, diagnostics = assembler.finish()
        span.set(frames=diagnostics.frames)
    return messages, diagnostics


def assemble(frames: Iterable[CanFrame], transport: str = "") -> List[AssembledMessage]:
    """Screen and reassemble a capture into diagnostic payloads.

    Shorthand for :func:`assemble_with_diagnostics` when the caller does
    not need capture-quality accounting.
    """
    messages, __ = assemble_with_diagnostics(frames, transport)
    return messages


def multiframe_statistics(frames: Iterable[CanFrame], transport: str = "") -> Dict[str, int]:
    """Tab. 9's frame mix: single vs multi-frame vs control frames.

    For ISO-TP: ``single`` = SF, ``multi`` = FF + CF, ``control`` = FC.
    For VW TP 2.0: ``single`` is reported as the *last* packets (complete
    after this frame), ``multi`` the continuation packets — matching how
    the paper counts "needs to wait for the next frames" (75.2 %).
    """
    from ..transport.vwtp import VwTpFrameKind, classify_vwtp_frame, is_last_packet

    frames = list(frames)
    transport = transport or detect_transport(frames)
    stats = {"single": 0, "multi": 0, "control": 0, "total": 0}
    for frame in frames:
        stats["total"] += 1
        if transport == TRANSPORT_VWTP:
            kind = classify_vwtp_frame(frame)
            if kind != VwTpFrameKind.DATA:
                stats["control"] += 1
            elif is_last_packet(frame):
                stats["single"] += 1
            else:
                stats["multi"] += 1
            continue
        offset = 1 if transport == TRANSPORT_BMW else 0
        if len(frame.data) <= offset:
            stats["control"] += 1
            continue
        nibble = frame.data[offset] >> 4
        if nibble == PciType.SINGLE:
            stats["single"] += 1
        elif nibble in (PciType.FIRST, PciType.CONSECUTIVE):
            stats["multi"] += 1
        else:
            stats["control"] += 1
    return stats
