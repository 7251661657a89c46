"""Step 2 of diagnostic-frames analysis: payload assembly (§3.2).

Long diagnostic messages span several CAN frames; this stage reassembles
raw payloads per CAN id stream:

* ISO 15765-2 — SF extracted directly; FF starts a buffer filled by CFs
  until the announced length is reached;
* VW TP 2.0 — no length field: concatenate until a last-packet opcode;
* BMW extended addressing — strip the leading ECU-address byte, then
  ISO-TP reassembly on the remainder (*"we ignore the first byte and put
  the remaining bytes together"*).

Output is a :class:`MessageTable`: one row per message, holding the
payload, the CAN id it travelled on, the first/last frame timestamps (the
time anchor everything downstream uses), the frame count and the BMW ECU
address, as columns over one payload buffer.  Transfers sliced out of the
frame columns go into it as arrays; only the payloads the event decoders
complete are appended one by one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..can import CanFrame
from ..observability.trace import get_active
from ..transport.arrays import FrameArrays
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
#: the numpy set-up cost exceeds the win.  Slicing a clean 30 s ISO-TP
#: capture (car A) in chunks of 8, 48 and 64 frames took 5.5x, 1.3x and
#: 0.95x the time of per-frame decode (BMW, car E: 2.5x, 0.6x, 0.45x; one
#: pinned CPU, min of 5).  A server reading per-frame JSON from many
#: clients at once hands sessions runs of a few frames each.
MIN_CHUNK_FRAMES = 64


#: The ``ecu_address`` column's value for a message without an address.
NO_ADDRESS = -1


@dataclass(frozen=True)
class AssembledMessage:
    """One reassembled diagnostic payload: a row of a :class:`MessageTable`."""

    payload: bytes
    can_id: int
    t_first: float  # timestamp of the first frame of the message
    t_last: float  # timestamp of the frame completing the message
    n_frames: int
    ecu_address: Optional[int] = None  # BMW addressing only

    @property
    def service_id(self) -> int:
        return self.payload[0] if self.payload else -1


@dataclass(eq=False)
class MessageTable:
    """Reassembled payloads as columns, one row per message.

    What payload assembly returns and field extraction reads.  Every
    payload lives in one ``buffer``: row ``i``'s is
    ``buffer[starts[i]:stops[i]]``, so reordering or selecting rows moves no
    payload byte.  The other columns are :class:`AssembledMessage`'s fields,
    with :data:`NO_ADDRESS` where a message has no ECU address.  Indexing or
    iterating a table builds :class:`AssembledMessage` views of its rows;
    :meth:`from_messages` is the way in from a list of them.
    """

    buffer: bytes
    starts: np.ndarray  # int64
    stops: np.ndarray  # int64
    can_id: np.ndarray  # int64
    t_first: np.ndarray  # float64
    t_last: np.ndarray  # float64
    n_frames: np.ndarray  # int64
    ecu_address: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.starts)

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (
            self.starts, self.stops, self.can_id, self.t_first, self.t_last,
            self.n_frames, self.ecu_address,
        )

    def __getitem__(self, row: int) -> AssembledMessage:
        return next(iter(self.take([row])))

    def __iter__(self) -> Iterator[AssembledMessage]:
        for payload, can_id, t_first, t_last, n_frames, address in zip(
            self.payloads(),
            self.can_id.tolist(),
            self.t_first.tolist(),
            self.t_last.tolist(),
            self.n_frames.tolist(),
            self.ecu_address.tolist(),
        ):
            yield AssembledMessage(
                payload, can_id, t_first, t_last, n_frames,
                None if address == NO_ADDRESS else address,
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageTable):
            return NotImplemented
        return (
            len(self) == len(other)
            and self.payloads() == other.payloads()
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self._columns()[2:], other._columns()[2:])
            )
        )

    def payloads(self) -> List[bytes]:
        """Each row's payload."""
        buffer = self.buffer
        return [buffer[start:stop] for start, stop in zip(self.starts.tolist(), self.stops.tolist())]

    def byte_matrix(self, rows: np.ndarray, width: int) -> np.ndarray:
        """The first ``width`` payload bytes of ``rows``, as an ``(n, width)``
        uint8 matrix; every row's payload must hold that many."""
        data = np.frombuffer(self.buffer, dtype=np.uint8)
        return data[self.starts[rows][:, None] + np.arange(width)]

    def take(self, rows: np.ndarray) -> "MessageTable":
        """The table of ``rows``, in that order, sharing this buffer."""
        return MessageTable(self.buffer, *(column[rows] for column in self._columns()))

    def sorted_by_t_last(self) -> "MessageTable":
        """The rows by completion time; a stable sort, so rows completed at
        one time keep their order."""
        return self.take(np.argsort(self.t_last, kind="stable"))

    @classmethod
    def from_messages(cls, messages: Iterable[AssembledMessage]) -> "MessageTable":
        """The table of ``messages``, in their order."""
        messages = list(messages)
        return _table_of(
            [m.payload for m in messages],
            [m.can_id for m in messages],
            [m.t_first for m in messages],
            [m.t_last for m in messages],
            [m.n_frames for m in messages],
            [NO_ADDRESS if m.ecu_address is None else m.ecu_address for m in messages],
        )

    @classmethod
    def concatenate(cls, tables: Sequence["MessageTable"]) -> "MessageTable":
        """One table of ``tables``' rows, in order, over one joined buffer."""
        if len(tables) == 1:
            return tables[0]
        if not tables:
            return _table_of((), (), (), (), (), ())
        bases = np.cumsum([0] + [len(table.buffer) for table in tables[:-1]])
        columns = [
            np.concatenate(parts)
            for parts in zip(*(table._columns() for table in tables))
        ]
        shift = np.repeat(bases, [len(table) for table in tables])
        columns[0] = columns[0] + shift
        columns[1] = columns[1] + shift
        return cls(b"".join(table.buffer for table in tables), *columns)


def _table_of(payloads, can_ids, t_first, t_last, n_frames, addresses) -> MessageTable:
    """A table from per-message sequences (addresses use :data:`NO_ADDRESS`)."""
    count = len(payloads)
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=count)
    stops = np.cumsum(lengths)
    return MessageTable(
        b"".join(payloads),
        stops - lengths,
        stops,
        np.fromiter(can_ids, dtype=np.int64, count=count),
        np.fromiter(t_first, dtype=np.float64, count=count),
        np.fromiter(t_last, dtype=np.float64, count=count),
        np.fromiter(n_frames, dtype=np.int64, count=count),
        np.fromiter(addresses, dtype=np.int64, count=count),
    )


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


def _finishing_run(decoder, kind, low, room, address, start: int, stop: int) -> Optional[int]:
    """End of the leading consecutive frames of rows ``start:stop`` that
    complete ``decoder``'s open transfer exactly, or ``None``.

    The run must continue the decoder's single, non-overtaken context
    (:meth:`~repro.transport.isotp.IsoTpReassembler.open_transfer`) in
    sequence, on its peer's address for BMW, up to its announced length.
    Whatever the run does to the decoder — completion, or eviction by a
    byte budget — it leaves it idle.
    """
    transfer = decoder.open_transfer()
    if transfer is None:
        return None
    if address is None:
        peer = None
        sequence, missing = transfer
        addresses = repeat(None)
    else:
        peer, sequence, missing = transfer
        addresses = address[start:stop].tolist()
    position = start
    for frame_kind, frame_sequence, frame_room, frame_address in zip(
        kind[start:stop].tolist(), low[start:stop].tolist(), room[start:stop].tolist(), addresses
    ):
        if frame_kind != PciType.CONSECUTIVE or frame_sequence != sequence or frame_address != peer:
            return None
        missing -= frame_room - 1
        sequence = (sequence + 1) & 0x0F
        position += 1
        if missing <= 0:
            return position
    return None


class StreamAssembler:
    """Incremental payload assembly: frames in, rows of a message table out.

    The only assembly path: :func:`assemble_with_diagnostics` hands it a
    whole capture as one :meth:`feed_chunk`, and the diagnostic service
    (:mod:`repro.service`) feeds it live frames or chunks as they arrive
    off the wire.  Frames failing the per-frame screen are dropped, each
    surviving frame is routed to its CAN id's reassembler, and
    :meth:`finish` produces the same ``(messages, diagnostics)`` pair
    however the frame sequence was split into calls — the invariant the
    service's byte-identical-report guarantee rests on.

    Rows are kept as each chunk's sliced columns plus the payloads the
    event decoders completed, each tagged with the position of the frame
    that completed it in everything fed so far; that position is the
    completion order, which :meth:`finish` sorts by before its one stable
    sort on ``t_last``.

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
        #: Each chunk's sliced rows, with the position of each one's
        #: completing frame among all frames fed.
        self._sliced: List[Tuple[MessageTable, np.ndarray]] = []
        #: The event decoders' payloads: (payload, can_id, t_first, t_last,
        #: n_frames, ecu_address, completing frame position) each.
        self._walked: List[tuple] = []
        self._count = 0  # messages assembled so far
        self._fed = 0  # frames fed so far
        self._activity: Dict[int, int] = {}
        self._tick = 0
        self._buffered = 0  # bytes buffered across every stream right now
        self._table: Optional[MessageTable] = None  # set by finish()

    @property
    def message_count(self) -> int:
        """How many payloads have been assembled so far."""
        return self._count

    @property
    def messages(self) -> MessageTable:
        """Every payload assembled so far, in completion order; once
        finished, the table :meth:`finish` returned."""
        if self._table is not None:
            return self._table
        return self._in_completion_order()

    def _in_completion_order(self) -> MessageTable:
        """Every row so far — the chunks' sliced ones, then the walked ones
        — ordered by the position of each one's completing frame."""
        parts = [table for table, __ in self._sliced]
        positions = [completed_at for __, completed_at in self._sliced]
        if self._walked or not parts:
            *columns, completed_at = zip(*self._walked) if self._walked else ((),) * 7
            parts.append(_table_of(*columns))
            positions.append(np.array(completed_at, dtype=np.int64))
        table = MessageTable.concatenate(parts)
        return table.take(np.argsort(np.concatenate(positions), kind="stable"))

    def anomaly_counts(self) -> Dict[str, int]:
        """Current adversarial-shape counters summed across streams."""
        if self._table is not None:
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

    def feed(self, frame: CanFrame) -> int:
        """Screen and decode one frame; return how many payloads it completed."""
        position = self._fed
        self._fed += 1
        if not frame_passes_screen(frame, self.transport):
            self._classify_screened_out(frame)
            return 0
        self.diagnostics.frames += 1
        can_id = frame.can_id
        decoder = self._decoder(can_id)
        before = decoder.buffered_bytes
        completed = 0
        for event in decoder.feed(frame):
            if event.kind == EVENT_PAYLOAD:
                address = decoder.last_address if self.transport == TRANSPORT_BMW else NO_ADDRESS
                self._walked.append(
                    (
                        event.payload, can_id, event.t_first, frame.timestamp,
                        event.n_frames, address, position,
                    )
                )
                completed += 1
            else:
                self.diagnostics.record_detail(can_id, event.kind, event.detail)
        self._count += completed
        self._tick += 1
        self._activity[can_id] = self._tick
        self._buffered += decoder.buffered_bytes - before
        if self._buffered > self.hardening.global_budget:
            self._enforce_global_budget()
        return completed

    def feed_chunk(self, frames) -> int:
        """Screen and decode a batch of frames; return how many payloads it
        completed.

        Semantically identical to calling :meth:`feed` per frame — same
        messages in the same order, same diagnostics and ``details``, same
        decoder state afterwards — but every run of complete, well-formed
        ISO-TP/BMW transfers (a single frame, or a first frame plus exactly
        the consecutive frames that reach its announced length) is sliced
        straight out of a :class:`FrameArrays` payload matrix into table
        columns, without a per-message object.  Only the
        frames around a chunk boundary or a fault reach the event decoders,
        in row order, interleaved with the sliced messages at their
        completing rows (see :meth:`_plan_slices` for the walk rules).
        VW TP 2.0 and chunks under :data:`MIN_CHUNK_FRAMES` take the
        per-frame path outright.

        ``frames`` is either an iterable of :class:`CanFrame` or an
        already-columnar :class:`FrameArrays` (built once per capture by
        :func:`assemble_with_diagnostics`, or the binary wire's batch
        decode), in which case no per-frame conversion happens at all.
        """
        arrays = frames if isinstance(frames, FrameArrays) else None
        if arrays is None:
            frames = list(frames)
        before = self._count
        if self.transport not in (TRANSPORT_ISOTP, TRANSPORT_BMW) or len(frames) < MIN_CHUNK_FRAMES:
            for frame in arrays.frames if arrays is not None else frames:
                self.feed(frame)
            return self._count - before
        if arrays is None:
            arrays = FrameArrays.from_frames(frames)
        sliced, completion_rows, walk = self._plan_slices(arrays)
        # Walk the rest in row order, each walked frame at its position in
        # the whole feed.  A BMW stream latches the address of its latest
        # sliced message before the next walked row, as the event decoder
        # would have at the completing row.
        base = self._fed
        latch = self.transport == TRANSPORT_BMW and len(sliced)
        if latch:
            ids, addresses = sliced.can_id.tolist(), sliced.ecu_address.tolist()
        emitted = 0
        frames = arrays.frames
        for position, due in zip(walk.tolist(), np.searchsorted(completion_rows, walk).tolist()):
            if latch and due > emitted:
                self._latch_addresses(ids[emitted:due], addresses[emitted:due])
                emitted = due
            self._fed = base + position
            self.feed(frames[position])
        if latch:
            self._latch_addresses(ids[emitted:], addresses[emitted:])
        self._fed = base + len(arrays)
        if len(sliced):
            self._sliced.append((sliced, base + completion_rows))
            self._count += len(sliced)
        return self._count - before

    def _latch_addresses(self, ids: List[int], addresses: List[int]) -> None:
        """Each BMW stream's address state after its latest sliced message."""
        for can_id, address in dict(zip(ids, addresses)).items():
            decoder = self._streams[can_id]
            decoder.current_address = decoder.last_address = address

    def _plan_slices(self, arrays: FrameArrays):
        """Split one chunk into sliced transfers and rows to walk.

        Returns ``(table, completion_rows, walk)``: the sliced messages in
        completion order, the chunk row completing each, and the sorted rows
        that must go through :meth:`feed`.  Per-stream accounting of
        the sliced rows (frames, payloads, ``fc_violations``) is charged
        here.  Each stream's kept rows are parsed in order from a point
        where its decoder is idle:

        * a valid single frame, or a valid first frame followed by exactly
          the in-sequence consecutive frames (same address byte on BMW)
          that reach its announced length, is sliced;
        * anything else is irregular: it and every row after it up to and
          including the stream's next valid single frame are walked — by
          the ISO 15765-2 receiver rule that frame empties every context of
          an ISO-TP stream.  A BMW single frame empties only its own peer,
          and only a first frame can leave another peer's context open, so
          there slicing resumes only when every walked first frame carried
          its address; otherwise the stream is walked to the end of the
          chunk.
          A trailing incomplete transfer is walked the same way;
        * a stream that is mid-reassembly at the chunk start walks its
          leading consecutive frames, and resumes slicing after them only
          when they complete the decoder's single, non-overtaken context
          exactly; otherwise it is treated as irregular from its first row
          (ISO-TP) or walked to the end of the chunk (BMW).

        Multi-frame transfers are sliced only while (streams x
        ``per_stream_budget``) <= ``global_budget``: no stream then buffers
        more than its budget, so the global budget cannot trip mid-chunk
        and sliced transfers need no place in its eviction order.  Past
        that, only single frames are sliced.
        """
        bmw = self.transport == TRANSPORT_BMW
        offset = 1 if bmw else 0
        policy = self.hardening
        keep = screen_mask(arrays, self.transport)
        kept = np.flatnonzero(keep)
        kept_ids = arrays.can_ids[kept]
        # Positions index the kept rows grouped by stream, in row order
        # within each stream.
        order = np.argsort(kept_ids, kind="stable")
        rows = kept[order]
        ids = kept_ids[order]
        n = len(rows)
        positions = np.arange(n)
        opens_stream = np.ones(n, dtype=bool)
        opens_stream[1:] = ids[1:] != ids[:-1]
        stream_starts = np.flatnonzero(opens_stream)
        stream_of = np.cumsum(opens_stream) - 1
        first = stream_starts[stream_of]  # first position of each row's stream
        stream_ids = ids[stream_starts].tolist()

        pci = arrays.payloads[rows, offset]
        kind = pci >> 4
        low = (pci & 0x0F).astype(np.int64)
        room = arrays.dlcs[rows].astype(np.int64) - offset  # PCI byte + data
        address = arrays.payloads[rows, 0] if bmw else None
        single = (kind == PciType.SINGLE) & (low >= 1) & (low <= SF_MAX_PAYLOAD) & (low < room)
        closing = single.copy()  # rows that complete a message
        unit_first = positions.copy()  # for closing rows: the transfer's first row
        length = low.copy()  # for closing rows: the payload length
        column_end = np.where(single, offset + 1 + low, offset + room)

        # Complete multi-frame transfers: a first frame and the unbroken
        # run of consecutive frames after it, closed at the row that
        # reaches its announced length.  Rows in no transfer are irregular.
        streams = len(self._streams.keys() | set(stream_ids))
        if (
            policy.max_contexts_per_stream >= 1
            and streams * policy.per_stream_budget <= policy.global_budget
            and (kind == PciType.FIRST).any()
        ):
            consecutive = kind == PciType.CONSECUTIVE
            # A consecutive frame belongs to the last other frame before it.
            head = np.maximum.accumulate(np.where(consecutive, -1, positions))
            head_at = np.maximum(head, 0)
            announced = (low << 8) | arrays.payloads[rows, offset + 1]
            opener = (
                (kind == PciType.FIRST)
                & (room >= 3)
                & (announced >= SF_MAX_PAYLOAD)
                & (announced <= policy.per_stream_budget)
            )
            broken = consecutive & (low != ((positions - head) & 0x0F))
            if bmw:
                broken |= consecutive & (address != address[head_at])
            broken_count = np.cumsum(broken)
            data = room - 1 - (kind == PciType.FIRST)
            filled = np.cumsum(data)
            filled -= filled[head_at] - data[head_at]  # bytes buffered since the head
            target = announced[head_at]
            done = np.flatnonzero(
                consecutive
                & (head >= first)
                & opener[head_at]
                & (broken_count == broken_count[head_at])
                & (filled >= target)
                & (filled - data < target)
            )
            closing[done] = True
            unit_first[done] = head[done]
            length[done] = target[done]
            column_end[done] = offset + 1 + target[done] - (filled[done] - data[done])
            covered = np.zeros(n + 1, dtype=np.int64)
            covered[head[done]] += 1
            covered[done + 1] -= 1
            irregular = ~single & (np.cumsum(covered[:n]) == 0)
        else:
            irregular = ~single

        # Streams mid-reassembly at the chunk start.
        busy = {can_id for can_id, decoder in self._streams.items() if not decoder.idle}
        stream_stops = np.append(stream_starts[1:], n)
        walked_lead = np.zeros(n, dtype=bool)
        for start, stop, can_id in zip(stream_starts.tolist(), stream_stops.tolist(), stream_ids):
            if can_id not in busy:
                continue
            lead = _finishing_run(self._streams[can_id], kind, low, room, address, start, stop)
            if lead is not None:
                walked_lead[start:lead] = True
                irregular[start:lead] = False
            elif bmw:
                walked_lead[start:stop] = True
            else:
                irregular[start] = True

        # Walk from each irregular row through the stream's next valid
        # single frame (BMW: to the chunk end unless every walked first frame
        # shares its address).
        walked = walked_lead
        if irregular.any():
            last_irregular = np.maximum.accumulate(np.where(irregular, positions, -1))
            last_single = np.full(n, -1)
            last_single[1:] = np.maximum.accumulate(np.where(single, positions, -1))[:-1]
            segments = (last_irregular >= first) & (last_single < last_irregular)
            if bmw:
                upcoming = np.minimum.accumulate(np.where(single, positions, n)[::-1])[::-1]
                resumes = upcoming < stream_stops[stream_of]
                stray = (
                    segments
                    & resumes
                    & (kind == PciType.FIRST)
                    & (address != address[np.minimum(upcoming, n - 1)])
                )
                stray_count = np.cumsum(stray)
                segments |= stray_count > stray_count[first] - stray[first]
            walked = walked | segments

        # Every row not walked lies in exactly one complete transfer.
        taken = np.flatnonzero(~walked)
        column_start = offset + 1 + (kind[taken] == PciType.FIRST)
        columns = np.arange(arrays.payloads.shape[1])
        blob = arrays.payloads[rows[taken]][
            (columns[None, :] >= column_start[:, None])
            & (columns[None, :] < column_end[taken][:, None])
        ].tobytes()
        last = np.flatnonzero(closing & ~walked)
        stops = np.cumsum(length[last])  # blob offsets, in stream order
        completion_rows = rows[last]
        by_completion = np.argsort(completion_rows)
        last = last[by_completion]
        completion_rows = completion_rows[by_completion]
        stops = stops[by_completion]
        timestamps = arrays.timestamps
        sliced = MessageTable(
            blob,
            stops - length[last],
            stops,
            ids[last].astype(np.int64),
            timestamps[rows[unit_first[last]]],
            timestamps[completion_rows],
            last - unit_first[last] + 1,
            address[last].astype(np.int64) if bmw else np.full(len(last), NO_ADDRESS),
        )

        # Charge the sliced rows to their decoders' stats.
        frame_counts = np.bincount(stream_of[taken], minlength=len(stream_ids)).tolist()
        payload_counts = np.bincount(stream_of[last], minlength=len(stream_ids)).tolist()
        for can_id, frame_count, payload_count in zip(stream_ids, frame_counts, payload_counts):
            if frame_count:
                stats = self._decoder(can_id).stats
                stats.frames += frame_count
                stats.payloads += payload_count
        self.diagnostics.frames += len(taken)

        walk = np.sort(rows[walked])
        control = np.flatnonzero(
            ~keep & (arrays.dlcs > offset) & (arrays.nibbles(offset) == PciType.FLOW_CONTROL)
        )
        if control.size:
            walk = np.union1d(
                walk, self._classify_flow_control(arrays, control, rows, ids, walked, closing, busy)
            )
        return sliced, completion_rows, walk

    def _classify_flow_control(self, arrays, control, rows, ids, walked, closing, busy):
        """``fc_violations`` for screened-out flow control in a chunk.

        A flow-control row's verdict depends on its stream's state at that
        row, which the stream's previous kept row decides: after a sliced
        row that does not close its transfer the stream is mid-reassembly
        (a violation), after a sliced closing row it is idle (nothing).
        Rows after a walked row, or before any kept row of a stream that
        was mid-reassembly at the chunk start, are returned to be walked
        in order — a global-budget eviction may change that state mid-chunk.
        """
        control_ids = arrays.can_ids[control]
        if len(rows):
            # Kept rows are sorted by (id, row): find each one's predecessor.
            stride = len(arrays)
            keys = ids.astype(np.int64) * stride + rows
            previous = np.searchsorted(keys, control_ids.astype(np.int64) * stride + control) - 1
            previous_at = np.maximum(previous, 0)
            same = (previous >= 0) & (ids[previous_at] == control_ids)
            after_walk = same & walked[previous_at]
            inside = same & ~walked[previous_at] & ~closing[previous_at]
        else:
            same = after_walk = inside = np.zeros(len(control), dtype=bool)
        for can_id, count in Counter(control_ids[inside].tolist()).items():
            self._streams[can_id].stats.fc_violations += count
        if busy:
            after_walk = after_walk | (~same & np.isin(control_ids, list(busy)))
        return control[after_walk]

    def finish(self) -> Tuple[MessageTable, DecodeDiagnostics]:
        """Close the stream: sort messages, fold per-stream accounting.

        Rows go into completion order, then through one stable sort on
        ``t_last``: messages completed at one time keep their completion
        order.  Idempotent — a second call returns the same objects without
        re-merging stats.
        """
        if self._table is None:
            self._table = self._in_completion_order().sorted_by_t_last()
            self._sliced, self._walked = [], []
            for can_id, decoder in sorted(self._streams.items()):
                self.diagnostics.streams[can_id] = decoder.stats
                self.diagnostics.stats.merge(decoder.stats)
            self.diagnostics.messages = len(self._table)
        return self._table, self.diagnostics


def assemble_with_diagnostics(
    frames: Iterable[CanFrame], transport: str = ""
) -> Tuple[MessageTable, DecodeDiagnostics]:
    """Screen and reassemble a capture, returning decode diagnostics too.

    Frames are demultiplexed by CAN id (each id is one direction of one
    conversation) and fed to a per-id reassembler in timestamp order.  The
    returned :class:`DecodeDiagnostics` reports how much of the capture
    survived decoding — on a clean capture it is all zeros except frame and
    message totals — and names the transport, detected from the capture
    when ``transport`` is empty.

    The capture's :class:`FrameArrays` is built once and serves both
    :func:`~repro.core.screening.detect_transport` and one
    :meth:`StreamAssembler.feed_chunk` call, followed by
    :meth:`StreamAssembler.finish` — the same code the diagnostic service
    runs on live chunks, traced or not.  A capture declared VW TP 2.0
    skips the columns: its frames always go through the event decoders.
    """
    frames = list(frames)
    chunk = frames
    if transport != TRANSPORT_VWTP:
        chunk = FrameArrays.from_frames(frames)
        transport = transport or detect_transport(chunk)
    assembler = StreamAssembler(transport)
    with get_active().span("decode", transport=transport) as span:
        assembler.feed_chunk(chunk)
        messages, diagnostics = assembler.finish()
        span.set(frames=diagnostics.frames)
    return messages, diagnostics


def assemble(frames: Iterable[CanFrame], transport: str = "") -> MessageTable:
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
