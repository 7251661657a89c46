"""Per-tenant session state of the streaming diagnostic service.

A :class:`VehicleSession` is the incremental twin of one batch
``repro reverse`` run.  It consumes wire records as they arrive
(:meth:`VehicleSession.ingest_message` decodes and dispatches each one) —
CAN frames, one or a batch at a time, through a
:class:`~repro.core.assembly.StreamAssembler`, K-Line bytes through a
:class:`~repro.transport.kline.KLineEventDecoder` — keeps
a rolling view of the request/response pairs recovered so far (cheap
re-runs of field extraction as evidence accumulates), and on ``finish``
rebuilds the exact :class:`~repro.cps.collector.Capture` a batch run
would have seen and re-joins the batch pipeline through
:meth:`~repro.core.reverser.DPReverser.analyze_assembled`.  Because both
paths run the literal same assembly and analysis code over the same
inputs, the streamed report is byte-identical to the batch one.

The session is transport-agnostic until told otherwise: a ``hello`` with
``transport="auto"`` buffers the first :data:`DETECT_WINDOW` frames, runs
the batch :func:`~repro.core.screening.detect_transport` heuristic over
them, then locks the transport and replays the buffer through the
assembler.  Memory is bounded: at most :attr:`max_capture_frames` frames
are retained (the final report counts the full frame log for its
``n_frames``); overflow frames are counted and dropped rather than
buffered.  Wire batches stay columnar from the socket to the report:
their frames are built only for the rows the event decoders walk, and
the capture's :class:`~repro.can.CanLog` holds the batches as chunks,
which finalize counts without building a frame.  Video regions decode
through a per-session table, so a region a tool's screens repeat is one
shared object.  Video, click and segment records are bounded together by
:data:`MAX_SESSION_RECORDS`; the record past it raises
:class:`SessionError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..can import CanFrame, CanLog
from ..core.assembly import AssembledMessage, MessageTable, StreamAssembler
from ..core.fields import extract_fields
from ..core.reverser import DPReverser, ReverseReport
from ..core.screening import detect_transport
from ..cps.camera import TextRegion
from ..cps.collector import Capture
from ..observability.trace import NULL_TRACER, Tracer, activated
from ..transport.arrays import FrameArrays
from ..transport.base import (
    EVENT_ERROR,
    EVENT_PAYLOAD,
    EVENT_RESYNC,
    DecoderStats,
)
from ..transport.kline import KLineByte, KLineEventDecoder, to_assembled_messages
from .protocol import (
    FRAME_BATCH,
    ProtocolError,
    arrays_from_batch,
    click_from_wire,
    frame_from_wire,
    kline_byte_from_wire,
    segment_from_wire,
    video_from_wire,
)

#: Frames buffered before the transport heuristic runs on an ``auto``
#: session.  VW TP 2.0 channel setup and the BMW addressing pattern both
#: show up within the first few exchanges of a diagnostic session.
DETECT_WINDOW = 64

#: Default retention bound: enough for every simulated capture in the
#: fleet (tens of thousands of frames) while keeping a runaway client
#: from holding gigabytes of frame log.
MAX_CAPTURE_FRAMES = 200_000

#: Bound on the video, click and segment records one session keeps.  Only
#: each message's size is bounded on the wire, so without it a client
#: could grow a session's memory with many small records.  About 88x the
#: largest fleet capture (car Q: 568 records in a 45 s read).  Not
#: ``max_capture_frames``: that bound sheds frames and still reports, while
#: a session past this one is refused.
MAX_SESSION_RECORDS = 50_000

TRANSPORT_KLINE = "kline"


class SessionError(Exception):
    """A record that cannot be accepted in the session's current state."""


class VehicleSession:
    """One tenant's in-progress reverse-engineering run.

    Pure state machine — no sockets, no event loop — so it is testable
    directly and reusable by any front-end (the asyncio server, a replay
    tool, a notebook).
    """

    def __init__(
        self,
        session_id: int,
        tenant: str = "anonymous",
        transport: str = "auto",
        meta: Optional[dict] = None,
        max_capture_frames: int = MAX_CAPTURE_FRAMES,
        tracer: Optional[Tracer] = None,
    ) -> None:
        meta = meta or {}
        self.session_id = session_id
        self.tenant = tenant
        self.transport = transport  # "auto" until resolved
        self.model = str(meta.get("model", tenant))
        self.tool_name = str(meta.get("tool_name", "live-stream"))
        self.tool_error_rate = float(meta.get("tool_error_rate", 0.0))
        self.camera_offset_s = float(meta.get("camera_offset_s", 0.0))
        self.max_capture_frames = max_capture_frames
        #: The session's private tracer; per-session because span stacks
        #: are per-thread and thousands of sessions interleave on one event
        #: loop thread.  The server absorbs it into its own tracer, one tid
        #: lane per session.
        self.tracer = tracer or NULL_TRACER

        #: Full frame log, for ``Capture.can_log``: the chunks as they
        #: arrived — a list of frames, or a wire batch's lazy frame
        #: sequence, whose frames are built only if the capture's log is
        #: iterated (finalize only counts it).
        self._log: List[Sequence[CanFrame]] = []
        self._run: Optional[List[CanFrame]] = None  # the log's open frame list
        self._log_frames = 0  # frames across all log entries
        self._pending: List[CanFrame] = []  # awaiting transport detection
        self._assembler: Optional[StreamAssembler] = None
        self._kline: Optional[KLineEventDecoder] = None
        self._kline_bytes = 0
        self._messages: List[AssembledMessage] = []  # K-Line only
        self.video: List = []
        #: Every video region decoded so far, by its field values: equal
        #: regions of later video messages share one frozen object.
        self._regions: Dict[tuple, TextRegion] = {}
        self.clicks: List = []
        self.segments: List = []
        self.frames_received = 0
        self.frames_dropped = 0
        self.decode_errors = 0
        self.decode_resyncs = 0
        self.finished = False

    # ------------------------------------------------------------- ingest

    @property
    def messages_assembled(self) -> int:
        if self._assembler is not None:
            return self._assembler.message_count
        return len(self._messages)

    def _resolve_transport(self, frames: List[CanFrame]) -> int:
        """Lock the transport and replay the detection buffer through it.

        Detection only looks at the first :data:`DETECT_WINDOW` frames —
        batched arrivals can overshoot the window, and the locked
        transport must not depend on how the stream was chunked.  Returns
        the messages the replay completed.
        """
        self.transport = detect_transport(frames[:DETECT_WINDOW])
        self._assembler = StreamAssembler(self.transport)
        return self._feed_chunk(frames)

    def _feed_chunk(self, frames) -> int:
        before_e = self._assembler.diagnostics.stats.errors
        before_r = self._assembler.diagnostics.stats.resyncs
        completed = self._assembler.feed_chunk(frames)
        # Per-frame error deltas are only folded into the aggregate stats
        # at finish(); track running totals for interim status here.
        stats = self._assembler.diagnostics.stats
        self.decode_errors += stats.errors - before_e
        self.decode_resyncs += stats.resyncs - before_r
        return completed

    def ingest_message(self, message: dict) -> Tuple[int, int, int]:
        """Decode one wire record message and ingest it.

        The one entry for what a client streams between ``hello`` and
        ``finish``: a ``frame``, ``frame-batch``, ``kbyte``, ``video``,
        ``click`` or ``segment`` message, decoded by the
        :mod:`~repro.service.protocol` record decoders.  Returns
        ``(frames, completed, dropped)``: the CAN frames or K-Line bytes
        the message carried (0 for video, click and segment records), the
        messages they completed, and how many of them the retention bound
        shed.  Raises :class:`~repro.service.protocol.ProtocolError` on a
        malformed record or an unknown message type, and
        :class:`SessionError` on a record the session cannot accept.
        """
        kind = message["type"]
        if kind == "frame":
            return (1, *self.ingest_frames((frame_from_wire(message),)))
        if kind == FRAME_BATCH:
            arrays = arrays_from_batch(message)
            return (len(arrays), *self.ingest_frames(arrays))
        if kind == "kbyte":
            completed = self.ingest_kline_byte(kline_byte_from_wire(message))
            return (1, 0, 1) if completed < 0 else (1, completed, 0)
        if kind == "video":
            self.ingest_video(video_from_wire(message, self._regions))
        elif kind == "click":
            self.ingest_click(click_from_wire(message))
        elif kind == "segment":
            self.ingest_segment(segment_from_wire(message))
        else:
            raise ProtocolError(f"unknown message type {kind!r}")
        return 0, 0, 0

    def ingest_frame_messages(
        self, messages: Sequence[dict]
    ) -> Tuple[int, int, int, Optional[ProtocolError]]:
        """Decode a run of JSON ``frame`` messages and ingest them as one
        chunk.

        What the server does with the consecutive ``frame`` messages of one
        socket read, so that per-frame JSON clients get
        :meth:`ingest_frames`' chunked decode too.  Returns ``(frames,
        completed, dropped, error)``: the first three as
        :meth:`ingest_message` counts them, over the frames ingested;
        ``error`` is the :class:`~repro.service.protocol.ProtocolError` of
        the first malformed message, or ``None``.  The frames before a
        malformed message are ingested, the ones from it on are not, so
        it fails at its own position as it would one message at a time.
        """
        frames: List[CanFrame] = []
        error: Optional[ProtocolError] = None
        try:
            for message in messages:
                frames.append(frame_from_wire(message))
        except ProtocolError as caught:
            error = caught
        if not frames:
            return 0, 0, 0, error
        return (len(frames), *self.ingest_frames(frames), error)

    def ingest_frames(self, frames) -> Tuple[int, int]:
        """Accept a chunk of CAN frames in one decode pass.

        The one frame-ingest path.  ``frames`` is a sequence of
        :class:`CanFrame` or a columnar :class:`FrameArrays` (what
        :func:`~repro.service.protocol.arrays_from_batch` decodes the
        binary wire into) — the latter flows through assembly without any
        per-frame object ever being built.  Returns
        ``(completed, dropped)`` — messages the chunk completed and
        frames shed by the retention bound.  Complete ISO-TP/BMW
        transfers are sliced in bulk by
        :meth:`~repro.core.assembly.StreamAssembler.feed_chunk`; state and
        output are the same however the stream is split into chunks.
        """
        if self.finished:
            raise SessionError("session already finished")
        if self.transport == TRANSPORT_KLINE or self._kline is not None:
            raise SessionError("CAN frame on a K-Line session")
        room = max(self.max_capture_frames - self._log_frames, 0)
        detecting = self._assembler is None and self.transport == "auto"
        if isinstance(frames, FrameArrays) and len(frames) <= room and not detecting:
            chunk, dropped = frames, 0
        else:
            # Over the retention bound, or inside the auto-detect window
            # (whose buffer holds frames): work on the frame sequence.
            if isinstance(frames, FrameArrays):
                frames = frames.frames
            chunk = frames[:room]
            dropped = len(frames) - len(chunk)
            self.frames_dropped += dropped
        count = len(chunk)
        if not count:
            return 0, dropped
        self.frames_received += count
        self._log_frames += count
        if isinstance(chunk, FrameArrays):
            self._log.append(chunk.frames)
            self._run = None
        elif self._run is None:
            self._run = list(chunk)
            self._log.append(self._run)
        else:
            self._run.extend(chunk)
        if self._assembler is None:
            if self.transport == "auto":
                self._pending.extend(chunk)
                if len(self._pending) < DETECT_WINDOW:
                    return 0, dropped
                pending, self._pending = self._pending, []
                return self._resolve_transport(pending), dropped
            self._assembler = StreamAssembler(self.transport)
        return self._feed_chunk(chunk), dropped

    def ingest_frame(self, frame: CanFrame) -> int:
        """Accept one CAN frame: :meth:`ingest_frames` on a one-frame chunk.

        Returns how many messages it completed, or ``-1`` when the
        retention bound dropped it (the caller counts those against its
        ``frames_dropped`` metric).
        """
        completed, dropped = self.ingest_frames((frame,))
        return -1 if dropped else completed

    def ingest_kline_byte(self, byte: KLineByte) -> int:
        """Accept one sniffed K-Line byte; return messages it completed."""
        if self.finished:
            raise SessionError("session already finished")
        if self._assembler is not None or self._pending or self._log:
            raise SessionError("K-Line byte on a CAN session")
        if self.transport == "auto":
            self.transport = TRANSPORT_KLINE
        elif self.transport != TRANSPORT_KLINE:
            raise SessionError(
                f"K-Line byte on a {self.transport!r} session"
            )
        if self._kline is None:
            self._kline = KLineEventDecoder()
        if self._kline_bytes >= self.max_capture_frames:
            self.frames_dropped += 1
            return -1
        self._kline_bytes += 1
        completed = 0
        for event in self._kline.feed(CanFrame(0, bytes([byte.value]), byte.timestamp)):
            if event.kind == EVENT_PAYLOAD:
                self._messages.extend(to_assembled_messages([self._kline.last_message]))
                completed += 1
            elif event.kind == EVENT_ERROR:
                self.decode_errors += 1
            elif event.kind == EVENT_RESYNC:
                self.decode_resyncs += 1
        return completed

    def _keep_record(self, records: List, record) -> None:
        """Keep one video, click or segment record, within the session's
        :data:`MAX_SESSION_RECORDS` bound."""
        if len(self.video) + len(self.clicks) + len(self.segments) >= MAX_SESSION_RECORDS:
            raise SessionError(
                f"session exceeds {MAX_SESSION_RECORDS} video, click and segment records"
            )
        records.append(record)

    def ingest_video(self, frame) -> None:
        self._keep_record(self.video, frame)

    def ingest_click(self, click) -> None:
        self._keep_record(self.clicks, click)

    def ingest_segment(self, segment) -> None:
        self._keep_record(self.segments, segment)

    # ------------------------------------------------------------- status

    def anomaly_counts(self) -> Dict[str, int]:
        """Adversarial-shape counters accumulated by this session's
        decoders (:data:`~repro.transport.base.ANOMALY_FIELDS`)."""
        if self._assembler is not None:
            return self._assembler.anomaly_counts()
        if self._kline is not None:
            return self._kline.stats.anomaly_counts()
        return DecoderStats().anomaly_counts()

    def status(self) -> dict:
        """Cheap counters-only snapshot (safe to compute on every record)."""
        return {
            "type": "status",
            "session": self.session_id,
            "transport": self.transport,
            "frames": self.frames_received + self._kline_bytes,
            "messages": self.messages_assembled,
            "errors": self.decode_errors,
            "resyncs": self.decode_resyncs,
        }

    def interim_snapshot(self) -> dict:
        """Staged re-analysis over the evidence accumulated so far.

        Re-runs request/response pairing and field extraction on the
        messages assembled to date — the ESV identifiers and observation
        counts a client sees firming up while the capture is still
        streaming.  CPU-bound (linear in messages), so the server runs it
        on a worker pool, never on the event loop.
        """
        with activated(self.tracer):
            with self.tracer.span("service.interim", session=self.session_id):
                if self._assembler is not None:
                    messages = self._assembler.messages
                else:
                    messages = MessageTable.from_messages(self._messages)
                fields = extract_fields(messages.sorted_by_t_last())
                grouped = fields.by_identifier()
        snapshot = self.status()
        snapshot["esvs"] = [
            {
                "identifier": identifier,
                "protocol": observations.protocol,
                "observations": len(observations),
            }
            for identifier, observations in sorted(grouped.items())
        ]
        return snapshot

    # ----------------------------------------------------------- finalise

    def build_capture(self) -> Capture:
        """The capture a batch collection of this stream would have built."""
        self._run = None  # later frames go to a new list, not this capture's
        return Capture(
            model=self.model,
            tool_name=self.tool_name,
            can_log=CanLog.from_chunks(self._log),
            video=self.video,
            clicks=self.clicks,
            segments=self.segments,
            tool_error_rate=self.tool_error_rate,
            camera_offset_s=self.camera_offset_s,
        )

    def finalize(self, reverser: DPReverser) -> ReverseReport:
        """Close the stream and produce the final report.

        The CAN path hands the assembler's ``(messages, diagnostics)`` to
        :meth:`~repro.core.reverser.DPReverser.analyze_assembled`; the
        K-Line path hands pre-assembled messages to
        :meth:`~repro.core.reverser.DPReverser.analyze` — each re-joining
        the same code the batch pipeline runs, which is what makes the
        result byte-identical to ``repro reverse`` on the same capture.
        """
        if self.finished:
            raise SessionError("session already finished")
        self.finished = True
        capture = self.build_capture()
        if self._kline is not None or self.transport == TRANSPORT_KLINE:
            if self._kline is not None:
                self._kline.finish()
            context = reverser.analyze(
                capture, messages=self._messages, transport=TRANSPORT_KLINE
            )
            return reverser.infer(context)
        if self._assembler is None:
            if self.transport == "auto":
                # Stream ended before the detection window filled: detect
                # on whatever arrived, exactly as batch would.
                pending, self._pending = self._pending, []
                self._resolve_transport(pending)
            else:
                # Declared transport, zero frames: empty assembly pass.
                self._assembler = StreamAssembler(self.transport)
        messages, diagnostics = self._assembler.finish()
        context = reverser.analyze_assembled(
            capture, messages, self.transport, diagnostics, None
        )
        return reverser.infer(context)

    def release(self) -> Dict[str, int]:
        """Drop buffered state, returning final counters for metrics."""
        counters = {
            "frames": self.frames_received + self._kline_bytes,
            "messages": self.messages_assembled,
            "dropped": self.frames_dropped,
            "errors": self.decode_errors,
        }
        self._log = []
        self._run = None
        self._pending = []
        self._messages = []
        self.video = []
        self._regions = {}
        self.clicks = []
        self.segments = []
        return counters
