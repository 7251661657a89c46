"""Per-tenant session state of the streaming diagnostic service.

A :class:`VehicleSession` is the incremental twin of one batch
``repro reverse`` run.  It consumes capture records one at a time — CAN
frames through a :class:`~repro.core.assembly.StreamAssembler`, K-Line
bytes through a :class:`~repro.transport.kline.KLineEventDecoder` — keeps
a rolling view of the request/response pairs recovered so far (cheap
re-runs of field extraction as evidence accumulates), and on ``finish``
rebuilds the exact :class:`~repro.cps.collector.Capture` a batch run
would have seen and re-joins the batch pipeline through
:meth:`~repro.core.reverser.DPReverser.analyze_assembled`.  Because both
paths run the literal same assembly and analysis code over the same
inputs, the streamed report is byte-identical to the batch one.

The session is transport-agnostic until told otherwise: a ``hello`` with
``transport="auto"`` buffers the first :attr:`detect_window` frames, runs
the batch :func:`~repro.core.screening.detect_transport` heuristic over
them, then locks the transport and replays the buffer through the
assembler.  Memory is bounded: at most :attr:`max_capture_frames` frames
are retained (the final report needs the full frame log for its
``n_frames`` accounting); overflow frames are counted and dropped rather
than buffered.  Video, click and segment records are bounded together by
:data:`MAX_SESSION_RECORDS`; the record past it raises
:class:`SessionError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..can import CanFrame, CanLog
from ..core.assembly import AssembledMessage, StreamAssembler
from ..core.fields import extract_fields
from ..core.reverser import DPReverser, ReverseReport
from ..core.screening import detect_transport
from ..cps.collector import Capture
from ..observability.trace import NULL_TRACER, Tracer, activated
from ..transport.arrays import FrameArrays
from ..transport.base import (
    EVENT_ERROR,
    EVENT_PAYLOAD,
    EVENT_RESYNC,
    DecoderStats,
)
from ..transport.kline import KLineByte, KLineEventDecoder

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
        detect_window: int = DETECT_WINDOW,
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
        self.detect_window = detect_window
        self.max_capture_frames = max_capture_frames
        #: The session's private tracer; per-session because span stacks
        #: are per-thread and thousands of sessions interleave on one event
        #: loop thread.  The server absorbs it into its own tracer, one tid
        #: lane per session.
        self.tracer = tracer or NULL_TRACER

        #: Full frame log, for ``Capture.can_log``: arrival-ordered entries,
        #: each either one :class:`CanFrame` or a whole columnar
        #: :class:`FrameArrays` chunk (binary wire batches stay columnar —
        #: their frame objects materialise only at :meth:`build_capture`).
        self._log: List[object] = []
        self._log_frames = 0  # frames across all log entries
        self._pending: List[CanFrame] = []  # awaiting transport detection
        self._assembler: Optional[StreamAssembler] = None
        self._kline: Optional[KLineEventDecoder] = None
        self._kline_bytes = 0
        self._messages: List[AssembledMessage] = []  # K-Line only
        self.video: List = []
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
            return len(self._assembler.messages)
        return len(self._messages)

    def _resolve_transport(self, frames: List[CanFrame]) -> None:
        """Lock the transport and replay the detection buffer through it.

        Detection only looks at the first :attr:`detect_window` frames —
        batched arrivals can overshoot the window, and the locked
        transport must not depend on how the stream was chunked.
        """
        self.transport = detect_transport(frames[: self.detect_window])
        self._assembler = StreamAssembler(self.transport)
        self._feed_chunk(frames)

    def _feed_assembler(self, frame: CanFrame) -> int:
        before_e = self._assembler.diagnostics.stats.errors
        before_r = self._assembler.diagnostics.stats.resyncs
        completed = self._assembler.feed(frame)
        # Per-frame error deltas are only folded into the aggregate stats
        # at finish(); track running totals for interim status here.
        stats = self._assembler.diagnostics.stats
        self.decode_errors += stats.errors - before_e
        self.decode_resyncs += stats.resyncs - before_r
        return len(completed)

    def _feed_chunk(self, frames) -> int:
        before_e = self._assembler.diagnostics.stats.errors
        before_r = self._assembler.diagnostics.stats.resyncs
        completed = self._assembler.feed_chunk(frames)
        stats = self._assembler.diagnostics.stats
        self.decode_errors += stats.errors - before_e
        self.decode_resyncs += stats.resyncs - before_r
        return len(completed)

    def ingest_frames(self, frames) -> Tuple[int, int]:
        """Accept a batch of CAN frames in one chunked decode pass.

        ``frames`` is an iterable of :class:`CanFrame` or a columnar
        :class:`FrameArrays` (what
        :func:`~repro.service.protocol.arrays_from_batch` decodes the
        binary wire into) — the latter flows through assembly without any
        per-frame object ever being built.  Returns
        ``(completed, dropped)`` — messages the batch completed and
        frames shed by the retention bound.  Complete ISO-TP/BMW
        transfers are sliced in bulk by
        :meth:`~repro.core.assembly.StreamAssembler.feed_chunk`; state and
        output are identical to calling :meth:`ingest_frame` per frame.
        """
        if self.finished:
            raise SessionError("session already finished")
        if self.transport == TRANSPORT_KLINE or self._kline is not None:
            raise SessionError("CAN frame on a K-Line session")
        arrays = frames if isinstance(frames, FrameArrays) else None
        if arrays is None:
            frames = list(frames)
        # Degenerate chunks (over the retention bound, or still inside the
        # auto-detect window, which needs real frames for the heuristic)
        # drop to the materialised list path.
        room = max(self.max_capture_frames - self._log_frames, 0)
        over_bound = (len(arrays) if arrays is not None else len(frames)) > room
        detecting = self._assembler is None and self.transport == "auto"
        if arrays is not None and (over_bound or detecting):
            frames = list(arrays.frames)
            arrays = None
        dropped = 0
        if arrays is None and len(frames) > room:
            dropped = len(frames) - room
            self.frames_dropped += dropped
            frames = frames[:room]
        count = len(arrays) if arrays is not None else len(frames)
        if not count:
            return 0, dropped
        self.frames_received += count
        self._log_frames += count
        if arrays is not None:
            self._log.append(arrays)
        else:
            self._log.extend(frames)
        before = self.messages_assembled
        if self._assembler is None:
            if self.transport == "auto":
                self._pending.extend(frames)
                if len(self._pending) < self.detect_window:
                    return 0, dropped
                pending, self._pending = self._pending, []
                self._resolve_transport(pending)
                return self.messages_assembled - before, dropped
            self._assembler = StreamAssembler(self.transport)
        self._feed_chunk(arrays if arrays is not None else frames)
        return self.messages_assembled - before, dropped

    def ingest_frame(self, frame: CanFrame) -> int:
        """Accept one CAN frame; return how many messages it completed.

        Returns ``-1`` when the frame was dropped by the retention bound
        (the caller counts those against its ``frames_dropped`` metric).
        """
        if self.finished:
            raise SessionError("session already finished")
        if self.transport == TRANSPORT_KLINE or self._kline is not None:
            raise SessionError("CAN frame on a K-Line session")
        if self._log_frames >= self.max_capture_frames:
            self.frames_dropped += 1
            return -1
        self.frames_received += 1
        self._log.append(frame)
        self._log_frames += 1
        if self._assembler is None:
            if self.transport == "auto":
                self._pending.append(frame)
                if len(self._pending) < self.detect_window:
                    return 0
                pending, self._pending = self._pending, []
                before = self.messages_assembled
                self._resolve_transport(pending)
                return self.messages_assembled - before
            self._assembler = StreamAssembler(self.transport)
        return self._feed_assembler(frame)

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
                # Mirror transport.kline.to_assembled_messages exactly.
                message = self._kline.last_message
                self._messages.append(
                    AssembledMessage(
                        payload=message.payload,
                        can_id=message.source,
                        t_first=message.t_first,
                        t_last=message.t_last,
                        n_frames=1,
                        ecu_address=message.target,
                    )
                )
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
                    messages = sorted(
                        self._assembler.messages, key=lambda m: m.t_last
                    )
                else:
                    messages = sorted(self._messages, key=lambda m: m.t_last)
                fields = extract_fields(messages)
                grouped = fields.by_identifier()
        snapshot = self.status()
        snapshot["esvs"] = [
            {
                "identifier": identifier,
                "protocol": observations[0].protocol,
                "observations": len(observations),
            }
            for identifier, observations in sorted(grouped.items())
        ]
        return snapshot

    # ----------------------------------------------------------- finalise

    def _frame_log(self) -> List[CanFrame]:
        """Flatten the log: columnar chunks materialise their frames here,
        once, off the ingest hot path."""
        log: List[CanFrame] = []
        for entry in self._log:
            if isinstance(entry, FrameArrays):
                log.extend(entry.frames)
            else:
                log.append(entry)
        return log

    def build_capture(self) -> Capture:
        """The capture a batch collection of this stream would have built."""
        return Capture(
            model=self.model,
            tool_name=self.tool_name,
            can_log=CanLog(self._frame_log()),
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
        self._pending = []
        self._messages = []
        self.video = []
        self.clicks = []
        self.segments = []
        return counters
