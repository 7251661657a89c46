"""The asyncio diagnostic server: many live captures, one process.

Architecture:

* one :class:`asyncio` connection handler per tenant, each owning one
  :class:`~repro.service.session.VehicleSession` — cheap per-record state
  updates run inline on the event loop;
* the handler reads the socket in 64 KiB chunks through a
  :class:`~repro.service.protocol.MessageDecoder`; each run of
  consecutive JSON ``frame`` messages of one read goes to
  :meth:`~repro.service.session.VehicleSession.ingest_frame_messages` as
  one chunk, every other record to
  :meth:`~repro.service.session.VehicleSession.ingest_message`; the
  session decodes and ingests, and the handler only charges the rate
  limit and counts;
* CPU-bound work (interim re-analysis, final GP inference) is offloaded
  onto a thread pool so the loop keeps multiplexing thousands of
  sessions while formulas are being searched;
* every queue is bounded and every producer can be stalled:

  - **ingest** — a per-session token bucket; a client streaming faster
    than its rate limit makes the *reader* sleep, which fills the kernel
    socket buffer and eventually flow-controls the sender (TCP does the
    actual pushback; the server never buffers unboundedly on its side);
  - **egress** — writes above the high-water mark stall the handler in
    ``writer.drain()`` until the client catches up;
  - **retention** — at most ``max_capture_frames`` frames are kept per
    session; overflow is counted in ``service.frames_dropped`` and shed.
    Video, click and segment records are capped at
    :data:`~repro.service.session.MAX_SESSION_RECORDS` per session; the
    record past it ends the session with an ``error`` reply.

* GP inference shares one on-disk :class:`~repro.core.formula_memo
  .FormulaMemo` directory across all sessions, so tenants streaming the
  same vehicle model hit each other's already-inferred formulas;
* observability rides the PR 5 layer: ``service.*`` counters and
  histograms in a :class:`~repro.runtime.metrics.MetricsRegistry`, a
  ``service.sessions_active`` gauge, and per-session spans absorbed into
  the server tracer with one Chrome-trace lane (tid) per session.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.gp import GpConfig
from ..core.reverser import DPReverser, ReverserConfig
from ..observability.export import build_snapshot
from ..observability.trace import NULL_TRACER, Tracer
from ..runtime.metrics import MetricsRegistry
from .protocol import (
    FRAME_BATCH,
    HELLO_TRANSPORTS,
    PROTOCOL_VERSION,
    MessageDecoder,
    ProtocolError,
    read_message,
    write_message,
)
from .session import MAX_CAPTURE_FRAMES, SessionError, VehicleSession

#: Egress bytes queued on one writer before the handler stalls in drain().
WRITE_HIGH_WATER = 64 * 1024

#: Bytes one socket read of a session asks for.
READ_BYTES = 64 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the diagnostic server in one place."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the OS picks; read .port after start)
    #: Concurrent session cap; further hellos are rejected with an error.
    max_sessions: int = 1000
    #: Per-session ingest rate limit in records/second (0 = unlimited).
    #: Enforced by stalling the reader, which flow-controls the client.
    rate_limit: float = 0.0
    #: Send an interim ``status`` snapshot every N newly assembled
    #: messages (0 disables interim analysis).
    status_interval: int = 0
    max_capture_frames: int = MAX_CAPTURE_FRAMES
    #: Threads of the analysis offload pool (they keep the event loop
    #: free; the GP hot path escapes the GIL separately via
    #: ``gp_backend="process"``).
    analysis_workers: int = 2
    #: GP search parameters for final inference (None = paper defaults).
    gp_config: Optional[GpConfig] = None
    gp_workers: int = 1
    #: Per-ESV inference backend for finalize (``"auto"``/``"serial"``/
    #: ``"process"``).  ``"auto"`` resolves to ``"process"`` here, whatever
    #: :attr:`gp_workers` (unlike the batch CLI): a long-lived server
    #: amortises the persistent pool's one-off spawn across every session,
    #: and GP then runs outside the server process, where its evolution
    #: cannot compete with the event loop for the GIL.  Reports are
    #: byte-identical on every backend.
    gp_backend: str = "auto"
    #: Shared on-disk formula memo directory ("" disables cross-session
    #: formula reuse).
    gp_memo_dir: str = ""
    #: Formula-*inference* backend for finalize (``"gp"``/``"linear"``/
    #: ``"hybrid"`` — what solver recovers each formula, where
    #: :attr:`gp_backend` decides where GP evaluations run).
    formula_backend: str = "gp"
    #: Record per-session spans into the server tracer (one lane each).
    trace: bool = False
    #: Bind with ``SO_REUSEPORT`` so several processes can listen on the
    #: same port (the sharded deployment; the kernel load-balances accepts).
    reuse_port: bool = False
    #: This process's index in a sharded deployment (``None`` = unsharded).
    #: Echoed in every ``welcome`` so clients and tests can tell shards
    #: apart.
    shard_index: Optional[int] = None
    #: Seconds a connected session may sit idle (no message) before it is
    #: evicted — the service-slowloris defense: a client that handshakes
    #: and then sends nothing cannot hold a session slot forever.
    #: ``0`` disables eviction (legacy behaviour).
    session_idle_timeout: float = 0.0


@dataclass
class _Connection:
    """Book-keeping the handler keeps per live connection."""

    session: VehicleSession
    tokens: float = 0.0
    last_refill: float = 0.0
    since_status: int = 0
    interim_running: bool = False
    stalls: int = 0
    spans_lane: int = 0
    report_json: str = ""
    error: str = ""


class DiagnosticServer:
    """Streaming front-end over the batch DP-Reverser pipeline."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer() if self.config.trace else NULL_TRACER
        self.memo_stats = {"hits": 0, "misses": 0}
        self.inference_stats: Dict[str, int] = {}
        self.sessions_active = 0
        self._next_session_id = 0
        self._next_lane = 1  # lane 0 is the server's own spans
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}

    # ------------------------------------------------------------ lifecycle

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max(1, self.config.analysis_workers))
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            backlog=max(100, self.config.max_sessions),
            reuse_port=self.config.reuse_port or None,
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    async def drain(self, poll_interval: float = 0.02) -> None:
        """Graceful shutdown, phase one: refuse new work, finish old.

        Closes the listener (no further accepts) and waits for every live
        session to run to completion — the SIGTERM half of a shard's
        drain-then-exit sequence.  :meth:`stop` afterwards tears down the
        worker pool.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self.sessions_active > 0:
            await asyncio.sleep(poll_interval)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "DiagnosticServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------ metrics

    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def snapshot(self) -> dict:
        """Canonical metrics snapshot (PR 5 export schema + gauges)."""
        return build_snapshot(
            registry=self.metrics,
            memo_stats=self.memo_stats,
            inference_stats=self.inference_stats or None,
            tracer=self.tracer if self.tracer.enabled else None,
            gauges={"service.sessions_active": float(self.sessions_active)},
        )

    # ----------------------------------------------------------- offload

    async def _offload(self, fn, *args):
        """Run CPU-bound work on the pool without blocking the loop."""
        return await asyncio.wrap_future(self._pool.submit(fn, *args))

    def _build_reverser(self, session: VehicleSession) -> DPReverser:
        backend = self.config.gp_backend
        if backend == "auto":
            backend = "process"
        return DPReverser(
            ReverserConfig(
                gp_config=self.config.gp_config,
                gp_workers=self.config.gp_workers,
                gp_backend=backend,
                gp_memo_dir=self.config.gp_memo_dir,
                formula_backend=self.config.formula_backend,
                trace=session.tracer if session.tracer.enabled else None,
            )
        )

    # ------------------------------------------------------- backpressure

    async def _throttle(self, conn: _Connection, cost: float = 1.0) -> None:
        """Token-bucket ingest limit: no token → the reader sleeps.

        Sleeping here is the backpressure mechanism, not just accounting —
        while the handler sleeps it is not reading the socket, the kernel
        buffer fills, and TCP flow control pushes back on the sender.
        ``cost`` is the records in the arriving message, so a 256-frame
        batch spends 256 tokens and a frame, K-Line byte, video, click or
        segment message one: the rate limit is per record, however the
        client framed them.
        """
        rate = self.config.rate_limit
        if rate <= 0 or cost <= 0:
            return
        now = time.monotonic()
        conn.tokens = min(rate, conn.tokens + (now - conn.last_refill) * rate)
        conn.last_refill = now
        if conn.tokens >= cost:
            conn.tokens -= cost
            return
        deficit = (cost - conn.tokens) / rate
        conn.tokens = 0.0
        self._count("service.backpressure_stalls")
        conn.stalls += 1
        await asyncio.sleep(deficit)

    async def _send(
        self, writer: asyncio.StreamWriter, message: dict, conn: Optional[_Connection]
    ) -> None:
        write_message(writer, message)
        if writer.transport.get_write_buffer_size() > WRITE_HIGH_WATER:
            self._count("service.backpressure_stalls")
            if conn is not None:
                conn.stalls += 1
            await writer.drain()

    # ----------------------------------------------------------- handler

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn: Optional[_Connection] = None
        try:
            conn = await self._handshake(reader, writer)
            if conn is None:
                return
            await self._serve_session(reader, writer, conn)
        except (ProtocolError, SessionError) as error:
            self._count("service.protocol_errors")
            if conn is not None:
                conn.error = str(error)
            try:
                write_message(writer, {"type": "error", "error": str(error)})
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except ConnectionError:
            pass
        finally:
            if conn is not None:
                self._close_session(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Connection]:
        hello = await read_message(reader)
        if hello is None:
            return None
        if hello.get("type") != "hello":
            raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {hello.get('version')!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        transport = str(hello.get("transport", "auto"))
        if transport not in HELLO_TRANSPORTS:
            raise ProtocolError(f"unknown transport {transport!r}")
        if self.sessions_active >= self.config.max_sessions:
            self._count("service.sessions_rejected")
            write_message(
                writer,
                {
                    "type": "error",
                    "error": f"server full ({self.config.max_sessions} sessions)",
                },
            )
            await writer.drain()
            return None
        session_id = self._next_session_id
        self._next_session_id += 1
        session = VehicleSession(
            session_id=session_id,
            tenant=str(hello.get("tenant", "anonymous")),
            transport=transport,
            meta=hello.get("meta") or {},
            max_capture_frames=self.config.max_capture_frames,
            tracer=Tracer() if self.tracer.enabled else None,
        )
        conn = _Connection(session=session, last_refill=time.monotonic())
        if self.tracer.enabled:
            conn.spans_lane = self._next_lane
            self._next_lane += 1
        self._connections[session_id] = conn
        self.sessions_active += 1
        self._count("service.sessions_started")
        welcome = {
            "type": "welcome",
            "version": PROTOCOL_VERSION,
            "session": session_id,
        }
        if self.config.shard_index is not None:
            welcome["shard"] = self.config.shard_index
        write_message(writer, welcome)
        await writer.drain()
        return conn

    async def _serve_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Connection,
    ) -> None:
        """Read the socket in chunks and ingest each chunk's messages.

        A malformed message fails the session after the messages before it
        in the same read have been ingested.  An idle session — no complete
        message for ``session_idle_timeout`` seconds, however many bytes of
        one have trickled in — is evicted.
        """
        decoder = MessageDecoder()
        idle_timeout = self.config.session_idle_timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + idle_timeout
        while True:
            if idle_timeout > 0:
                try:
                    data = await asyncio.wait_for(
                        reader.read(READ_BYTES), deadline - loop.time()
                    )
                except asyncio.TimeoutError:
                    # Slowloris defense: an idle session frees its slot
                    # instead of starving other tenants at max_sessions.
                    self._count("service.sessions_evicted_idle")
                    await self._send(
                        writer,
                        {
                            "type": "error",
                            "error": (
                                f"session idle for {idle_timeout:g}s; evicted"
                            ),
                        },
                        conn,
                    )
                    return
            else:
                data = await reader.read(READ_BYTES)
            if not data:
                if decoder.buffered:
                    raise ProtocolError("connection closed mid-message")
                return  # client went away without finish: drop silently
            messages, error = decoder.feed_until_error(data)
            if messages:
                if await self._ingest_read(writer, conn, messages):
                    return
                deadline = loop.time() + idle_timeout
            if error is not None:
                raise error

    async def _ingest_read(
        self, writer: asyncio.StreamWriter, conn: _Connection, messages: List[dict]
    ) -> bool:
        """Ingest the messages of one read, in order; ``True`` once a
        ``finish`` among them has been answered.

        Each run of consecutive JSON ``frame`` messages is one
        :meth:`~repro.service.session.VehicleSession.ingest_frame_messages`
        call, every other record one
        :meth:`~repro.service.session.VehicleSession.ingest_message` call;
        ``service.ingest_seconds`` times each call.
        """
        session = conn.session
        ingest_hist = self.metrics.histogram("service.ingest_seconds")
        position = 0
        while position < len(messages):
            message = messages[position]
            kind = message["type"]
            if kind == "finish":
                await self._finish(writer, conn)
                return True
            start = time.perf_counter()
            if kind == "frame":
                end = position + 1
                while end < len(messages) and messages[end]["type"] == "frame":
                    end += 1
                frames, completed, dropped, error = session.ingest_frame_messages(
                    messages[position:end]
                )
                position = end
            else:
                frames, completed, dropped = session.ingest_message(message)
                error = None
                position += 1
            ingest_hist.observe(time.perf_counter() - start)
            # Frames cost one token each, any other record one.
            await self._throttle(
                conn, cost=frames if kind in ("frame", FRAME_BATCH) else 1
            )
            if dropped:
                self._count("service.frames_dropped", dropped)
            if frames > dropped:
                self._count("service.frames_ingested", frames - dropped)
            if completed:
                self._count("service.messages_assembled", completed)
                conn.since_status += completed
                interval = self.config.status_interval
                if interval and conn.since_status >= interval:
                    conn.since_status = 0
                    await self._interim(writer, conn)
            if error is not None:
                raise error
        return False

    async def _interim(
        self, writer: asyncio.StreamWriter, conn: _Connection
    ) -> None:
        """Offload a staged re-analysis and stream the snapshot back."""
        if conn.interim_running:
            return  # coalesce: never queue re-analyses faster than they run
        conn.interim_running = True
        try:
            snapshot = await self._offload(conn.session.interim_snapshot)
            await self._send(writer, snapshot, conn)
        finally:
            conn.interim_running = False

    async def _finish(
        self, writer: asyncio.StreamWriter, conn: _Connection
    ) -> None:
        session = conn.session
        reverser = self._build_reverser(session)
        start = time.perf_counter()
        report = await self._offload(session.finalize, reverser)
        self.metrics.histogram("service.finalize_seconds").observe(
            time.perf_counter() - start
        )
        for key, value in reverser.memo_stats.items():
            self.memo_stats[key] = self.memo_stats.get(key, 0) + value
        for key, value in reverser.inference_stats.items():
            self.inference_stats[key] = self.inference_stats.get(key, 0) + value
        report_json = report.to_json()
        conn.report_json = report_json
        self._count("service.reports_emitted")
        await self._send(
            writer,
            {
                "type": "report",
                "session": session.session_id,
                "report": report.to_dict(),
                "report_json": report_json,
                "digest": hashlib.sha256(report_json.encode()).hexdigest(),
            },
            conn,
        )
        await writer.drain()
        self._count("service.sessions_completed")

    def _close_session(self, conn: _Connection) -> None:
        session = conn.session
        if session.tracer.enabled and self.tracer.enabled:
            self.tracer.absorb(
                session.tracer.export_payload(), tid=conn.spans_lane
            )
        # Fold the session's adversarial-shape counters into the service
        # metrics before its decoders are released: an attacked fleet
        # lights up ``service.anomaly.*`` in the Prometheus export.
        for name, value in session.anomaly_counts().items():
            if value:
                self._count(f"service.anomaly.{name}", value)
        session.release()
        self._connections.pop(session.session_id, None)
        self.sessions_active -= 1


async def run_server(config: ServiceConfig, sessions: int = 0) -> DiagnosticServer:
    """Start a server and serve until stopped.

    With ``sessions > 0`` the server exits once that many sessions have
    completed — the shape tests and demos want.  Returns the (stopped)
    server so callers can inspect its metrics.
    """
    server = DiagnosticServer(config)
    await server.start()
    try:
        if sessions <= 0:
            await server.serve_forever()
        else:
            while (
                server.metrics.counter("service.sessions_completed").value
                + server.metrics.counter("service.sessions_rejected").value
                < sessions
            ):
                await asyncio.sleep(0.05)
    finally:
        await server.stop()
    return server
