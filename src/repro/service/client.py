"""Client helpers: stream a capture into a diagnostic server.

The reference implementation of the wire protocol's client side — what an
ELM327-style bridge on the OBD port would run, minus the serial I/O.  The
async form is the real client; :func:`stream_capture` wraps it in its own
event loop for scripts and tests that live in synchronous code.

Two ingest-throughput levers live here:

* **batching** — by default the CAN frames go out as binary
  ``frame-batch`` messages of :data:`BATCH_SIZE` frames
  (:func:`capture_to_wire` does the packing), cutting the per-frame JSON
  round-trip to one packed ``struct`` record that the session decodes
  into columns; ``batch_size=0`` sends the v1 per-frame JSON wire;
* **coalesced writes** — the sender queues messages and drains once per
  flush window instead of once per message, so the event loop round-trip
  and TCP push happen per *kilobytes*, not per record.  Drains forced by
  the write buffer's high-water mark are counted in
  :attr:`StreamResult.backpressure_stalls` — the client-side twin of the
  server's ``service.backpressure_stalls``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Iterable, List, Optional

from ..cps.collector import Capture
from ..transport.kline import KLineByte
from .protocol import (
    ProtocolError,
    capture_to_wire,
    read_message,
    write_message,
)

#: CAN frames per ``frame-batch`` message on the default wire.
BATCH_SIZE = 256

#: Queued egress bytes that force an immediate drain mid-flush-window.
WRITE_HIGH_WATER = 64 * 1024

#: Messages written between voluntary drains when coalescing.
FLUSH_MESSAGES = 64


class ServiceClientError(Exception):
    """The server rejected the session or reported a failure."""


class StreamResult:
    """What one streamed session produced."""

    def __init__(self) -> None:
        self.session_id: Optional[int] = None
        self.shard: Optional[int] = None
        self.statuses: List[dict] = []
        self.report: Optional[dict] = None
        self.report_json: str = ""
        self.digest: str = ""
        #: Times the writer hit the high-water mark and had to drain early.
        self.backpressure_stalls: int = 0


async def stream_capture_async(
    host: str,
    port: int,
    capture: Capture,
    tenant: str = "anonymous",
    transport: str = "auto",
    kline_bytes: Optional[Iterable[KLineByte]] = None,
    on_status: Optional[Callable[[dict], None]] = None,
    delay_s: float = 0.0,
    batch_size: int = BATCH_SIZE,
) -> StreamResult:
    """Stream one capture into a server; return the final report.

    CAN frames go out as binary ``frame-batch`` messages of
    ``batch_size`` frames (only the last one may be short);
    ``batch_size=0`` streams them as v1 per-frame JSON messages.
    ``delay_s`` sleeps between records to emulate a live capture's pacing
    (0 = as fast as the server's flow control allows; pacing implies one
    drain per record, so write coalescing only applies at full speed).
    ``on_status`` is called with every interim snapshot the server pushes.
    """
    reader, writer = await asyncio.open_connection(host, port)
    result = StreamResult()
    try:
        messages = capture_to_wire(
            capture,
            tenant=tenant,
            transport=transport,
            kline_bytes=kline_bytes,
            batch_size=batch_size,
        )
        write_message(writer, next(messages))  # hello
        await writer.drain()
        welcome = await read_message(reader)
        if welcome is None:
            raise ServiceClientError("server closed during handshake")
        if welcome["type"] == "error":
            raise ServiceClientError(welcome.get("error", "rejected"))
        if welcome["type"] != "welcome":
            raise ProtocolError(f"expected welcome, got {welcome['type']!r}")
        result.session_id = welcome.get("session")
        result.shard = welcome.get("shard")

        async def _drain_statuses() -> None:
            """Consume server pushes until the final report arrives."""
            while True:
                message = await read_message(reader)
                if message is None:
                    raise ServiceClientError("server closed before the report")
                if message["type"] == "status":
                    result.statuses.append(message)
                    if on_status is not None:
                        on_status(message)
                elif message["type"] == "report":
                    result.report = message["report"]
                    result.report_json = message["report_json"]
                    result.digest = message.get("digest", "")
                    return
                elif message["type"] == "error":
                    raise ServiceClientError(message.get("error", "server error"))
                else:
                    raise ProtocolError(
                        f"unexpected server message {message['type']!r}"
                    )

        consumer = asyncio.ensure_future(_drain_statuses())
        try:
            unflushed = 0
            for message in messages:
                write_message(writer, message)
                if delay_s > 0:
                    await writer.drain()
                    await asyncio.sleep(delay_s)
                else:
                    unflushed += 1
                    buffered = writer.transport.get_write_buffer_size()
                    if buffered > WRITE_HIGH_WATER:
                        result.backpressure_stalls += 1
                        await writer.drain()
                        unflushed = 0
                    elif unflushed >= FLUSH_MESSAGES:
                        await writer.drain()
                        unflushed = 0
                if consumer.done():
                    break  # server errored out mid-stream; surface it below
            await writer.drain()
            await consumer
        finally:
            if not consumer.done():
                consumer.cancel()
        return result
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def stream_capture(
    host: str,
    port: int,
    capture: Capture,
    tenant: str = "anonymous",
    transport: str = "auto",
    kline_bytes: Optional[Iterable[KLineByte]] = None,
    on_status: Optional[Callable[[dict], None]] = None,
    delay_s: float = 0.0,
    batch_size: int = BATCH_SIZE,
) -> StreamResult:
    """Synchronous wrapper over :func:`stream_capture_async`."""
    return asyncio.run(
        stream_capture_async(
            host,
            port,
            capture,
            tenant=tenant,
            transport=transport,
            kline_bytes=kline_bytes,
            on_status=on_status,
            delay_s=delay_s,
            batch_size=batch_size,
        )
    )
