"""Streaming diagnostic service: live captures in, reverse reports out.

The batch pipeline (``repro reverse``) assumes the whole capture exists
before analysis starts.  This subsystem turns the same pipeline into a
long-running multi-tenant server: clients stream CAN frames or K-Line
bytes (plus UI video, clicks and segments) over a length-prefixed
JSON-lines wire protocol, the server decodes incrementally per session,
re-runs staged analysis as evidence accumulates, and on ``finish``
produces a :class:`~repro.core.reverser.ReverseReport` byte-identical to
the batch run over the same capture.

Layers:

- :mod:`~repro.service.protocol` — wire framing and message vocabulary;
- :mod:`~repro.service.session` — :class:`VehicleSession`, the per-tenant
  incremental pipeline state (pure, event-loop-free);
- :mod:`~repro.service.server` — :class:`DiagnosticServer`, the asyncio
  front-end with rate limits, bounded buffers, backpressure, thread-pool
  offload and ``service.*`` observability;
- :mod:`~repro.service.client` — the reference streaming client.

Entry points: ``repro serve`` on the command line, or::

    from repro.service import DiagnosticServer, ServiceConfig, stream_capture

    async with DiagnosticServer(ServiceConfig(port=0)) as server:
        result = await stream_capture_async("127.0.0.1", server.port, capture)
"""

from .client import (
    ServiceClientError,
    StreamResult,
    stream_capture,
    stream_capture_async,
)
from .protocol import (
    MAX_BATCH_FRAMES,
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    MessageDecoder,
    ProtocolError,
    capture_to_wire,
    encode_message,
    frame_batch_to_wire,
    arrays_from_batch,
    read_message,
    write_message,
)
from .server import DiagnosticServer, ServiceConfig, run_server
from .session import SessionError, VehicleSession
from .shards import ShardSupervisor

__all__ = [
    "ServiceClientError",
    "StreamResult",
    "stream_capture",
    "stream_capture_async",
    "MAX_BATCH_FRAMES",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "MessageDecoder",
    "ProtocolError",
    "capture_to_wire",
    "encode_message",
    "frame_batch_to_wire",
    "arrays_from_batch",
    "read_message",
    "write_message",
    "DiagnosticServer",
    "ServiceConfig",
    "run_server",
    "SessionError",
    "VehicleSession",
    "ShardSupervisor",
]
