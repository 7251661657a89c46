#!/usr/bin/env python3
"""Live streaming client: an ELM327-style dongle feeding the service.

Spins up the diagnostic service in-process, then plays the role of a
cheap OBD dongle that forwards bus traffic as it happens: hello
handshake, CAN frames in timestamp order packed 256 to a binary batch
(the client's default wire), camera frames and clicks interleaved,
finish.  The server assembles transport messages
incrementally, re-runs staged analysis as evidence accumulates (the
interim ``status`` messages printed below), and ships the final report
— byte-identical to what the batch pipeline produces from the same
capture.

Usage::

    python examples/live_stream_client.py [CAR]     # CAR in A..R, default A
"""

import asyncio
import hashlib
import sys

from repro.core import DPReverser, GpConfig, ReverserConfig
from repro.cps import DataCollector
from repro.service import DiagnosticServer, ServiceConfig, stream_capture_async
from repro.tools import make_tool_for_car
from repro.vehicle import CAR_SPECS, build_car

GP = GpConfig(seed=2, generations=8, population_size=100)


def on_status(status: dict) -> None:
    print(
        f"  status: {status['frames']} frames -> "
        f"{status['messages']} messages, {len(status['esvs'])} ESVs so far"
    )


async def stream(capture):
    config = ServiceConfig(gp_config=GP, status_interval=200)
    async with DiagnosticServer(config) as server:
        print(f"Service listening on 127.0.0.1:{server.port}")
        print("Streaming the capture like a live dongle...")
        return await stream_capture_async(
            "127.0.0.1",
            server.port,
            capture,
            tenant="dongle-demo",
            transport="auto",
            on_status=on_status,
        )


def main() -> None:
    key = sys.argv[1].upper() if len(sys.argv) > 1 else "A"
    if key not in CAR_SPECS:
        raise SystemExit(f"unknown car {key!r}; pick one of {', '.join(CAR_SPECS)}")
    spec = CAR_SPECS[key]

    print(f"Recording {spec.name} ({spec.model}) with tool {spec.tool}...")
    car = build_car(key)
    capture = DataCollector(make_tool_for_car(key, car), read_duration_s=8.0).collect()
    print(f"  {len(capture.can_log)} CAN frames, {len(capture.video)} video frames")

    result = asyncio.run(stream(capture))

    digest = hashlib.sha256(result.report_json.encode("utf-8")).hexdigest()
    assert digest == result.digest, "report digest mismatch"

    print()
    print(f"Report for session {result.session_id}:")
    report = result.report
    print(f"  transport: {report['transport']}, ESVs reversed: {len(report['esvs'])}")

    batch = DPReverser(ReverserConfig(gp_config=GP)).reverse_engineer(capture)
    if batch.to_json() == result.report_json:
        print("Streamed report is byte-identical to the batch pipeline.")
    else:
        raise SystemExit("streamed report diverged from batch output")


if __name__ == "__main__":
    main()
