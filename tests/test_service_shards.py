"""The pre-forked shard fleet: identity, supervision, drain, and merge.

Every test spawns real processes listening on one ``SO_REUSEPORT`` port,
so the suite exercises the actual kernel balancing and signal paths a
production deployment runs — nothing is mocked.
"""

import asyncio
import time

import pytest

from repro.core import DPReverser, ReverserConfig
from repro.core.gp import GpConfig
from repro.cps import DataCollector
from repro.observability import prometheus_text
from repro.service import ServiceConfig, stream_capture_async
from repro.service.protocol import (
    PROTOCOL_VERSION,
    encode_message,
    frame_batch_to_wire,
    read_message,
)
from repro.service.shards import ShardSupervisor
from repro.tools import make_tool_for_car
from repro.vehicle import build_car

GP = GpConfig(seed=2, generations=8, population_size=100)

#: Serial GP backend: each shard already is a process, and the tests want
#: shard spawn/teardown fast, not a GP worker pool inside every shard.
CONFIG = ServiceConfig(gp_config=GP, gp_backend="serial", analysis_workers=1)


@pytest.fixture(scope="module")
def capture_a():
    car = build_car("A")
    return DataCollector(make_tool_for_car("A", car), read_duration_s=8.0).collect()


@pytest.fixture(scope="module")
def batch_a(capture_a):
    return DPReverser(ReverserConfig(gp_config=GP)).reverse_engineer(capture_a).to_json()


def stream(port, capture, batch_size=128):
    return asyncio.run(
        stream_capture_async(
            "127.0.0.1", port, capture, transport="isotp", batch_size=batch_size
        )
    )


async def open_session(port):
    """Raw handshake; returns (reader, writer, shard index)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        encode_message(
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "tenant": "shard-test",
                "transport": "isotp",
                "meta": {},
            }
        )
    )
    await writer.drain()
    welcome = await read_message(reader)
    assert welcome["type"] == "welcome"
    return reader, writer, welcome["shard"]


async def finish_session(reader, writer, frames):
    """Stream a frame batch + finish; return the report message."""
    writer.write(encode_message(frame_batch_to_wire(list(frames))))
    writer.write(encode_message({"type": "finish"}))
    await writer.drain()
    while True:
        message = await asyncio.wait_for(read_message(reader), timeout=120)
        assert message is not None, "server closed before the report"
        if message["type"] == "report":
            writer.close()
            await writer.wait_closed()
            return message


class TestShardedIdentityAndMerge:
    def test_reports_identical_across_shards_and_merge_sums(
        self, capture_a, batch_a
    ):
        sessions = 4
        with ShardSupervisor(CONFIG, shards=2) as supervisor:
            results = [stream(supervisor.port, capture_a) for _ in range(sessions)]
            shards_seen = {result.shard for result in results}
            supervisor.wait_for_sessions(sessions, timeout=60)
        # Identity: every shard's report is byte-identical to the batch
        # pipeline's — N shards produce the same report set as one process.
        assert {result.report_json for result in results} == {batch_a}
        assert shards_seen <= {0, 1}
        snapshot = supervisor.merged_snapshot()
        counters = snapshot["counters"]
        assert counters["service.shards"] == 2
        assert counters["service.sessions_completed"] == sessions
        assert counters["service.frames_ingested"] == sessions * len(
            capture_a.can_log
        )
        assert counters["service.reports_emitted"] == sessions
        # Histograms merged from raw samples: one observation per batch
        # message per session, counted across all shards.
        assert snapshot["histograms"]["service.finalize_seconds"]["count"] == sessions
        text = prometheus_text(snapshot)
        assert f"repro_service_sessions_completed {sessions}" in text
        assert "repro_service_shards 2" in text


class TestShardSupervision:
    def test_crash_restarts_shard_without_killing_siblings(self, capture_a):
        with ShardSupervisor(CONFIG, shards=2) as supervisor:
            async def crash_and_survive():
                reader, writer, shard = await open_session(supervisor.port)
                victim = supervisor._slots[1 - shard].process
                victim.kill()  # SIGKILL: a real crash, no cleanup
                deadline = time.monotonic() + 30
                while supervisor.restarts < 1:
                    assert time.monotonic() < deadline, "no restart observed"
                    await asyncio.sleep(0.05)
                # The sibling session rides on untouched.
                report = await finish_session(
                    reader, writer, list(capture_a.can_log)[:200]
                )
                return report

            report = asyncio.run(crash_and_survive())
            assert report["report"]["transport"] == "isotp"
            assert supervisor.restarts >= 1
            # The respawned fleet still serves full sessions on the same port.
            result = stream(supervisor.port, capture_a)
            assert result.report is not None

    def test_sigterm_drains_in_flight_session(self, capture_a):
        with ShardSupervisor(CONFIG, shards=1) as supervisor:
            async def drain():
                reader, writer, shard = await open_session(supervisor.port)
                assert shard == 0
                process = supervisor._slots[0].process
                writer.write(
                    encode_message(
                        frame_batch_to_wire(list(capture_a.can_log)[:200])
                    )
                )
                await writer.drain()
                process.terminate()  # SIGTERM: drain, don't drop
                await asyncio.sleep(0.3)  # let the shard enter its drain
                writer.write(encode_message({"type": "finish"}))
                await writer.drain()
                while True:
                    message = await asyncio.wait_for(read_message(reader), timeout=120)
                    assert message is not None, "drain dropped the session"
                    if message["type"] == "report":
                        break
                writer.close()
                await writer.wait_closed()
                process.join(30)
                return message, process.exitcode

            report, exitcode = asyncio.run(drain())
            assert report["report"]["transport"] == "isotp"
            assert exitcode == 0, "drained shard should exit cleanly"
