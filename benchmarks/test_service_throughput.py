"""Service throughput: many concurrent streaming sessions, bounded memory.

The service-layer acceptance bench: one in-process
:class:`~repro.service.server.DiagnosticServer` multiplexing SESSIONS
concurrent tenants, every one streaming the same capture frame-by-frame
as per-frame JSON messages and asking for the final report.  A barrier
between handshake and streaming guarantees every session is open
*simultaneously* before the first frame flows — ``sessions_peak`` in the
artifact is the proof.  Every case names its wire: the retention-bound
and rate-limit cases also stream per-frame JSON (``batch_size=0``), and
the sharded case streams 256-frame binary batches.

Metrics (``BENCH_service_throughput.json``):

* identity (exact-match gated by ``scripts/bench_compare.py``) —
  ``sessions_completed``, ``sessions_peak``, ``frames_total``,
  ``reports_identical``, ``frames_shed_at_bound``,
  ``backpressure_enforced``;
* timing (warn-only) — ``sessions_per_s``, ``frames_per_s``,
  ``p99_ingest_ms``, ``wall_s``.

``SERVICE_SMOKE=1`` shrinks the fleet to CI size (the committed baseline
is generated in smoke mode, like the other gated benches); the full run
drives 1000 concurrent sessions.
"""

from __future__ import annotations

import asyncio
import os
import resource
import time

import pytest

from repro.core import DPReverser, GpConfig, ReverserConfig
from repro.cps import DataCollector
from repro.service import DiagnosticServer, ServiceConfig, stream_capture_async
from repro.tools import make_tool_for_car
from repro.vehicle import build_car

SMOKE = bool(os.environ.get("SERVICE_SMOKE"))
SESSIONS = 40 if SMOKE else 1000
GP = GpConfig(seed=2, generations=4, population_size=60)

BENCH_CONFIG = {"smoke": SMOKE, "sessions": SESSIONS}


@pytest.fixture(scope="module")
def capture():
    car = build_car("A")
    return DataCollector(make_tool_for_car("A", car), read_duration_s=4.0).collect()


@pytest.fixture(scope="module")
def batch_json(capture):
    return DPReverser(ReverserConfig(gp_config=GP)).reverse_engineer(capture).to_json()


async def _run_fleet(server, capture, sessions):
    """Open every session, meet at the barrier, then stream concurrently."""
    barrier = asyncio.Barrier(sessions + 1)

    async def one_client(index):
        await barrier.wait()
        return await stream_capture_async(
            "127.0.0.1",
            server.port,
            capture,
            tenant=f"tenant-{index}",
            transport="isotp",
            batch_size=0,
        )

    clients = [asyncio.create_task(one_client(i)) for i in range(sessions)]
    await barrier.wait()  # release the fleet together
    return await asyncio.gather(*clients)


async def _run_connected_fleet(server, capture, sessions):
    """Like :func:`_run_fleet` but sessions handshake *before* the barrier,
    so the peak-concurrency reading counts fully established sessions."""
    from repro.service.protocol import capture_to_wire, encode_message, read_message

    barrier = asyncio.Barrier(sessions + 1)

    async def one_client(index):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            messages = capture_to_wire(
                capture, tenant=f"tenant-{index}", transport="isotp", batch_size=0
            )
            writer.write(encode_message(next(messages)))
            await writer.drain()
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome", welcome
            await barrier.wait()
            for message in messages:
                writer.write(encode_message(message))
                await writer.drain()
            while True:
                reply = await read_message(reader)
                assert reply is not None, "server closed before the report"
                if reply["type"] == "report":
                    return reply["report_json"]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    clients = [asyncio.create_task(one_client(i)) for i in range(sessions)]
    await barrier.wait()
    peak = server.sessions_active
    reports = await asyncio.gather(*clients)
    return peak, reports


class TestServiceThroughput:
    def test_concurrent_sessions_throughput(
        self, capture, batch_json, bench_artifact, report_file, tmp_path
    ):
        config = ServiceConfig(
            max_sessions=SESSIONS,
            gp_config=GP,
            gp_memo_dir=str(tmp_path / "memo"),
            analysis_workers=4,
        )

        async def run():
            async with DiagnosticServer(config) as server:
                start = time.perf_counter()
                peak, reports = await _run_connected_fleet(server, capture, SESSIONS)
                wall = time.perf_counter() - start
                return server, peak, reports, wall

        server, peak, reports, wall = asyncio.run(run())
        counters = server.snapshot()["counters"]
        identical = sum(r == batch_json for r in reports)
        frames_total = counters["service.frames_ingested"]
        ingest = server.metrics.histogram("service.ingest_seconds")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        assert peak == SESSIONS, "all sessions must be open simultaneously"
        assert identical == SESSIONS, "every streamed report must match batch"
        assert counters["service.sessions_completed"] == SESSIONS

        bench_artifact(
            {
                "sessions_completed": counters["service.sessions_completed"],
                "sessions_peak": peak,
                "frames_total": frames_total,
                "reports_identical": identical,
                "sessions_per_s": round(SESSIONS / wall, 2),
                "frames_per_s": round(frames_total / wall, 1),
                "p99_ingest_ms": round(ingest.percentile(99) * 1e3, 4),
                "wall_s": round(wall, 3),
            },
            {
                "sessions_completed": "count",
                "sessions_peak": "count",
                "frames_total": "count",
                "reports_identical": "count",
                "sessions_per_s": "1/s",
                "frames_per_s": "1/s",
                "p99_ingest_ms": "ms",
                "wall_s": "s",
            },
            config=BENCH_CONFIG,
        )
        report_file(
            f"Service throughput ({SESSIONS} concurrent sessions"
            f"{', smoke mode' if SMOKE else ''}):"
        )
        report_file(
            f"  {SESSIONS / wall:.1f} sessions/s, {frames_total / wall:.0f} "
            f"frames/s, p99 ingest {ingest.percentile(99) * 1e3:.3f} ms"
        )
        report_file(
            f"  peak concurrency {peak}, {identical}/{SESSIONS} reports "
            f"byte-identical to batch, peak RSS {rss_mb:.0f} MiB"
        )

    def test_memory_stays_bounded_under_retention_cap(
        self, capture, bench_artifact, report_file
    ):
        """A hostile/over-long stream cannot grow session memory without
        bound: frames beyond the cap are counted and shed, and the report
        still comes back (covering what was kept)."""
        bound = 64
        sessions = 8 if SMOKE else 32
        config = ServiceConfig(
            max_sessions=sessions, gp_config=GP, max_capture_frames=bound
        )

        async def run():
            async with DiagnosticServer(config) as server:
                results = await _run_fleet(server, capture, sessions)
                return server, results

        server, results = asyncio.run(run())
        counters = server.snapshot()["counters"]
        expected_shed = (len(capture.can_log) - bound) * sessions
        assert counters["service.frames_dropped"] == expected_shed
        assert counters["service.frames_ingested"] == bound * sessions
        assert all(r.report["n_frames"] == bound for r in results)

        bench_artifact(
            {"frames_shed_at_bound": expected_shed},
            {"frames_shed_at_bound": "count"},
            config=BENCH_CONFIG,
        )
        report_file(
            f"  retention bound {bound}: shed {expected_shed} frames across "
            f"{sessions} sessions, all reports delivered"
        )

    def test_sharded_batched_wire_smoke(
        self, capture, batch_json, bench_artifact, report_file, tmp_path
    ):
        """The production shape end to end: a 2-shard pre-forked fleet on
        one ``SO_REUSEPORT`` port, clients on the batched binary wire.
        Every report must still be byte-identical to the batch pipeline,
        and the merged snapshot must sum the per-shard counters."""
        from repro.service.shards import ShardSupervisor

        sessions = 6 if SMOKE else 24
        shards = 2
        config = ServiceConfig(
            gp_config=GP,
            gp_backend="serial",  # each shard is already its own process
            analysis_workers=1,
            gp_memo_dir=str(tmp_path / "memo"),
        )

        async def run_clients(port):
            return await asyncio.gather(
                *(
                    stream_capture_async(
                        "127.0.0.1",
                        port,
                        capture,
                        tenant=f"tenant-{i}",
                        transport="isotp",
                        batch_size=256,
                    )
                    for i in range(sessions)
                )
            )

        start = time.perf_counter()
        with ShardSupervisor(config, shards=shards) as supervisor:
            results = asyncio.run(run_clients(supervisor.port))
            supervisor.wait_for_sessions(sessions, timeout=120)
        wall = time.perf_counter() - start
        snapshot = supervisor.merged_snapshot()
        counters = snapshot["counters"]
        identical = sum(r.report_json == batch_json for r in results)
        stalls = sum(r.backpressure_stalls for r in results)

        assert identical == sessions
        assert counters["service.shards"] == shards
        assert counters["service.sessions_completed"] == sessions
        assert counters["service.frames_ingested"] == sessions * len(capture.can_log)

        bench_artifact(
            {
                "sharded_sessions_completed": counters["service.sessions_completed"],
                "sharded_reports_identical": identical,
                "sharded_shards": shards,
                "sharded_wall_s": round(wall, 3),
            },
            {
                "sharded_sessions_completed": "count",
                "sharded_reports_identical": "count",
                "sharded_shards": "count",
                "sharded_wall_s": "s",
            },
            config=BENCH_CONFIG,
        )
        report_file(
            f"  {shards}-shard fleet, batched wire: {identical}/{sessions} "
            f"reports byte-identical, {stalls} client stalls, "
            f"{wall:.1f}s wall"
        )

    def test_rate_limit_backpressure(self, capture, bench_artifact, report_file):
        """An over-eager client is stalled (token bucket), never buffered
        unboundedly; the stall counter proves the path engaged."""
        config = ServiceConfig(gp_config=GP, rate_limit=2000.0)

        async def run():
            async with DiagnosticServer(config) as server:
                await stream_capture_async(
                    "127.0.0.1", server.port, capture, transport="isotp", batch_size=0
                )
                return server

        server = asyncio.run(run())
        stalls = server.snapshot()["counters"]["service.backpressure_stalls"]
        assert stalls > 0
        bench_artifact(
            {"backpressure_enforced": 1},
            {"backpressure_enforced": "count"},
            config=BENCH_CONFIG,
        )
        report_file(f"  rate limit 2000/s: {stalls} ingest stalls recorded")
