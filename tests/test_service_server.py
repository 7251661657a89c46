"""The asyncio diagnostic server: sockets, multiplexing, backpressure."""

import asyncio
import contextlib
import hashlib
import json
import struct
import subprocess
import sys
import threading
from collections import Counter

import pytest

from repro.core import DPReverser, ReverserConfig
from repro.core.gp import GpConfig
from repro.cps import DataCollector
from repro.service import (
    DiagnosticServer,
    ServiceClientError,
    ServiceConfig,
    stream_capture,
    stream_capture_async,
)
from repro.service import client as client_module
from repro.service.protocol import (
    FRAME_BATCH,
    PROTOCOL_VERSION,
    capture_to_wire,
    encode_message,
    read_message,
)
from repro.tools import make_tool_for_car
from repro.tools.kline_logger import KLineDiagnosticSession, build_kline_vehicle
from repro.vehicle import build_car

GP = GpConfig(seed=2, generations=8, population_size=100)


@pytest.fixture(scope="module")
def capture_a():
    car = build_car("A")
    return DataCollector(make_tool_for_car("A", car), read_duration_s=8.0).collect()


@pytest.fixture(scope="module")
def batch_a(capture_a):
    return DPReverser(ReverserConfig(gp_config=GP)).reverse_engineer(capture_a).to_json()


@pytest.fixture(scope="module")
def kline_data():
    vehicle = build_kline_vehicle()
    capture, messages = KLineDiagnosticSession(vehicle).collect(duration_per_ecu_s=10.0)
    reverser = DPReverser(ReverserConfig(gp_config=GP))
    batch = reverser.infer(reverser.analyze(capture, messages=messages)).to_json()
    return capture, vehicle.bus.capture, batch


def service_counters(server):
    return server.snapshot()["counters"]


@contextlib.contextmanager
def server_thread(config):
    """A server on its own event loop in a background thread, for clients
    that run their own loop (the synchronous ``stream_capture``)."""
    loop = asyncio.new_event_loop()
    server = DiagnosticServer(config)
    loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever)
    thread.start()
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.run_until_complete(server.stop())
        loop.close()


class TestEndToEnd:
    def test_streamed_report_matches_batch_over_sockets(self, capture_a, batch_a):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, status_interval=50)
            ) as server:
                result = await stream_capture_async(
                    "127.0.0.1", server.port, capture_a, transport="isotp", batch_size=0
                )
                return server.snapshot(), result

        snapshot, result = asyncio.run(run())
        assert result.report_json == batch_a
        assert result.digest == hashlib.sha256(batch_a.encode()).hexdigest()
        assert result.report == json.loads(batch_a)
        assert result.statuses, "expected interim status pushes"
        assert all(s["type"] == "status" for s in result.statuses)
        assert snapshot["counters"]["service.sessions_completed"] == 1
        assert snapshot["counters"]["service.frames_ingested"] == len(capture_a.can_log)
        assert snapshot["gauges"]["service.sessions_active"] == 0.0
        assert "service.ingest_seconds" in snapshot["histograms"]

    def test_batched_wire_report_matches_batch(self, capture_a, batch_a):
        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                result = await stream_capture_async(
                    "127.0.0.1",
                    server.port,
                    capture_a,
                    transport="isotp",
                    batch_size=256,
                )
                return server, result

        server, result = asyncio.run(run())
        assert result.report_json == batch_a
        counters = service_counters(server)
        assert counters["service.sessions_completed"] == 1
        assert counters["service.frames_ingested"] == len(capture_a.can_log)

    def test_batched_rate_limit_charges_per_frame(self, capture_a):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, rate_limit=2000.0)
            ) as server:
                result = await stream_capture_async(
                    "127.0.0.1",
                    server.port,
                    capture_a,
                    transport="isotp",
                    batch_size=128,
                )
                return server, result

        server, result = asyncio.run(run())
        counters = service_counters(server)
        # A 128-frame batch costs 128 tokens, so the 2000/s limit still
        # stalls the reader even though far fewer messages arrive.
        assert counters["service.backpressure_stalls"] > 0
        assert counters["service.sessions_completed"] == 1

    def test_batched_retention_bound_sheds_frames(self, capture_a):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, max_capture_frames=100)
            ) as server:
                result = await stream_capture_async(
                    "127.0.0.1",
                    server.port,
                    capture_a,
                    transport="isotp",
                    batch_size=64,
                )
                return server, result

        server, result = asyncio.run(run())
        counters = service_counters(server)
        assert counters["service.frames_dropped"] == len(capture_a.can_log) - 100
        assert counters["service.frames_ingested"] == 100
        assert result.report["n_frames"] == 100

    def test_default_client_streams_batches(self, capture_a, batch_a, monkeypatch):
        """``stream_capture`` with default arguments sends ``frame-batch``
        messages, and its report is the batch pipeline's."""
        sent = Counter()
        write = client_module.write_message

        def recording_write(writer, message):
            sent[message["type"]] += 1
            write(writer, message)

        monkeypatch.setattr(client_module, "write_message", recording_write)
        with server_thread(ServiceConfig(gp_config=GP)) as server:
            result = stream_capture("127.0.0.1", server.port, capture_a)
        assert result.report_json == batch_a
        assert sent[FRAME_BATCH] == -(-len(capture_a.can_log) // client_module.BATCH_SIZE)
        assert "frame" not in sent

    def test_concurrent_mixed_transport_sessions(self, capture_a, batch_a, kline_data):
        kline_capture, kline_bytes, kline_batch = kline_data

        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                results = await asyncio.gather(
                    stream_capture_async(
                        "127.0.0.1",
                        server.port,
                        capture_a,
                        tenant="can-tenant",
                        transport="isotp",
                    ),
                    stream_capture_async(
                        "127.0.0.1",
                        server.port,
                        kline_capture,
                        tenant="kline-tenant",
                        transport="kline",
                        kline_bytes=kline_bytes,
                    ),
                )
                return server, results

        server, (can_result, kline_result) = asyncio.run(run())
        assert can_result.report_json == batch_a
        assert kline_result.report_json == kline_batch
        counters = service_counters(server)
        assert counters["service.sessions_completed"] == 2
        assert server.sessions_active == 0

    def test_shared_memo_across_sessions(self, capture_a, batch_a, tmp_path):
        async def run():
            config = ServiceConfig(gp_config=GP, gp_memo_dir=str(tmp_path / "memo"))
            async with DiagnosticServer(config) as server:
                first = await stream_capture_async(
                    "127.0.0.1", server.port, capture_a, transport="isotp"
                )
                second = await stream_capture_async(
                    "127.0.0.1", server.port, capture_a, transport="isotp"
                )
                return server.memo_stats, first, second

        memo_stats, first, second = asyncio.run(run())
        assert first.report_json == second.report_json == batch_a
        assert memo_stats["misses"] > 0  # first session populated the store
        assert memo_stats["hits"] >= memo_stats["misses"]  # second one rode it


class TestLimitsAndBackpressure:
    def test_max_sessions_rejects_excess_tenants(self, capture_a):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, max_sessions=1)
            ) as server:
                # Occupy the only slot with a half-open session.
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    encode_message(
                        {"type": "hello", "version": PROTOCOL_VERSION,
                         "tenant": "hog", "transport": "isotp", "meta": {}}
                    )
                )
                await writer.drain()
                welcome = await read_message(reader)
                assert welcome["type"] == "welcome"
                with pytest.raises(ServiceClientError, match="server full"):
                    await stream_capture_async(
                        "127.0.0.1", server.port, capture_a, transport="isotp"
                    )
                writer.close()
                await writer.wait_closed()
                return server

        server = asyncio.run(run())
        assert service_counters(server)["service.sessions_rejected"] == 1

    def test_rate_limit_stalls_ingest(self, capture_a):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, rate_limit=2000.0)
            ) as server:
                result = await stream_capture_async(
                    "127.0.0.1", server.port, capture_a, transport="isotp", batch_size=0
                )
                return server, result

        server, result = asyncio.run(run())
        counters = service_counters(server)
        assert counters["service.backpressure_stalls"] > 0
        assert counters["service.sessions_completed"] == 1

    def test_retention_bound_sheds_frames(self, capture_a):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, max_capture_frames=100)
            ) as server:
                result = await stream_capture_async(
                    "127.0.0.1", server.port, capture_a, transport="isotp", batch_size=0
                )
                return server, result

        server, result = asyncio.run(run())
        counters = service_counters(server)
        assert counters["service.frames_dropped"] == len(capture_a.can_log) - 100
        assert counters["service.frames_ingested"] == 100
        assert result.report["n_frames"] == 100  # report covers what was kept

    def test_bad_hello_counts_protocol_error(self):
        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(encode_message({"type": "frame", "t": 0.0, "id": 1, "data": ""}))
                await writer.drain()
                reply = await read_message(reader)
                writer.close()
                await writer.wait_closed()
                return server, reply

        server, reply = asyncio.run(run())
        assert reply["type"] == "error"
        assert "expected hello" in reply["error"]
        assert service_counters(server)["service.protocol_errors"] == 1

    def test_deeply_nested_json_counts_protocol_error(self):
        body = b"[" * 50_000  # json.loads raises RecursionError on this

        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(struct.pack(">I", len(body)) + body)
                await writer.drain()
                reply = await read_message(reader)
                writer.close()
                await writer.wait_closed()
                return server, reply

        server, reply = asyncio.run(run())
        assert reply["type"] == "error"
        assert "not JSON" in reply["error"]
        assert service_counters(server)["service.protocol_errors"] == 1

    @pytest.mark.parametrize("field, value", [("x", "a"), ("text", 7), ("height", True)])
    def test_ill_typed_video_region_counts_protocol_error(self, capture_a, field, value):
        """A region field of the wrong JSON type is refused at the wire with
        an error reply, not left to crash the session's finalize."""
        hello, *records = capture_to_wire(capture_a, transport="isotp")
        video = next(
            record
            for record in records
            if record["type"] == "video"
            and any(region["kind"] == "value" for region in record["regions"])
        )
        video = dict(video, regions=[dict(region, **{field: value}) for region in video["regions"]])

        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                for message in (hello, video, {"type": "finish"}):
                    writer.write(encode_message(message))
                await writer.drain()
                replies = [await read_message(reader) for __ in range(2)]
                writer.close()
                await writer.wait_closed()
                return server, replies

        server, (welcome, reply) = asyncio.run(run())
        assert welcome["type"] == "welcome"
        assert reply["type"] == "error"
        assert f"region field {field!r}" in reply["error"]
        assert service_counters(server)["service.protocol_errors"] == 1


def click_messages(count):
    return [
        {"type": "click", "t": 0.001 * i, "x": 1, "y": 2, "label": "Live Data", "hit": True}
        for i in range(count)
    ]


async def exchange(port, messages, replies):
    """Send raw ``messages`` on one connection; read ``replies`` back."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for message in messages:
        writer.write(encode_message(message))
    await writer.drain()
    received = [await read_message(reader) for __ in range(replies)]
    writer.close()
    await writer.wait_closed()
    return received


HELLO = {
    "type": "hello",
    "version": PROTOCOL_VERSION,
    "tenant": "t",
    "transport": "isotp",
    "meta": {},
}


class RecordingServer(DiagnosticServer):
    """Keeps every closed session, for assertions on its final state."""

    def __init__(self, config):
        super().__init__(config)
        self.closed = []

    def _close_session(self, conn):
        self.closed.append(conn.session)
        super()._close_session(conn)


def frame_messages(count):
    return [
        {"type": "frame", "t": 0.001 * i, "id": 0x7E8, "data": "0241"} for i in range(count)
    ]


class TestChunkedReads:
    """One socket read's consecutive JSON frames are ingested as one run;
    a malformed message still fails at its own position."""

    @pytest.mark.parametrize(
        "bad",
        [
            encode_message({"type": "frame", "t": 0.0, "id": "7e8", "data": "0241"}),
            encode_message({"type": "frame", "t": 0.0, "id": 0x7E8, "data": "zz"}),
            struct.pack(">I", 9) + b"not json!",
        ],
        ids=["bad-id", "bad-data", "bad-body"],
    )
    def test_bad_message_mid_run_fails_at_its_index(self, bad):
        index = 30
        frames = [encode_message(m) for m in frame_messages(60)]
        wire = b"".join(frames[:index]) + bad + b"".join(frames[index:])

        async def run():
            async with RecordingServer(ServiceConfig(gp_config=GP)) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(encode_message(HELLO) + wire + encode_message({"type": "finish"}))
                await writer.drain()
                replies = [await read_message(reader) for __ in range(2)]
                writer.close()
                await writer.wait_closed()
                return server, replies

        server, (welcome, reply) = asyncio.run(run())
        assert welcome["type"] == "welcome"
        assert reply["type"] == "error"
        (session,) = server.closed
        assert session.frames_received == index
        counters = service_counters(server)
        assert counters["service.frames_ingested"] == index
        assert counters["service.protocol_errors"] == 1

    def test_json_frame_runs_report_matches_batch(self, capture_a, batch_a):
        """Per-frame JSON written in one burst: the server ingests whole
        runs per read, and the report is still the batch pipeline's."""
        wire = b"".join(
            encode_message(m) for m in capture_to_wire(capture_a, transport="isotp")
        )

        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(wire)
                await writer.drain()
                replies = [await read_message(reader) for __ in range(2)]
                writer.close()
                await writer.wait_closed()
                return server, replies

        server, (welcome, reply) = asyncio.run(run())
        assert reply["type"] == "report"
        assert reply["report_json"] == batch_a
        ingest = server.metrics.histogram("service.ingest_seconds")
        frames = len(capture_a.can_log)
        # Fewer ingest calls than frames: reads carried runs of frames.
        assert 0 < ingest.count < frames
        assert service_counters(server)["service.frames_ingested"] == frames

    def test_slow_drip_of_one_message_is_evicted(self):
        """Idle means no complete message, however many of its bytes
        trickle in."""
        message = encode_message(frame_messages(1)[0])

        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, session_idle_timeout=0.2)
            ) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(encode_message(HELLO))
                await writer.drain()
                assert (await read_message(reader))["type"] == "welcome"
                reply = asyncio.ensure_future(read_message(reader))
                for byte in message[:-1]:
                    if reply.done():
                        break
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(0.05)
                result = await asyncio.wait_for(reply, timeout=5.0)
                writer.close()
                await writer.wait_closed()
                return server, result

        server, reply = asyncio.run(run())
        assert reply["type"] == "error" and "idle" in reply["error"]
        assert service_counters(server)["service.sessions_evicted_idle"] == 1


class TestRecordBound:
    def test_session_over_the_record_bound_gets_an_error(self, monkeypatch):
        from repro.service import session as session_module

        monkeypatch.setattr(session_module, "MAX_SESSION_RECORDS", 5)

        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                replies = await exchange(
                    server.port, [HELLO, *click_messages(6), {"type": "finish"}], 2
                )
                return server, replies

        server, (welcome, reply) = asyncio.run(run())
        assert welcome["type"] == "welcome"
        assert reply["type"] == "error"
        assert "exceeds 5" in reply["error"]
        assert service_counters(server)["service.protocol_errors"] == 1

    def test_rate_limited_click_flood_stalls(self):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, rate_limit=100.0)
            ) as server:
                replies = await exchange(
                    server.port, [HELLO, *click_messages(150), {"type": "finish"}], 2
                )
                return server, replies

        server, (welcome, reply) = asyncio.run(run())
        assert reply["type"] == "report"
        assert service_counters(server)["service.backpressure_stalls"] > 0


class TestCoalescedWrites:
    """The client hands the socket one write per flush window: the hello,
    then windows of :data:`~repro.service.client.FLUSH_MESSAGES` messages
    or :data:`~repro.service.client.WRITE_HIGH_WATER` bytes."""

    @pytest.fixture(scope="class")
    def car_c(self):
        capture = DataCollector(make_tool_for_car("C", build_car("C"))).collect()
        batch = DPReverser(ReverserConfig(formula_backend="linear")).reverse_engineer(capture)
        return capture, batch.to_json()

    @pytest.mark.parametrize("batch_size", [client_module.BATCH_SIZE, 0])
    def test_one_transport_write_per_flush_window(self, car_c, batch_size, monkeypatch):
        capture, batch = car_c
        writes = []
        open_connection = asyncio.open_connection

        async def counting_open_connection(*args, **kwargs):
            reader, writer = await open_connection(*args, **kwargs)
            transport_write = writer.transport.write

            def write(data):
                writes.append(len(data))
                transport_write(data)

            writer.transport.write = write
            return reader, writer

        monkeypatch.setattr(asyncio, "open_connection", counting_open_connection)

        async def run():
            async with DiagnosticServer(ServiceConfig(formula_backend="linear")) as server:
                return await stream_capture_async(
                    "127.0.0.1", server.port, capture, batch_size=batch_size
                )

        result = asyncio.run(run())
        assert result.report_json == batch
        sizes = [len(encode_message(m)) for m in capture_to_wire(capture, batch_size=batch_size)]
        windows, window = [sizes[0]], []
        for size in sizes[1:]:
            window.append(size)
            if len(window) >= client_module.FLUSH_MESSAGES or (
                sum(window) >= client_module.WRITE_HIGH_WATER
            ):
                windows.append(sum(window))
                window = []
        windows.append(sum(window))
        assert writes == [size for size in windows if size]
        assert len(writes) * 10 < len(sizes)


class TestObservability:
    def test_per_session_trace_lanes(self, capture_a):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, trace=True)
            ) as server:
                results = await asyncio.gather(
                    *(
                        stream_capture_async(
                            "127.0.0.1",
                            server.port,
                            capture_a,
                            tenant=f"t{i}",
                            transport="isotp",
                        )
                        for i in range(2)
                    )
                )
                return server, results

        server, results = asyncio.run(run())
        assert server.tracer.enabled
        lanes = {span.tid for span in server.tracer.spans}
        assert len(lanes) >= 2, "each session should occupy its own trace lane"
        # Inference spans rode the absorb path: the default backend runs
        # GP on the shared worker pool, each worker records one gp_formula
        # span per task, and each lands in its own session's lane.
        gp_lanes = Counter(span.tid for span in server.tracer.spans if span.name == "gp_formula")
        formula_esvs = [
            sum(not esv["is_enum"] for esv in result.report["esvs"]) for result in results
        ]
        assert all(formula_esvs)
        assert sorted(gp_lanes.values()) == sorted(formula_esvs)
        trace = server.tracer.to_chrome()
        assert len({event["tid"] for event in trace["traceEvents"]}) >= 2

    def test_snapshot_prometheus_render_includes_gauge(self, capture_a):
        from repro.observability import prometheus_text

        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                await stream_capture_async(
                    "127.0.0.1", server.port, capture_a, transport="isotp"
                )
                return server.snapshot()

        snapshot = asyncio.run(run())
        text = prometheus_text(snapshot)
        assert "# TYPE repro_service_sessions_active gauge" in text
        assert "repro_service_sessions_completed 1" in text


class TestServeCli:
    def test_serve_one_session_and_exit(self, capture_a, batch_a, tmp_path):
        metrics_path = tmp_path / "service.json"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--sessions", "1", "--seed", "2",
                "--metrics-out", str(metrics_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("listening on ")
            host, _, port = line.rpartition(" ")[2].rpartition(":")

            async def run():
                return await stream_capture_async(
                    host, int(port), capture_a, transport="isotp"
                )

            result = asyncio.run(run())
            # The CLI pins GpConfig(seed=2) with paper-default search
            # effort, so only check shape here, not GP-config-dependent
            # byte identity against the test's small config.
            assert result.report is not None
            assert result.report["transport"] == "isotp"
            assert process.wait(timeout=60) == 0
        finally:
            process.kill()
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["service.sessions_completed"] == 1


class TestAdversarialDefenses:
    """Session-level DoS defenses: idle eviction and anomaly surfacing."""

    def test_idle_session_evicted(self):
        async def run():
            async with DiagnosticServer(
                ServiceConfig(gp_config=GP, session_idle_timeout=0.05)
            ) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    encode_message(
                        {"type": "hello", "version": PROTOCOL_VERSION,
                         "tenant": "slowloris", "transport": "isotp", "meta": {}}
                    )
                )
                await writer.drain()
                welcome = await read_message(reader)
                assert welcome["type"] == "welcome"
                # Hold the connection open without sending anything.
                reply = await asyncio.wait_for(read_message(reader), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                return server, reply

        server, reply = asyncio.run(run())
        assert reply["type"] == "error"
        assert "idle" in reply["error"]
        assert service_counters(server)["service.sessions_evicted_idle"] == 1

    def test_idle_timeout_off_by_default(self):
        assert ServiceConfig(gp_config=GP).session_idle_timeout == 0.0

    def test_hardened_session_surfaces_anomaly_counters(self, capture_a):
        from dataclasses import replace

        from repro.attacks import SessionStarvation
        from repro.can import CanLog

        attacked = replace(
            capture_a,
            can_log=CanLog(SessionStarvation(seed=9).apply(capture_a.can_log)),
        )

        async def run():
            async with DiagnosticServer(ServiceConfig(gp_config=GP)) as server:
                result = await stream_capture_async(
                    "127.0.0.1", server.port, attacked, transport="isotp"
                )
                return server, result

        server, result = asyncio.run(run())
        counters = service_counters(server)
        assert counters["service.anomaly.suspected_starvation"] >= 1
        assert result.report["n_frames"] > 0  # the session still produced a report
