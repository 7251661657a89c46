"""The streaming invariant: frame-by-frame == batch, byte for byte.

The property the whole service rests on — streaming a capture through a
:class:`~repro.service.session.VehicleSession` one record at a time must
produce a :class:`~repro.core.reverser.ReverseReport` byte-identical to
``repro reverse`` on the same capture — checked for every transport
family (ISO-TP, VW TP 2.0, BMW, K-Line), with auto-detection, and under
the default noise profile.  Plus the K-Line event-decoder conformance to
the :class:`~repro.transport.base.TransportDecoder` API, and a property
that hostile wire records interleaved with a clean capture are rejected
or accepted, never crash ingest or finalize.
"""

import copy
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.can import (
    MAX_DATA_LENGTH,
    MAX_EXTENDED_ID,
    MAX_STANDARD_ID,
    CanFrame,
    CanLog,
    FaultCounts,
    NoiseProfile,
    apply_noise,
)
from repro.core import DPReverser, ReverserConfig
from repro.core.assembly import StreamAssembler, assemble_with_diagnostics
from repro.core.gp import GpConfig
from repro.cps import DataCollector
from repro.cps.collector import Capture
from repro.service import MessageDecoder, ProtocolError, SessionError, VehicleSession
from repro.service.protocol import (
    FLAG_EXTENDED,
    FRAME_BATCH,
    FRAME_RECORD,
    MAX_BATCH_FRAMES,
    capture_to_wire,
    encode_message,
)
from repro.service.session import DETECT_WINDOW, MAX_CAPTURE_FRAMES
from repro.tools import make_tool_for_car
from repro.tools.kline_logger import KLineDiagnosticSession, build_kline_vehicle
from repro.transport.arrays import FrameArrays
from repro.transport.base import DecoderStats, EVENT_PAYLOAD
from repro.transport.kline import KLineEventDecoder, parse_capture
from repro.vehicle import build_car

GP = GpConfig(seed=2, generations=8, population_size=100)

#: One car per CAN transport family.
TRANSPORT_CARS = {"isotp": "A", "vwtp": "B", "bmw": "E"}


def make_reverser():
    return DPReverser(ReverserConfig(gp_config=GP))


@pytest.fixture(scope="module")
def captures():
    collected = {}
    for transport, key in TRANSPORT_CARS.items():
        car = build_car(key)
        tool = make_tool_for_car(key, car)
        collected[transport] = DataCollector(tool, read_duration_s=8.0).collect()
    return collected


@pytest.fixture(scope="module")
def batch_reports(captures):
    return {
        transport: make_reverser().reverse_engineer(capture).to_json()
        for transport, capture in captures.items()
    }


def stream_session(capture, transport="auto", kline_bytes=None, batch_size=0, **kwargs):
    """Feed a capture through a session the way the server would."""
    hello, *records, finish = capture_to_wire(
        capture, transport=transport, kline_bytes=kline_bytes, batch_size=batch_size
    )
    assert (hello["type"], finish["type"]) == ("hello", "finish")
    session = VehicleSession(
        session_id=0,
        tenant="test",
        transport=hello["transport"],
        meta=hello["meta"],
        **kwargs,
    )
    for message in records:
        session.ingest_message(message)
    return session


class TestStreamAssemblerMatchesBatch:
    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CARS))
    def test_messages_and_diagnostics_identical(self, captures, transport):
        frames = list(captures[transport].can_log)
        batch_messages, batch_diag = assemble_with_diagnostics(frames, transport)
        assembler = StreamAssembler(transport)
        for frame in frames:
            assembler.feed(frame)
        messages, diag = assembler.finish()
        assert messages == batch_messages
        assert diag.to_dict() == batch_diag.to_dict()

    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CARS))
    def test_identical_under_default_noise(self, captures, transport):
        noisy = apply_noise(
            list(captures[transport].can_log),
            NoiseProfile.default(seed=7),
            FaultCounts(),
        )
        batch_messages, batch_diag = assemble_with_diagnostics(noisy, transport)
        assembler = StreamAssembler(transport)
        for frame in noisy:
            assembler.feed(frame)
        messages, diag = assembler.finish()
        assert messages == batch_messages
        assert diag.to_dict() == batch_diag.to_dict()

    @pytest.mark.parametrize("transport", ["isotp", "bmw"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_feed_chunk_identical_to_per_frame(self, captures, transport, noisy):
        frames = list(captures[transport].can_log)
        if noisy:
            frames = apply_noise(frames, NoiseProfile.default(seed=5), FaultCounts())
        per_frame = StreamAssembler(transport)
        for frame in frames:
            per_frame.feed(frame)
        chunked = StreamAssembler(transport)
        for start in range(0, len(frames), 113):
            chunked.feed_chunk(frames[start : start + 113])
        assert chunked.finish()[0] == per_frame.finish()[0]
        assert chunked.diagnostics.to_dict() == per_frame.diagnostics.to_dict()

    def test_feed_chunk_on_vwtp_falls_back_to_event_path(self, captures):
        frames = list(captures["vwtp"].can_log)
        per_frame = StreamAssembler("vwtp")
        for frame in frames:
            per_frame.feed(frame)
        chunked = StreamAssembler("vwtp")
        chunked.feed_chunk(frames)
        assert chunked.finish()[0] == per_frame.finish()[0]
        assert chunked.diagnostics.to_dict() == per_frame.diagnostics.to_dict()

    def test_finish_is_idempotent(self, captures):
        assembler = StreamAssembler("isotp")
        for frame in captures["isotp"].can_log:
            assembler.feed(frame)
        first = assembler.finish()
        second = assembler.finish()
        assert first[0] is second[0]
        assert first[1] is second[1]


class TestStreamedReportByteIdentity:
    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CARS))
    def test_declared_transport(self, captures, batch_reports, transport):
        session = stream_session(captures[transport], transport=transport)
        report = session.finalize(make_reverser())
        assert report.to_json() == batch_reports[transport]

    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CARS))
    def test_auto_detected_transport(self, captures, batch_reports, transport):
        session = stream_session(captures[transport], transport="auto")
        report = session.finalize(make_reverser())
        assert session.transport == transport
        assert report.to_json() == batch_reports[transport]

    def test_under_default_noise(self, captures):
        # Noise is applied to the frame stream *before* it reaches either
        # path (a lossy tap corrupts what both consumers see), so batch
        # analyses the noisy capture directly and the stream carries the
        # same noisy frames.
        clean = captures["isotp"]
        noisy_frames = apply_noise(
            list(clean.can_log), NoiseProfile.default(seed=11), FaultCounts()
        )
        noisy = Capture(
            model=clean.model,
            tool_name=clean.tool_name,
            can_log=CanLog(noisy_frames),
            video=clean.video,
            clicks=clean.clicks,
            segments=clean.segments,
            tool_error_rate=clean.tool_error_rate,
            camera_offset_s=clean.camera_offset_s,
        )
        batch = make_reverser().reverse_engineer(noisy).to_json()
        session = stream_session(noisy, transport="isotp")
        assert session.finalize(make_reverser()).to_json() == batch

    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CARS))
    def test_batched_wire_declared_transport(
        self, captures, batch_reports, transport
    ):
        session = stream_session(
            captures[transport], transport=transport, batch_size=256
        )
        report = session.finalize(make_reverser())
        assert report.to_json() == batch_reports[transport]

    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CARS))
    def test_batched_wire_auto_detected(self, captures, batch_reports, transport):
        session = stream_session(captures[transport], transport="auto", batch_size=64)
        report = session.finalize(make_reverser())
        assert session.transport == transport
        assert report.to_json() == batch_reports[transport]

    def test_batched_wire_under_noise(self, captures):
        clean = captures["isotp"]
        noisy_frames = apply_noise(
            list(clean.can_log), NoiseProfile.default(seed=11), FaultCounts()
        )
        noisy = Capture(
            model=clean.model,
            tool_name=clean.tool_name,
            can_log=CanLog(noisy_frames),
            video=clean.video,
            clicks=clean.clicks,
            segments=clean.segments,
            tool_error_rate=clean.tool_error_rate,
            camera_offset_s=clean.camera_offset_s,
        )
        batch = make_reverser().reverse_engineer(noisy).to_json()
        session = stream_session(noisy, transport="isotp", batch_size=128)
        assert session.finalize(make_reverser()).to_json() == batch

    def test_kline_declared_and_auto(self):
        vehicle = build_kline_vehicle()
        capture, messages = KLineDiagnosticSession(vehicle).collect(
            duration_per_ecu_s=10.0
        )
        reverser = make_reverser()
        batch = reverser.infer(
            reverser.analyze(capture, messages=messages)
        ).to_json()
        for transport in ("kline", "auto"):
            # batch_size=64 exercises the fourth transport with batching
            # enabled: K-Line bytes are never batched, so the wire (and
            # the report) must come out identical.
            for batch_size in (0, 64):
                session = stream_session(
                    capture,
                    transport=transport,
                    kline_bytes=vehicle.bus.capture,
                    batch_size=batch_size,
                )
                assert session.transport == "kline"
                assert session.finalize(make_reverser()).to_json() == batch


def session_state(session):
    """Everything a session's report and status are built from."""
    messages, diagnostics = session._assembler.finish()
    return (
        session.transport,
        session.status(),
        session.frames_dropped,
        list(session.build_capture().can_log),
        messages,
        diagnostics.to_dict(),
    )


class TestOneFramePath:
    """``ingest_frame`` is a one-frame call of ``ingest_frames``: however
    the stream is chunked, the session ends in the same state."""

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CARS))
    def test_chunks_equal_single_frames_under_noise(self, captures, transport, columnar):
        frames = apply_noise(
            list(captures[transport].can_log), NoiseProfile.default(seed=3), FaultCounts()
        )
        bound = len(frames) - 37  # the last 37 frames meet the retention bound
        single = VehicleSession(0, transport="auto", max_capture_frames=bound)
        completions = [single.ingest_frame(frame) for frame in frames]
        chunked = VehicleSession(0, transport="auto", max_capture_frames=bound)
        # 50-frame chunks: the second one crosses the 64-frame detection
        # window, and one chunk straddles the retention bound.
        chunk_size = 50
        assert chunk_size < DETECT_WINDOW < 2 * chunk_size
        results = []
        for start in range(0, len(frames), chunk_size):
            chunk = frames[start : start + chunk_size]
            results.append(
                chunked.ingest_frames(FrameArrays.from_frames(chunk) if columnar else chunk)
            )
        assert completions[bound:] == [-1] * 37
        assert single.frames_dropped == sum(dropped for __, dropped in results) == 37
        assert sum(completed for completed, __ in results) == sum(completions[:bound])
        assert single.transport == transport
        assert session_state(chunked) == session_state(single)

    def test_batched_wire_sends_full_batches(self, wire_c):
        """Video and click records no longer cut a frame run short: every
        batch but the last is full, and the report equals the per-frame
        wire's."""
        streams, __ = wire_c
        sizes = [m["n"] for m in streams[True] if m["type"] == FRAME_BATCH]
        assert len(sizes) > 1
        assert set(sizes[:-1]) == {64} and 0 < sizes[-1] <= 64
        reports = []
        for batched in (False, True):
            hello, *records, finish = streams[batched]
            session = VehicleSession(0, transport=hello["transport"], meta=hello["meta"])
            for message in records:
                session.ingest_message(message)
            reports.append(session.finalize(make_reverser()).to_json())
        assert reports[1] == reports[0]


class TestKLineEventDecoder:
    def fed_decoder(self):
        vehicle = build_kline_vehicle()
        KLineDiagnosticSession(vehicle).collect(duration_per_ecu_s=10.0)
        decoder = KLineEventDecoder()
        payloads = []
        for byte in vehicle.bus.capture:
            for event in decoder.feed(CanFrame(0, bytes([byte.value]), byte.timestamp)):
                if event.kind == EVENT_PAYLOAD:
                    payloads.append(event.payload)
        return vehicle, decoder, payloads

    def test_payload_events_match_parse_capture(self):
        vehicle, decoder, payloads = self.fed_decoder()
        stats = DecoderStats()
        messages = parse_capture(vehicle.bus.capture, stats)
        assert payloads == [m.payload for m in messages if m.checksum_ok]
        decoder.finish()
        assert decoder.stats.to_dict() == stats.to_dict()

    def test_conforms_to_event_api(self):
        from repro.transport.base import TransportDecoder

        decoder = KLineEventDecoder()
        assert isinstance(decoder, TransportDecoder)
        assert decoder.KIND == "kline"
        assert decoder.stats.frames == 0


class TestSessionGuards:
    def test_mixing_can_and_kline_rejected(self):
        session = VehicleSession(0, transport="auto")
        session.ingest_frame(CanFrame(1, b"\x02\x01\x0c", 0.0))
        from repro.transport.kline import KLineByte

        with pytest.raises(SessionError, match="K-Line byte on a CAN"):
            session.ingest_kline_byte(KLineByte(0.1, 0x80))

    def test_ingest_after_finalize_rejected(self):
        session = VehicleSession(0, transport="isotp")
        session.ingest_frame(CanFrame(1, b"\x02\x01\x0c", 0.0))
        session.finalize(make_reverser())
        with pytest.raises(SessionError, match="already finished"):
            session.ingest_frame(CanFrame(1, b"\x02\x01\x0c", 0.1))

    def test_retention_bound_drops_and_counts(self):
        session = VehicleSession(0, transport="isotp", max_capture_frames=5)
        for i in range(9):
            session.ingest_frame(CanFrame(1, b"\x02\x01\x0c", float(i)))
        assert session.frames_received == 5
        assert session.frames_dropped == 4

    def test_batched_retention_bound_drops_and_counts(self):
        session = VehicleSession(0, transport="isotp", max_capture_frames=5)
        frames = [CanFrame(1, b"\x02\x01\x0c", float(i)) for i in range(9)]
        completed, dropped = session.ingest_frames(frames)
        assert (session.frames_received, session.frames_dropped) == (5, 4)
        assert dropped == 4
        assert completed == session.messages_assembled == 5

    def test_record_bound_refuses_the_record_past_it(self, monkeypatch):
        """A click flood no longer grows a session without bound (scaled
        down: the bound patched to 300, frames capped at 10)."""
        from repro.cps.arm import ClickRecord
        from repro.cps.camera import CapturedFrame
        from repro.cps.collector import Segment
        from repro.service import session as session_module

        monkeypatch.setattr(session_module, "MAX_SESSION_RECORDS", 300)
        session = VehicleSession(0, transport="isotp", max_capture_frames=10)
        session.ingest_video(CapturedFrame(timestamp=0.0, screen_name="live", regions=[]))
        session.ingest_segment(Segment("live", "Engine", "read", 0.0, 1.0))
        for i in range(298):
            session.ingest_click(ClickRecord(0.001 * i, 1, 2, "Live Data", True))
        for ingest, record in (
            (session.ingest_click, ClickRecord(1.0, 1, 2, "Live Data", True)),
            (session.ingest_video, CapturedFrame(timestamp=1.0, screen_name="live", regions=[])),
            (session.ingest_segment, Segment("live", "Engine", "read", 1.0, 2.0)),
        ):
            with pytest.raises(SessionError, match="exceeds 300"):
                ingest(record)
        assert (len(session.video), len(session.clicks), len(session.segments)) == (1, 298, 1)

    def test_batched_counters_match_per_frame(self, captures):
        capture = captures["isotp"]
        per_frame = stream_session(capture, transport="auto")
        batched = stream_session(capture, transport="auto", batch_size=100)
        assert batched.status() == per_frame.status()

    def test_ingest_frames_after_finalize_rejected(self):
        session = VehicleSession(0, transport="isotp")
        session.finalize(make_reverser())
        with pytest.raises(SessionError, match="already finished"):
            session.ingest_frames([CanFrame(1, b"\x02\x01\x0c", 0.0)])

    @pytest.mark.parametrize("kind", ["hello", "finish", "frames", None])
    def test_unknown_message_type_rejected(self, kind):
        session = VehicleSession(0, transport="isotp")
        with pytest.raises(ProtocolError, match="unknown message type"):
            session.ingest_message({"type": kind})
        assert session.status()["frames"] == 0

    def test_status_counts(self, captures):
        session = stream_session(captures["isotp"], transport="isotp")
        status = session.status()
        assert status["frames"] == len(captures["isotp"].can_log)
        assert status["messages"] == session.messages_assembled > 0

    def test_interim_snapshot_lists_esvs(self, captures):
        session = stream_session(captures["isotp"], transport="isotp")
        snapshot = session.interim_snapshot()
        assert snapshot["esvs"], "expected ESV observations mid-stream"
        for esv in snapshot["esvs"]:
            assert esv["observations"] > 0
            assert esv["protocol"]


# ------------------------------------------------------------ hostile wire
#
# A clean car-C capture's wire messages interleaved with hostile records.
# Each record is decoded through the wire the server reads (envelope,
# ``*_from_wire``/``arrays_from_batch``) and fed to the session: it must
# be rejected with ProtocolError/SessionError or accepted, never crash.

#: JSON values of every type, for fields that expect one of them.
HOSTILE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["nan", "-inf", "1e999", "0x7e8", "", "Engine Speed", 10**400]),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from(["a", "x"]), st.integers(0, 9), max_size=2),
)
#: Identifiers, flags and DLCs at and just past the decoder bounds.
BOUND_IDS = st.sampled_from(
    [0, 0x7E8, MAX_STANDARD_ID, MAX_STANDARD_ID + 1, MAX_EXTENDED_ID, MAX_EXTENDED_ID + 1]
)
RECORD_IDS = st.one_of(BOUND_IDS, st.just(0xFFFFFFFF))
BOUND_DLCS = st.sampled_from([0, 1, MAX_DATA_LENGTH, MAX_DATA_LENGTH + 1, 0xFF])

VIDEO_FIELDS = st.sampled_from(["t", "screen", "regions"])
REGION_FIELDS = st.sampled_from(["text", "x", "y", "width", "height", "kind", "icon", "extra"])
CLICK_FIELDS = st.sampled_from(["t", "x", "y", "label", "hit"])
SEGMENT_FIELDS = st.sampled_from(["kind", "ecu", "label", "t_start", "t_end"])
FRAME_FIELDS = st.sampled_from(["t", "id", "data", "ext", "ch"])
BATCH_FLAGS = st.sampled_from([0, FLAG_EXTENDED, 2, 3, 0xFF])

#: Recipes for hostile records, built into wire messages by
#: :func:`hostile_message` from the capture's own records.
HOSTILE_RECORDS = st.one_of(
    st.tuples(st.just("video"), st.integers(0, 99), VIDEO_FIELDS, HOSTILE_VALUES),
    st.tuples(
        st.just("region"), st.integers(0, 99), st.integers(0, 11), REGION_FIELDS, HOSTILE_VALUES
    ),
    st.tuples(st.just("click"), CLICK_FIELDS, HOSTILE_VALUES),
    st.tuples(st.just("segment"), SEGMENT_FIELDS, HOSTILE_VALUES),
    st.tuples(
        st.just("frame"),
        st.one_of(BOUND_IDS, st.floats()),
        st.booleans(),
        st.integers(0, MAX_DATA_LENGTH + 1),
        st.floats(),
    ),
    st.tuples(st.just("frame-field"), FRAME_FIELDS, HOSTILE_VALUES),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(st.floats(), RECORD_IDS, BATCH_FLAGS, BOUND_DLCS), max_size=4),
    ),
    st.just(("full-batch",)),
    st.tuples(st.just("kbyte"), st.floats(), st.integers(-1, 0x100)),
)


@pytest.fixture(scope="module")
def wire_c():
    """Car C's clean wire messages (per-frame and batched) and templates."""
    car = build_car("C")
    capture = DataCollector(make_tool_for_car("C", car), read_duration_s=8.0).collect()
    per_frame = list(capture_to_wire(capture))
    batched = list(capture_to_wire(capture, batch_size=64))
    frame = capture.can_log[0]
    padded = frame.data.ljust(MAX_DATA_LENGTH, b"\0")
    record = FRAME_RECORD.pack(frame.timestamp, frame.can_id, 0, frame.dlc, padded)
    templates = {
        kind: [m for m in per_frame if m["type"] == kind]
        for kind in ("video", "click", "segment", "frame")
    }
    templates["full-batch"] = {
        "type": FRAME_BATCH,
        "n": MAX_BATCH_FRAMES,
        "_packed": record * MAX_BATCH_FRAMES,
    }
    return {False: per_frame, True: batched}, templates


def hostile_message(recipe, templates):
    kind, *args = recipe
    if kind == "video":
        which, name, value = args
        videos = templates["video"]
        return dict(videos[which % len(videos)], **{name: value})
    if kind == "region":
        which, index, name, value = args
        videos = templates["video"]
        message = copy.deepcopy(videos[which % len(videos)])
        message["regions"][index % len(message["regions"])][name] = value
        return message
    if kind in ("click", "segment", "frame-field"):
        name, value = args
        source = "frame" if kind == "frame-field" else kind
        return dict(templates[source][0], **{name: value})
    if kind == "frame":
        can_id, extended, length, t = args
        return {"type": "frame", "t": t, "id": can_id, "data": "5a" * length, "ext": extended}
    if kind == "batch":
        packed = b"".join(
            FRAME_RECORD.pack(t, can_id, flags, dlc, bytes(MAX_DATA_LENGTH))
            for t, can_id, flags, dlc in args[0]
        )
        return {"type": FRAME_BATCH, "n": len(args[0]), "_packed": packed}
    if kind == "full-batch":
        return templates["full-batch"]
    t, value = args
    return {"type": "kbyte", "t": t, "b": value}


def feed_wire(session, message):
    """Decode and ingest one record the way the server does; the two
    rejection errors pass, anything else propagates."""
    try:
        (message,) = MessageDecoder().feed(encode_message(message))
        session.ingest_message(message)
    except (ProtocolError, SessionError):
        pass


class TestHostileSession:
    @settings(max_examples=30, deadline=None)
    @given(
        batched=st.booleans(),
        bound=st.one_of(st.integers(0, 400), st.just(MAX_CAPTURE_FRAMES)),
        inserted=st.lists(st.tuples(st.integers(0, 1 << 16), HOSTILE_RECORDS), max_size=5),
        after_finish=st.lists(HOSTILE_RECORDS, max_size=2),
    )
    @example(
        batched=False,
        bound=MAX_CAPTURE_FRAMES,
        inserted=[(1, ("region", 0, 2, "x", "a"))],
        after_finish=[],
    )
    @example(
        batched=False,
        bound=MAX_CAPTURE_FRAMES,
        inserted=[(1, ("region", 0, 2, "text", 7))],
        after_finish=[],
    )
    @example(
        batched=False,
        bound=MAX_CAPTURE_FRAMES,
        inserted=[(0, ("frame", MAX_STANDARD_ID + 1, False, 0, 0.0))],
        after_finish=[],
    )
    @example(
        batched=False,
        bound=MAX_CAPTURE_FRAMES,
        inserted=[(1, ("video", 0, "t", float("inf"))), (2, ("video", 1, "t", float("inf")))],
        after_finish=[],
    )
    @example(
        batched=False,
        bound=MAX_CAPTURE_FRAMES,
        inserted=[
            (0, ("frame", 0x7E8, False, 2, float("nan"))),
            (3, ("click", "t", "1e999")),
            (5, ("segment", "t_end", float("-inf"))),
        ],
        after_finish=[],
    )
    @example(
        batched=True,
        bound=MAX_CAPTURE_FRAMES,
        inserted=[(0, ("batch", [(0.5, 0x7E8, 0, 8), (float("inf"), 0x7E8, 0, 8)]))],
        after_finish=[],
    )
    def test_records_rejected_or_accepted(self, wire_c, batched, bound, inserted, after_finish):
        """Every record raises ProtocolError/SessionError or is accepted;
        finalize returns a report or raises one of the two; the session
        never retains more than ``max_capture_frames`` frames.  The
        explicit examples once escaped as other errors or were accepted:
        region fields of the wrong JSON type passed the wire and crashed
        finalize, a JSON frame past the 11-bit id bound raised
        InvalidFrameError, and non-finite timestamps were kept (two video
        frames at ``t = inf`` made finalize's sample-time differences
        warn)."""
        streams, templates = wire_c
        clean = streams[batched]
        hello, records = clean[0], clean[1:-1]
        stream = list(records)
        for position, recipe in sorted(inserted, key=lambda item: item[0], reverse=True):
            stream.insert(position % (len(stream) + 1), hostile_message(recipe, templates))
        session = VehicleSession(
            0, transport=hello["transport"], meta=hello["meta"], max_capture_frames=bound
        )
        for message in stream:
            feed_wire(session, message)
            assert session.frames_received <= bound
        assert len(session.build_capture().can_log) <= bound
        try:
            report = session.finalize(make_reverser())
        except (ProtocolError, SessionError):
            report = None
        if report is not None:
            assert report.n_frames <= bound
        for recipe in after_finish:
            feed_wire(session, hostile_message(recipe, templates))
        assert len(session.build_capture().can_log) <= bound

    def test_infinite_video_times_never_reach_finalize(self, wire_c):
        streams, templates = wire_c
        hello, *records, __ = streams[False]
        hostile = [dict(templates["video"][i], t=float("inf")) for i in (0, 1)]
        session = VehicleSession(0, transport=hello["transport"], meta=hello["meta"])
        for message in hostile + records:
            feed_wire(session, message)
        assert len(session.video) == len(templates["video"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            session.finalize(make_reverser())
