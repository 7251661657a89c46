"""The service wire protocol: framing, round-trips, and bounds."""

import json
import math
import random
import struct

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.can import MAX_DATA_LENGTH, CanFrame, InvalidFrameError
from repro.cps.arm import ClickRecord
from repro.cps.camera import CapturedFrame, TextRegion
from repro.cps.collector import Capture, Segment
from repro.can import CanLog
from repro.service import MessageDecoder, ProtocolError, capture_to_wire, encode_message
from repro.service.protocol import (
    FLAG_EXTENDED,
    FRAME_BATCH,
    FRAME_RECORD,
    MAX_BATCH_FRAMES,
    MAX_MESSAGE_BYTES,
    arrays_from_batch,
    click_from_wire,
    click_to_wire,
    frame_batch_to_wire,
    frame_from_wire,
    frame_to_wire,
    hello_message,
    kline_byte_from_wire,
    kline_byte_to_wire,
    segment_from_wire,
    segment_to_wire,
    video_from_wire,
    video_to_wire,
)
from repro.transport.arrays import FrameArrays
from repro.transport.kline import KLineByte


def reference_frames_from_batch(message):
    """Per-record ``frame-batch`` decoder, the oracle for
    ``arrays_from_batch``: ``FRAME_RECORD`` unpacking, then a
    :class:`CanFrame` per record (whose constructor checks the id range),
    every failure a ``ProtocolError``."""
    packed = message.get("_packed")
    if not isinstance(packed, (bytes, bytearray, memoryview)):
        raise ProtocolError("frame-batch message carries no packed records")
    channels = message.get("channels", [])
    if not isinstance(channels, list) or not all(isinstance(name, str) for name in channels):
        raise ProtocolError("frame-batch channel table must be a list of names")
    table = ("can0", *channels)
    frames = []
    try:
        for timestamp, can_id, flags, dlc, data in FRAME_RECORD.iter_unpack(packed):
            if dlc > MAX_DATA_LENGTH:
                raise ProtocolError(f"frame record declares DLC {dlc}")
            if not math.isfinite(timestamp):
                raise ProtocolError("frame record carries a non-finite timestamp")
            extended = bool(flags & FLAG_EXTENDED)
            frames.append(CanFrame(can_id, data[:dlc], timestamp, extended, table[flags >> 1]))
    except struct.error as error:
        raise ProtocolError(f"bad frame-batch records: {error}") from None
    except IndexError:
        raise ProtocolError("frame record names a channel outside the table") from None
    except InvalidFrameError as error:
        raise ProtocolError(f"bad frame record: {error}") from None
    return frames


def batch_frames(message):
    """The frames ``arrays_from_batch`` decodes a batch into."""
    return list(arrays_from_batch(message).frames)


def make_capture(frames=(), video=(), clicks=(), segments=()):
    return Capture(
        model="Test Car",
        tool_name="test-tool",
        can_log=CanLog(list(frames)),
        video=list(video),
        clicks=list(clicks),
        segments=list(segments),
        tool_error_rate=0.02,
        camera_offset_s=0.25,
    )


class TestFraming:
    def test_round_trip_single_message(self):
        message = {"type": "frame", "t": 1.5, "id": 0x7E8, "data": "0102"}
        decoder = MessageDecoder()
        assert decoder.feed(encode_message(message)) == [message]

    def test_fragmented_delivery_one_byte_at_a_time(self):
        messages = [
            {"type": "hello", "version": 1},
            {"type": "frame", "t": 0.0, "id": 1, "data": "aa"},
            {"type": "finish"},
        ]
        wire = b"".join(encode_message(m) for m in messages)
        decoder = MessageDecoder()
        received = []
        for i in range(len(wire)):
            received.extend(decoder.feed(wire[i : i + 1]))
        assert received == messages

    def test_coalesced_delivery_all_at_once(self):
        messages = [{"type": "frame", "t": float(i), "id": i, "data": ""} for i in range(10)]
        wire = b"".join(encode_message(m) for m in messages)
        assert MessageDecoder().feed(wire) == messages

    def test_oversize_encode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_message({"type": "blob", "data": "x" * (1 << 21)})

    def test_hostile_length_prefix_fails_before_buffering(self):
        decoder = MessageDecoder(max_message_bytes=1024)
        with pytest.raises(ProtocolError, match="declared message length"):
            decoder.feed(struct.pack(">I", 1 << 30))

    def test_non_object_body_rejected(self):
        body = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="'type' field"):
            MessageDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_garbage_body_rejected(self):
        body = b"\xff\xfe not json"
        with pytest.raises(ProtocolError, match="not JSON"):
            MessageDecoder().feed(struct.pack(">I", len(body)) + body)


class TestRecordRoundTrips:
    def test_frame(self):
        frame = CanFrame(0x7E8, bytes([0x03, 0x41, 0x0C, 0x1A]), 12.345678, channel="can1")
        assert frame_from_wire(frame_to_wire(frame)) == frame

    def test_frame_defaults_stay_compact(self):
        frame = CanFrame(0x123, b"\x01", 1.0)
        wire = frame_to_wire(frame)
        assert "ext" not in wire and "ch" not in wire
        assert frame_from_wire(wire) == frame

    def test_frame_missing_fields_rejected(self):
        with pytest.raises(ProtocolError, match="bad frame"):
            frame_from_wire({"type": "frame", "t": 1.0})

    def test_kline_byte(self):
        byte = KLineByte(timestamp=3.5, value=0xA5)
        assert kline_byte_from_wire(kline_byte_to_wire(byte)) == byte

    def test_kline_byte_out_of_range_rejected(self):
        with pytest.raises(ProtocolError, match="bad kbyte"):
            kline_byte_from_wire({"type": "kbyte", "t": 0.0, "b": 300})

    def test_video(self):
        frame = CapturedFrame(
            timestamp=2.0,
            screen_name="live",
            regions=[
                TextRegion(
                    text="Engine Speed", x=10, y=20, width=100, height=16,
                    kind="label", icon="",
                )
            ],
        )
        assert video_from_wire(video_to_wire(frame)) == frame

    def test_click(self):
        click = ClickRecord(timestamp=1.0, x=5, y=7, label="Live Data", hit=True)
        assert click_from_wire(click_to_wire(click)) == click

    def test_segment(self):
        segment = Segment(kind="live", ecu="Engine", label="read", t_start=1.0, t_end=9.0)
        assert segment_from_wire(segment_to_wire(segment)) == segment


#: Timestamps every record decoder must refuse: JSON ``NaN`` and
#: ``Infinity`` parse to these floats, and ``float()`` reads the strings.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), "1e999", "-1e999", "NaN", "Infinity"]


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "decode, message",
        [
            (frame_from_wire, {"type": "frame", "id": 0x7E8, "data": "0241"}),
            (kline_byte_from_wire, {"type": "kbyte", "b": 0x55}),
            (video_from_wire, {"type": "video", "screen": "live", "regions": []}),
            (click_from_wire, {"type": "click", "x": 5, "y": 7}),
        ],
        ids=["frame", "kbyte", "video", "click"],
    )
    def test_record_decoders_reject(self, decode, message, bad):
        with pytest.raises(ProtocolError, match="not finite"):
            decode({**message, "t": bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["t_start", "t_end"])
    def test_segment_bounds_rejected(self, field, bad):
        message = {"kind": "live", "ecu": "Engine", "label": "read", "t_start": 1.0, "t_end": 9.0}
        with pytest.raises(ProtocolError, match="not finite"):
            segment_from_wire({**message, field: bad})

    @pytest.mark.parametrize("body", [b'{"type":"video","t":NaN', b'{"type":"video","t":Infinity'])
    def test_json_constants_off_the_wire(self, body):
        (message,) = MessageDecoder().feed(envelope(body + b',"screen":"s"}'))
        with pytest.raises(ProtocolError, match="not finite"):
            video_from_wire(message)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [0, 2])
    def test_packed_records_rejected_by_both_batch_decoders(self, bad, position):
        fields = [(0.001 * i, 0x7E8, 0, 2, b"\x01\x41" + bytes(6)) for i in range(3)]
        fields[position] = (bad,) + fields[position][1:]
        message = {"type": FRAME_BATCH, "n": 3, "_packed": records(*fields)}
        for decode in (reference_frames_from_batch, arrays_from_batch):
            with pytest.raises(ProtocolError, match="non-finite timestamp"):
                decode(message)


def random_frames(seed, n=200):
    """A frame mix covering every codec dimension the wire must carry."""
    rng = random.Random(seed)
    frames = []
    for i in range(n):
        extended = rng.random() < 0.3
        can_id = rng.randrange(1 << 29) if extended else rng.randrange(1 << 11)
        dlc = rng.choice([0, 1, 2, 7, 8])  # empty through max-DLC
        frames.append(
            CanFrame(
                can_id,
                bytes(rng.randrange(256) for _ in range(dlc)),
                timestamp=round(rng.random() * 100, 6),
                extended=extended,
                channel=rng.choice(["can0", "can1", "vcan0"]),
            )
        )
    return frames


class TestFrameBatch:
    def test_round_trip_equals_per_frame_codecs(self):
        frames = random_frames(seed=11)
        batch = frame_batch_to_wire(frames)
        assert batch_frames(batch) == frames
        # The same frames through the v1 per-frame codec agree exactly.
        assert [frame_from_wire(frame_to_wire(f)) for f in frames] == frames

    def test_round_trip_through_wire_bytes(self):
        frames = random_frames(seed=13, n=500)
        wire = encode_message(frame_batch_to_wire(frames))
        decoder = MessageDecoder()
        received = []
        # Fragmented delivery must not confuse the binary envelope.
        for start in range(0, len(wire), 97):
            received.extend(decoder.feed(wire[start : start + 97]))
        assert len(received) == 1
        assert batch_frames(received[0]) == frames

    def test_extended_id_and_channel_flags(self):
        frames = [
            CanFrame(0x1FFFFFFF, b"\x01", timestamp=1.0, extended=True, channel="can7"),
            CanFrame(0x7FF, bytes(range(8)), timestamp=2.0),
        ]
        batch = frame_batch_to_wire(frames)
        assert batch["channels"] == ["can7"]
        assert batch_frames(batch) == frames

    def test_all_can0_batch_omits_channel_table(self):
        batch = frame_batch_to_wire([CanFrame(1, b"\x01", timestamp=0.0)])
        assert "channels" not in batch

    def test_empty_batch(self):
        batch = frame_batch_to_wire([])
        assert batch["n"] == 0
        assert batch_frames(batch) == []
        decoded = MessageDecoder().feed(encode_message(batch))
        assert batch_frames(decoded[0]) == []

    def test_oversized_batch_rejected(self):
        frames = [CanFrame(1, b"\x01", timestamp=0.0)] * (MAX_BATCH_FRAMES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            frame_batch_to_wire(frames)

    def test_declared_count_must_match_payload(self):
        batch = frame_batch_to_wire([CanFrame(1, b"\x01", timestamp=0.0)])
        wire = bytearray(encode_message(batch))
        wire.extend(b"\x00" * FRAME_RECORD.size)  # extra record, stale n
        struct.pack_into(">I", wire, 0, len(wire) - 4)
        with pytest.raises(ProtocolError, match="declares"):
            MessageDecoder().feed(bytes(wire))

    def test_truncated_binary_envelope_rejected(self):
        body = b"\x00\x00"  # magic + half a header length
        with pytest.raises(ProtocolError, match="truncated"):
            MessageDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_header_overrun_rejected(self):
        body = b"\x00" + struct.pack(">H", 500) + b"{}"
        with pytest.raises(ProtocolError, match="overruns"):
            MessageDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_binary_envelope_requires_frame_batch_header(self):
        header = b'{"type":"frame"}'
        body = b"\x00" + struct.pack(">H", len(header)) + header
        with pytest.raises(ProtocolError, match="frame-batch"):
            MessageDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_bad_dlc_in_record_rejected(self):
        packed = FRAME_RECORD.pack(1.0, 1, 0, 9, b"\x00" * 8)  # DLC 9 > 8
        with pytest.raises(ProtocolError, match="DLC"):
            arrays_from_batch({"type": "frame-batch", "n": 1, "_packed": packed})

    def test_channel_index_outside_table_rejected(self):
        packed = FRAME_RECORD.pack(1.0, 1, 2 << 1, 1, b"\x01" + b"\x00" * 7)
        with pytest.raises(ProtocolError, match="channel"):
            arrays_from_batch(
                {"type": "frame-batch", "n": 1, "channels": ["can1"], "_packed": packed}
            )


class TestCaptureToWire:
    def test_hello_first_finish_last_records_time_ordered(self):
        frames = [CanFrame(1, b"\x01", t) for t in (0.5, 1.5, 2.5)]
        video = [CapturedFrame(timestamp=1.0, screen_name="s", regions=[])]
        clicks = [ClickRecord(timestamp=2.0, x=0, y=0, label="go", hit=True)]
        segments = [Segment(kind="live", ecu="E", label="l", t_start=0.0, t_end=3.0)]
        capture = make_capture(frames, video, clicks, segments)
        messages = list(capture_to_wire(capture, tenant="t1", transport="isotp"))
        assert messages[0]["type"] == "hello"
        assert messages[0]["tenant"] == "t1"
        assert messages[-1]["type"] == "finish"
        records = messages[1:-2]  # between hello and segment+finish
        assert [r["t"] for r in records] == sorted(r["t"] for r in records)
        assert messages[-2]["type"] == "segment"

    def test_hello_carries_capture_meta(self):
        hello = hello_message(make_capture(), tenant="t", transport="auto")
        assert hello["meta"]["model"] == "Test Car"
        assert hello["meta"]["tool_error_rate"] == 0.02
        assert hello["meta"]["camera_offset_s"] == 0.25

    def test_unknown_transport_rejected(self):
        with pytest.raises(ProtocolError, match="unknown transport"):
            hello_message(make_capture(), transport="canfd")

    def test_batched_stream_expands_to_the_per_frame_stream(self):
        frames = [CanFrame(1, b"\x01", t / 10) for t in range(25)]
        video = [CapturedFrame(timestamp=1.05, screen_name="s", regions=[])]
        clicks = [ClickRecord(timestamp=1.75, x=0, y=0, label="go", hit=True)]
        capture = make_capture(frames, video, clicks)
        plain = list(capture_to_wire(capture, transport="isotp"))
        batched = list(capture_to_wire(capture, transport="isotp", batch_size=4))

        def frames_and_records(messages):
            frames, records = [], []
            for message in messages:
                if message["type"] == FRAME_BATCH:
                    frames.extend(frame_to_wire(f) for f in batch_frames(message))
                elif message["type"] == "frame":
                    frames.append(message)
                else:
                    records.append(message)
            return frames, records

        # Frames keep their order, and so do the other records.
        assert frames_and_records(batched) == frames_and_records(plain)
        # The video frame at 1.05 and the click at 1.75 leave the frame run
        # open: every batch but the last is full.
        sizes = [m["n"] for m in batched if m["type"] == FRAME_BATCH]
        assert sizes == [4] * 6 + [1]

    def test_batch_size_zero_is_the_v1_wire(self):
        capture = make_capture([CanFrame(1, b"\x01", 0.0)])
        kinds = [m["type"] for m in capture_to_wire(capture, transport="isotp")]
        assert "frame" in kinds and "frame-batch" not in kinds


# ------------------------------------------------------------------- fuzzing

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)


JSON_VALUES = st.recursive(JSON_SCALARS, json_containers, max_leaves=8)
JSON_MESSAGES = st.builds(
    lambda kind, extra: {**extra, "type": kind},
    st.sampled_from(["hello", "frame", "video", "click", "segment", "finish", "kbyte"]),
    st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=3),
)


@st.composite
def can_frames(draw):
    extended = draw(st.booleans())
    return CanFrame(
        can_id=draw(st.integers(0, 0x1FFFFFFF if extended else 0x7FF)),
        data=draw(st.binary(max_size=8)),
        timestamp=draw(st.floats(allow_nan=False, allow_infinity=False)),
        extended=extended,
        channel=draw(st.sampled_from(["can0", "can1", "vcan0"])),
    )


FRAME_BATCHES = st.lists(can_frames(), max_size=6).map(frame_batch_to_wire)
WIRE_MESSAGES = st.lists(JSON_MESSAGES | FRAME_BATCHES, min_size=1, max_size=4)


def envelope(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def binary_body(header, packed: bytes = b"") -> bytes:
    """A binary envelope body around ``header`` (a dict or raw bytes)."""
    if isinstance(header, dict):
        header = json.dumps(header).encode()
    return b"\x00" + struct.pack(">H", len(header)) + header + packed


def records(*fields) -> bytes:
    return b"".join(FRAME_RECORD.pack(*f) for f in fields)


def assert_columns_match(arrays, frames):
    expected = FrameArrays.from_frames(frames)
    for column in ("can_ids", "timestamps", "dlcs", "payloads"):
        got, want = getattr(arrays, column), getattr(expected, column)
        assert got.tobytes() == want.tobytes(), column


def decode_everything(wire: bytes):
    """The full decode path a server runs on untrusted bytes."""
    for message in MessageDecoder().feed(wire):
        if message["type"] == FRAME_BATCH:
            assert_columns_match(arrays_from_batch(message), reference_frames_from_batch(message))


class TestWireFuzz:
    """Hypothesis properties over the untrusted side of the wire."""

    @settings(max_examples=60, deadline=None)
    @given(messages=WIRE_MESSAGES, cuts=st.lists(st.integers(0, 1 << 16), max_size=8))
    def test_split_reads_decode_like_one_feed(self, messages, cuts):
        wire = b"".join(encode_message(m) for m in messages)
        whole = MessageDecoder().feed(wire)
        assert whole == messages
        bounds = sorted({0, len(wire), *(cut % (len(wire) + 1) for cut in cuts)})
        decoder = MessageDecoder()
        chunked = []
        for start, stop in zip(bounds, bounds[1:]):
            chunked.extend(decoder.feed(wire[start:stop]))
        assert chunked == whole
        for offset in range(len(wire) + 1):
            decoder = MessageDecoder()
            assert decoder.feed(wire[:offset]) + decoder.feed(wire[offset:]) == whole

    @settings(max_examples=40, deadline=None)
    @given(excess=st.integers(1, 1 << 20), tail=st.binary(max_size=64))
    def test_declared_length_over_bound(self, excess, tail):
        wire = struct.pack(">I", MAX_MESSAGE_BYTES + excess) + tail
        with pytest.raises(ProtocolError, match="exceeds"):
            MessageDecoder().feed(wire)

    @settings(max_examples=20, deadline=None)
    @given(rest=st.binary(max_size=1))
    def test_truncated_binary_envelope(self, rest):
        with pytest.raises(ProtocolError, match="truncated"):
            MessageDecoder().feed(envelope(b"\x00" + rest))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_header_length_overruns_body(self, data):
        tail = data.draw(st.binary(max_size=64))
        declared = data.draw(st.integers(len(tail) + 1, 0xFFFF))
        body = b"\x00" + struct.pack(">H", declared) + tail
        with pytest.raises(ProtocolError, match="overruns"):
            MessageDecoder().feed(envelope(body))

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(can_frames(), max_size=4),
        n=st.integers(-(2**40), 2**40)
        | st.booleans()
        | st.floats(allow_nan=False)
        | st.text(max_size=4)
        | st.none()
        | st.lists(st.integers(), max_size=2),
    )
    @example(frames=[CanFrame(1, b"\x01")], n=True)
    def test_bad_frame_count(self, frames, n):
        batch = frame_batch_to_wire(frames)
        assume(not (type(n) is int and n == len(frames)))
        header = {"type": FRAME_BATCH, "n": n}
        with pytest.raises(ProtocolError, match="'n'|declares"):
            MessageDecoder().feed(envelope(binary_body(header, batch["_packed"])))

    @settings(max_examples=40, deadline=None)
    @given(dlc=st.integers(MAX_DATA_LENGTH + 1, 0xFF), position=st.integers(0, 2))
    def test_dlc_over_eight(self, dlc, position):
        good = (0.0, 0x123, 0, 2, b"\x01\x02" + bytes(6))
        fields = [good, good, good]
        fields[position] = (1.0, 0x7E8, 0, dlc, bytes(8))
        wire = envelope(binary_body({"type": FRAME_BATCH, "n": 3}, records(*fields)))
        (message,) = MessageDecoder().feed(wire)
        for decode in (reference_frames_from_batch, arrays_from_batch):
            with pytest.raises(ProtocolError, match="DLC"):
                decode(message)

    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.lists(st.sampled_from(["can1", "can2", "vcan0"]), max_size=3),
        data=st.data(),
    )
    def test_channel_index_outside_table(self, channels, data):
        index = data.draw(st.integers(len(channels) + 1, 0x7F))
        packed = records((0.5, 0x10, index << 1, 1, b"\x01" + bytes(7)))
        header = {"type": FRAME_BATCH, "n": 1, "channels": channels}
        (message,) = MessageDecoder().feed(envelope(binary_body(header, packed)))
        for decode in (reference_frames_from_batch, arrays_from_batch):
            with pytest.raises(ProtocolError, match="channel"):
                decode(message)

    @settings(max_examples=100, deadline=None)
    @given(wire=st.binary(max_size=256))
    def test_random_bytes(self, wire):
        try:
            decode_everything(wire)
        except ProtocolError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(max_size=256), binary=st.booleans())
    @example(body=b"[" * 50_000, binary=False)
    @example(body=b"[" * 50_000, binary=True)
    @example(body=b'{"type":"frame","t":' + b"1" * 5000 + b"}", binary=False)
    @example(body=b'{"type":"frame-batch","n":' + b"1" * 5000 + b"}", binary=True)
    def test_random_bodies_behind_a_valid_length(self, body, binary):
        """Random JSON-ish or binary-envelope bodies under a correct prefix:
        deep nesting and over-long integers are ``ProtocolError`` too."""
        wire = envelope(binary_body(body) if binary else body)
        try:
            decode_everything(wire)
        except ProtocolError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(
        packed=st.binary(max_size=4 * FRAME_RECORD.size),
        channels=st.lists(st.sampled_from(["can1", "can2"]), max_size=2),
    )
    @example(packed=records((0.0, 0x800, 0, 0, bytes(8))), channels=[])
    @example(packed=records((0.0, 0x20000000, FLAG_EXTENDED, 0, bytes(8))), channels=[])
    def test_both_batch_decoders_accept_the_same_records(self, packed, channels):
        """Random records: ``arrays_from_batch`` rejects exactly what the
        per-record oracle rejects (out-of-range ids included), and agrees
        with it column for column, and frame for frame, on the rest."""
        message = {"type": FRAME_BATCH, "channels": channels, "_packed": packed}
        try:
            frames = reference_frames_from_batch(message)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                arrays_from_batch(message)
            return
        arrays = arrays_from_batch(message)
        assert_columns_match(arrays, frames)
        assert list(arrays.frames) == frames

    @settings(max_examples=60, deadline=None)
    @given(frames=st.lists(can_frames(), max_size=8))
    def test_arrays_agree_with_frames_on_valid_batches(self, frames):
        (message,) = MessageDecoder().feed(encode_message(frame_batch_to_wire(frames)))
        frames_decoded, arrays = reference_frames_from_batch(message), arrays_from_batch(message)
        assert frames_decoded == frames
        assert list(arrays.frames) == frames_decoded
        assert_columns_match(arrays, frames)


class TestDeepNesting:
    """``json.loads`` raises ``RecursionError`` on deep nesting; the
    decoder must turn that into a ``ProtocolError`` like any bad body."""

    def test_nested_json_body(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            MessageDecoder().feed(envelope(b"[" * 50_000))

    def test_nested_frame_batch_header(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            MessageDecoder().feed(envelope(binary_body(b"[" * 50_000)))
