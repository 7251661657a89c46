"""Batch capture decode through :meth:`StreamAssembler.feed_chunk`.

:func:`repro.core.assembly.assemble_with_diagnostics` decodes a whole
capture as one ``feed_chunk`` call: complete single- and multi-frame
transfers are sliced out of a numpy payload matrix, and the frames around
a chunk boundary or a fault are replayed through the event-based
reassemblers.  Its contract is strict equivalence with the per-frame
:meth:`StreamAssembler.feed` reference — identical messages, diagnostics
and decoder state on any capture, however it is split into chunks — which
the fuzzers here check on shuffled adversarial mixes of valid traffic,
malformed PCIs, truncations, sequence gaps and timestamp ties, and on
in-order ISO-TP/BMW dialogues with sparse single faults.
"""

import random

import pytest

from repro.can import CanFrame
from repro.core import TRANSPORT_BMW, TRANSPORT_ISOTP, assembly
from repro.core.assembly import StreamAssembler, assemble_with_diagnostics
from repro.transport import segment, segment_bmw
from repro.transport.arrays import FrameArrays
from repro.transport.base import DEFAULT_HARDENING, HardeningPolicy


#: The smallest chunk the slicer takes in this module.  Production
#: chunks below ``assembly.MIN_CHUNK_FRAMES`` decode per frame because
#: that is cheaper; the fuzzers here build short captures and must reach
#: the slicer with them, so they slice from 8 frames.
MIN_CHUNK_FRAMES = 8


@pytest.fixture(autouse=True)
def slice_short_chunks(monkeypatch):
    monkeypatch.setattr(assembly, "MIN_CHUNK_FRAMES", MIN_CHUNK_FRAMES)


def per_frame_assemble(frames, transport):
    """The reference: every frame through :meth:`StreamAssembler.feed`."""
    assembler = StreamAssembler(transport)
    for frame in frames:
        assembler.feed(frame)
    return assembler.finish()


def chunked_assemble(frames, transport, rng):
    """``frames`` split at random points, each piece one ``feed_chunk``."""
    assembler = StreamAssembler(transport)
    start = 0
    while start < len(frames):
        size = rng.choice([1, MIN_CHUNK_FRAMES - 1, MIN_CHUNK_FRAMES, rng.randint(1, 40)])
        assembler.feed_chunk(frames[start : start + size])
        start += size
    return assembler.finish()


def summary(result):
    messages, diagnostics = result
    return (
        [
            (m.can_id, m.payload, m.t_first, m.t_last, m.n_frames, m.ecu_address)
            for m in messages
        ],
        diagnostics.to_dict(),
    )


def random_capture(rng, transport):
    """A noisy capture: valid SFs, multi-frame trains, malformed traffic."""
    frames = []
    ids = [0x700 + i for i in range(rng.randint(1, 5))]
    for can_id in ids:
        for __ in range(rng.randint(1, 12)):
            roll = rng.random()
            if transport == TRANSPORT_BMW:
                address = rng.randrange(256)
                if roll < 0.55:  # valid single frame
                    n = rng.randint(1, 6)
                    frames.extend(segment_bmw(bytes(rng.randrange(256) for __ in range(n)), can_id, address))
                elif roll < 0.75:  # multi-frame train (may be truncated below)
                    n = rng.randint(7, 30)
                    frames.extend(segment_bmw(bytes(rng.randrange(256) for __ in range(n)), can_id, address))
                else:  # malformed: bad PCI / short frame
                    frames.append(CanFrame(can_id, bytes([address, rng.randrange(256)])))
            else:
                if roll < 0.5:
                    n = rng.randint(1, 7)
                    frames.extend(segment(bytes(rng.randrange(256) for __ in range(n)), can_id))
                elif roll < 0.7:
                    n = rng.randint(8, 40)
                    frames.extend(segment(bytes(rng.randrange(256) for __ in range(n)), can_id))
                elif roll < 0.85:  # flow control / high-nibble junk
                    frames.append(CanFrame(can_id, bytes([0x30 | rng.randrange(3), 0, 0])))
                else:  # SF claiming more bytes than the frame carries
                    frames.append(CanFrame(can_id, bytes([0x07, 1, 2])))
    # Truncate some multi-frame trains and drop random frames (gaps).
    frames = [f for f in frames if rng.random() > 0.08]
    rng.shuffle(frames)
    # Timestamps: mostly increasing, with deliberate ties.
    t = 0.0
    stamped = []
    for frame in frames:
        if rng.random() > 0.15:
            t += rng.choice([0.001, 0.01, 0.5])
        stamped.append(frame.with_timestamp(t))
    return stamped


class TestFuzzEquivalence:
    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_bulk_matches_event_path_on_noisy_captures(self, transport):
        rng = random.Random(transport)
        for case in range(40):
            frames = random_capture(rng, transport)
            assert summary(assemble_with_diagnostics(frames, transport)) == summary(
                per_frame_assemble(frames, transport)
            )

    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_random_chunk_splits_match_per_frame_path(self, transport):
        rng = random.Random(f"chunks-{transport}")
        for case in range(40):
            frames = random_capture(rng, transport)
            assert summary(chunked_assemble(frames, transport, rng)) == summary(
                per_frame_assemble(frames, transport)
            )

    def test_clean_single_frame_capture(self):
        frames = [
            frame.with_timestamp(0.001 * i)
            for i, frame in enumerate(
                segment(b"\x22\xf4\x0d", 0x7E0) + segment(b"\x62\xf4\x0d\x50", 0x7E8)
            )
        ]
        assert summary(assemble_with_diagnostics(frames, TRANSPORT_ISOTP)) == summary(
            per_frame_assemble(frames, TRANSPORT_ISOTP)
        )


class TestDispatch:
    def test_empty_capture(self):
        messages, diagnostics = assemble_with_diagnostics([], TRANSPORT_ISOTP)
        assert len(messages) == 0 and diagnostics.messages == 0

    def test_tracing_runs_the_same_path(self, monkeypatch):
        from repro.core import assembly
        from repro.observability.trace import Tracer, activated

        calls = []
        original = assembly.StreamAssembler.feed_chunk

        def spy(self, frames):
            calls.append(len(frames))
            return original(self, frames)

        monkeypatch.setattr(assembly.StreamAssembler, "feed_chunk", spy)
        frames = random_capture(random.Random(10), TRANSPORT_ISOTP)
        assert len(frames) >= MIN_CHUNK_FRAMES

        untraced = summary(assemble_with_diagnostics(frames, TRANSPORT_ISOTP))
        assert calls == [len(frames)]
        with activated(Tracer()) as tracer:
            traced = summary(assemble_with_diagnostics(frames, TRANSPORT_ISOTP))
        assert calls == [len(frames)] * 2
        assert traced == untraced
        assert "decode" in {span.name for span in tracer.spans}


class TestFrameArrays:
    def test_payload_matrix_zero_padded_and_masked(self):
        import numpy as np

        frames = [
            CanFrame(0x10, b"\x12\x34", timestamp=1.0),
            CanFrame(0x11, b"", timestamp=2.0),
            CanFrame(0x12, bytes(range(8)), timestamp=3.0),
        ]
        arrays = FrameArrays.from_frames(frames)
        assert arrays.dlcs.tolist() == [2, 0, 8]
        assert arrays.payloads[0].tolist() == [0x12, 0x34, 0, 0, 0, 0, 0, 0]
        assert arrays.payloads[1].tolist() == [0] * 8
        assert np.array_equal(arrays.nibbles(0), [0x1, 0x0, 0x0])


# ------------------------------------------------------- transfer slicing

#: Policies the slicing fuzz runs under: the default; budgets tight enough
#: that long transfers are evicted and 16 streams exceed the global budget
#: (only single frames are sliced then); and one context per stream.
POLICIES = (
    DEFAULT_HARDENING,
    HardeningPolicy(per_stream_budget=256, global_budget=2048),
    HardeningPolicy(max_contexts_per_stream=1),
)


def transfer_frames(payload, can_id, address, padded):
    """One payload segmented for ISO-TP (``address`` None) or BMW."""
    if address is None:
        return segment(payload, can_id, padding=0x00 if padded else None)
    inner = segment(payload, can_id, padding=0x00 if padded else None, frame_capacity=7)
    return [CanFrame(can_id, bytes([address]) + frame.data) for frame in inner]


def payload_length(rng, single_max):
    roll = rng.random()
    if roll < 0.45:
        return rng.randint(1, single_max)
    if roll < 0.85:
        return rng.randint(single_max + 1, 60)
    if roll < 0.97:
        return rng.randint(61, 400)  # sequence numbers wrap past 15
    return 4095


def dialogue_capture(rng, transport, pairs, exchanges, long_requests=True):
    """In-order request/response dialogues on ``pairs`` id pairs.

    Each pair's frames keep their order; pairs interleave at random and
    consecutive frames may share a timestamp across streams.  ISO-TP
    multi-frame responses are answered by flow control on the reverse id,
    and now and then a flow-control frame lands on the transfer's own id.
    On BMW every request travels on 0x6F1, addressed to its ECU, so two
    multi-frame requests (``long_requests``) may interleave on that id.
    """
    bmw = transport == TRANSPORT_BMW
    single_max = 6 if bmw else 7
    conversations = []
    for pair in range(pairs):
        if bmw:
            request_id, response_id, ecu = 0x6F1, 0x640 + pair, 0x10 + pair
        else:
            request_id, response_id, ecu = 0x600 + pair, 0x680 + pair, None
        frames = []
        for __ in range(exchanges):
            for can_id, address, long_ok in (
                (request_id, ecu, long_requests and rng.random() < 0.1),
                (response_id, 0xF1 if bmw else None, True),
            ):
                n = payload_length(rng, single_max) if long_ok else rng.randint(1, single_max)
                payload = bytes(rng.randrange(256) for __ in range(n))
                train = transfer_frames(payload, can_id, address, rng.random() < 0.7)
                frames.append(train[0])
                if len(train) > 1 and not bmw and rng.random() < 0.8:
                    reverse = request_id if can_id == response_id else response_id
                    frames.append(CanFrame(reverse, b"\x30\x00\x00"))
                for frame in train[1:]:
                    if rng.random() < 0.01:  # flow control on the transfer's own id
                        prefix = bytes([address]) if bmw else b""
                        frames.append(CanFrame(can_id, prefix + b"\x30\x00\x00"))
                    frames.append(frame)
        conversations.append(frames)
    merged = []
    cursors = [0] * len(conversations)
    live = [i for i, frames in enumerate(conversations) if frames]
    while live:
        i = rng.choice(live)
        merged.append(conversations[i][cursors[i]])
        cursors[i] += 1
        if cursors[i] == len(conversations[i]):
            live.remove(i)
    t = 0.0
    stamped = []
    for frame in merged:
        if rng.random() > 0.2:
            t += rng.choice([0.0005, 0.002, 0.05])
        stamped.append(frame.with_timestamp(t))
    return stamped


def with_faults(rng, frames, transport, count):
    """Apply ``count`` sparse single faults: drop, duplicate, a flipped bit
    in the first two PCI bytes (a first frame's length among them), or
    (BMW) a foreign address byte."""
    frames = list(frames)
    offset = 1 if transport == TRANSPORT_BMW else 0
    kinds = ["drop", "duplicate", "flip"] + (["address"] if offset else [])
    for __ in range(count):
        index = rng.randrange(len(frames))
        frame = frames[index]
        kind = rng.choice(kinds)
        if kind == "drop":
            del frames[index]
        elif kind == "duplicate":
            frames.insert(index, frame)
        elif len(frame.data) > offset:
            data = bytearray(frame.data)
            if kind == "flip":
                data[rng.randrange(offset, min(offset + 2, len(data)))] ^= 1 << rng.randrange(8)
            else:
                data[0] ^= rng.randrange(1, 256)
            frames[index] = CanFrame(frame.can_id, bytes(data), timestamp=frame.timestamp)
    return frames


def decoded_state(assembler):
    """Messages, diagnostics and every decoder's idle flag and addresses."""
    result = summary(assembler.finish())
    decoders = {
        can_id: (
            decoder.idle,
            getattr(decoder, "current_address", None),
            getattr(decoder, "last_address", None),
        )
        for can_id, decoder in assembler._streams.items()
    }
    return result, decoders


def reference_state(frames, transport, policy):
    assembler = StreamAssembler(transport, policy)
    for frame in frames:
        assembler.feed(frame)
    return decoded_state(assembler)


class FeedSpy:
    """Counts per-frame :meth:`StreamAssembler.feed` calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = StreamAssembler.feed

        def feed(assembler, frame):
            self.calls += 1
            return original(assembler, frame)

        monkeypatch.setattr(StreamAssembler, "feed", feed)


def chunked_state(frames, transport, policy, sizes):
    assembler = StreamAssembler(transport, policy)
    start = 0
    for size in sizes:
        assembler.feed_chunk(frames[start : start + size])
        start += size
    assert start >= len(frames)
    return decoded_state(assembler)


def split_sizes(rng, total, fixed=None):
    sizes = []
    while sum(sizes) < total:
        sizes.append(fixed or rng.choice([256, rng.randint(1, 300), rng.randint(1, 20)]))
    return sizes


class TestTransferSlicing:
    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_clean_dialogues_slice_without_walking(self, transport, monkeypatch):
        rng = random.Random(f"clean-{transport}")
        longest = 0
        for case in range(12):
            frames = dialogue_capture(
                rng,
                transport,
                rng.randint(1, 8),
                rng.randint(2, 12),
                long_requests=transport == TRANSPORT_ISOTP,
            )
            expected = reference_state(frames, transport, DEFAULT_HARDENING)
            spy = FeedSpy(monkeypatch)
            assert chunked_state(frames, transport, DEFAULT_HARDENING, [len(frames)]) == expected
            assert spy.calls == 0  # every transfer complete: nothing walked
            for fixed in (256, None):
                sizes = split_sizes(rng, len(frames), fixed)
                assert chunked_state(frames, transport, DEFAULT_HARDENING, sizes) == expected
            longest = max([longest] + [len(message[1]) for message in expected[0][0]])
        assert longest == 4095

    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_sparse_faults_match_per_frame_path(self, transport, monkeypatch):
        rng = random.Random(f"faults-{transport}")
        for case in range(40):
            policy = rng.choice(POLICIES)
            frames = dialogue_capture(rng, transport, rng.randint(1, 10), rng.randint(2, 10))
            frames = with_faults(rng, frames, transport, rng.randint(1, 4))
            expected = reference_state(frames, transport, policy)
            spy = FeedSpy(monkeypatch)
            assert chunked_state(frames, transport, policy, [len(frames)]) == expected
            assert spy.calls < len(frames)
            for fixed in (256, None, None):
                sizes = split_sizes(rng, len(frames), fixed)
                assert chunked_state(frames, transport, policy, sizes) == expected

    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_more_than_sixteen_streams_slice_single_frames_only(self, transport, monkeypatch):
        rng = random.Random(f"streams-{transport}")
        frames = dialogue_capture(rng, transport, 17, 6)
        offset = 1 if transport == TRANSPORT_BMW else 0
        multi = sum(1 for frame in frames if frame.data[offset] >> 4 in (1, 2))
        assert multi and len({frame.can_id for frame in frames}) > 16
        expected = reference_state(frames, transport, DEFAULT_HARDENING)
        spy = FeedSpy(monkeypatch)
        assert chunked_state(frames, transport, DEFAULT_HARDENING, [len(frames)]) == expected
        assert multi <= spy.calls < len(frames)
        faulted = with_faults(rng, frames, transport, 3)
        sizes = split_sizes(rng, len(faulted))
        expected = reference_state(faulted, transport, DEFAULT_HARDENING)
        assert chunked_state(faulted, transport, DEFAULT_HARDENING, sizes) == expected

    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_transfer_open_at_chunk_start_walks_only_its_rest(self, transport, monkeypatch):
        address = 0x12 if transport == TRANSPORT_BMW else None
        train = transfer_frames(bytes(range(200)), 0x7E8, address, padded=True)
        single = transfer_frames(b"\x62\x01", 0x7E8, address, padded=True)
        frames = [frame.with_timestamp(0.001 * i) for i, frame in enumerate(train + single + train)]
        expected = reference_state(frames, transport, DEFAULT_HARDENING)
        spy = FeedSpy(monkeypatch)
        sizes = [10, len(frames) - 10]
        assert chunked_state(frames, transport, DEFAULT_HARDENING, sizes) == expected
        # The first chunk's incomplete transfer (10 rows) and its 20
        # remaining consecutive frames are walked; the rest is sliced.
        assert spy.calls == len(train)

    def test_bmw_single_frame_on_another_address_does_not_end_a_walk(self):
        """Peer 0x12's transfer is cut short; a single frame to 0x34 ends
        the walk on ISO-TP terms but leaves 0x12 open, so the later
        transfer to 0x12 lands on a busy peer and must be walked too."""
        cut = segment_bmw(bytes(range(40)), 0x6F1, 0x12)[:3]
        frames = cut + segment_bmw(b"\x22\xf1", 0x6F1, 0x34)
        frames += segment_bmw(bytes(range(30)), 0x6F1, 0x12) + segment_bmw(b"\x01", 0x6F1, 0x56)
        frames = [frame.with_timestamp(0.001 * i) for i, frame in enumerate(frames)]
        state = chunked_state(frames, TRANSPORT_BMW, DEFAULT_HARDENING, [len(frames)])
        assert state == reference_state(frames, TRANSPORT_BMW, DEFAULT_HARDENING)
        assert state[0][1]["stats"]["suspected_starvation"] == 1

    def test_bmw_stray_consecutive_frame_of_another_address_ends_at_single_frame(
        self, monkeypatch
    ):
        """A consecutive frame to peer 0x34, which has no open context, is
        an orphan: the event decoder drops it and opens nothing.  The walk
        from it ends at the next single frame to 0x12, like a walk of rows
        that all carry 0x12, and the transfers after it are sliced."""
        train = segment_bmw(bytes(range(30)), 0x6F1, 0x12)
        stray = CanFrame(0x6F1, bytes([0x34, 0x21]) + bytes(6))
        frames = train + [stray] + segment_bmw(b"\x22\xf1", 0x6F1, 0x12)
        frames += train + segment_bmw(b"\x01", 0x6F1, 0x56)
        frames = [frame.with_timestamp(0.001 * i) for i, frame in enumerate(frames)]
        expected = reference_state(frames, TRANSPORT_BMW, DEFAULT_HARDENING)
        spy = FeedSpy(monkeypatch)
        state = chunked_state(frames, TRANSPORT_BMW, DEFAULT_HARDENING, [len(frames)])
        assert state == expected
        assert state[0][1]["stats"]["errors"] == 1
        assert spy.calls == 2  # the stray and the single frame ending its walk

    def test_first_frame_announcing_fewer_bytes_leaves_orphans(self, monkeypatch):
        train = segment(bytes(range(40)), 0x7E8)
        train[0] = CanFrame(0x7E8, b"\x10\x14" + train[0].data[2:])  # announces 20 of 40
        frames = train + segment(b"\x01", 0x7E8) + train
        frames = [frame.with_timestamp(0.001 * i) for i, frame in enumerate(frames)]
        expected = reference_state(frames, TRANSPORT_ISOTP, DEFAULT_HARDENING)
        spy = FeedSpy(monkeypatch)
        state = chunked_state(frames, TRANSPORT_ISOTP, DEFAULT_HARDENING, [len(frames)])
        assert state == expected
        assert state[0][1]["stats"]["errors"] == 2 * (len(train) - 3)
        # First frame + two consecutive frames complete 20 bytes, twice;
        # the orphans (and the single frame ending the first walk) walk.
        assert spy.calls == 2 * (len(train) - 3) + 1

    def test_chunk_of_flow_control_alone(self):
        """A chunk with no kept row: flow control on the stream left busy by
        the previous chunk is a violation, on an idle stream it is not."""
        train = segment(bytes(40), 0x7E8)
        flow = [CanFrame(can_id, b"\x30\x00\x00") for can_id in (0x7E8, 0x7E0) * 5]
        frames = [frame.with_timestamp(0.001 * i) for i, frame in enumerate(train[:2] + flow)]
        state = chunked_state(frames, TRANSPORT_ISOTP, DEFAULT_HARDENING, [2, len(flow)])
        assert state == reference_state(frames, TRANSPORT_ISOTP, DEFAULT_HARDENING)
        assert state[0][1]["streams"]["0x7e8"]["fc_violations"] == 5

    def test_flow_control_inside_a_sliced_transfer_is_a_violation(self, monkeypatch):
        train = segment(bytes(40), 0x7E8)
        frames = [train[0], CanFrame(0x7E0, b"\x30\x00\x00"), train[1]]
        frames += [CanFrame(0x7E8, b"\x30\x00\x00")] + train[2:]  # inside: counted
        frames += [CanFrame(0x7E8, b"\x30\x00\x00")] + segment(b"\x01", 0x7E8)  # between: not
        frames = [frame.with_timestamp(0.001 * i) for i, frame in enumerate(frames)]
        expected = reference_state(frames, TRANSPORT_ISOTP, DEFAULT_HARDENING)
        spy = FeedSpy(monkeypatch)
        state = chunked_state(frames, TRANSPORT_ISOTP, DEFAULT_HARDENING, [len(frames)])
        assert state == expected and spy.calls == 0
        assert state[0][1]["streams"]["0x7e8"]["fc_violations"] == 1


class TestMessageTable:
    """Assembly returns columns; message objects are views built on demand."""

    @pytest.mark.parametrize("key, noisy", [("I", False), ("C", False), ("E", True)])
    def test_no_message_objects_from_assembly_to_fields(self, monkeypatch, key, noisy):
        from repro.can import apply_noise
        from repro.core.assembly import AssembledMessage
        from repro.core.fields import extract_fields
        from repro.cps import DataCollector
        from repro.runtime.job import JobSpec
        from repro.tools import make_tool_for_car
        from repro.vehicle import build_car

        capture = DataCollector(make_tool_for_car(key, build_car(key))).collect()
        frames = list(capture.can_log)
        if noisy:
            noise = JobSpec(key, noise_spec="default", noise_seed=0).noise_profile()
            frames = apply_noise(frames, noise)
        built = []
        original = AssembledMessage.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(AssembledMessage, "__init__", counted)
        messages, diagnostics = assemble_with_diagnostics(frames)
        fields = extract_fields(messages)
        assert built == []
        assert diagnostics.clean is not noisy
        assert len(messages) > 100 and len(fields.observations) > 100
        assert messages[0].payload == next(iter(messages)).payload
        assert len(built) == 2  # the two views just read

    def test_views_round_trip_through_from_messages(self):
        from repro.core.assembly import AssembledMessage, MessageTable

        messages = [
            AssembledMessage(b"\x22\xf4\x0d", 0x7E0, 1.5, 1.5, 1),
            AssembledMessage(b"", 0x7E8, 0.5, 1.0, 2, ecu_address=0),
            AssembledMessage(b"\x62\xf4\x0d\x21", 0x612, 1.2, 1.5, 3, ecu_address=0xF1),
        ]
        table = MessageTable.from_messages(messages)
        assert list(table) == messages
        assert [table[i] for i in range(-3, 3)] == messages + messages
        assert MessageTable.from_messages(table) == table
        assert table.payloads() == [m.payload for m in messages]
        # One stable sort on t_last: rows completed at one time keep their order.
        assert list(table.sorted_by_t_last()) == [messages[1], messages[0], messages[2]]
        assert table != MessageTable.from_messages(messages[::-1])
        assert len(MessageTable.from_messages([])) == 0
