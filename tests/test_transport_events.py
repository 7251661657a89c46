"""Property tests for graceful degradation of the transport decoders.

The contract under noise: a lenient decoder (``strict=False``) never raises
on *any* stream content — faults surface as ``error``/``resync`` events and
as ``DecoderStats`` counters, and the decoder recovers on the next clean
message boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can import CanFrame
from repro.transport import (
    EVENT_PAYLOAD,
    IsoTpReassembler,
    VwTpReassembler,
    segment,
    segment_vwtp,
)


def payloads_of(reassembler, frames):
    """Feed every frame leniently; collect completed payloads."""
    payloads = []
    for frame in frames:
        for event in reassembler.feed(frame):
            if event.kind == EVENT_PAYLOAD:
                payloads.append(event.payload)
    return payloads


def mutate(frames, index, fault):
    frames = list(frames)
    if fault == "drop":
        del frames[index]
    elif fault == "duplicate":
        frames.insert(index, frames[index])
    elif fault == "reorder":
        other = (index + 1) % len(frames)
        frames[index], frames[other] = frames[other], frames[index]
    elif fault == "corrupt":
        frame = frames[index]
        frames[index] = CanFrame(
            frame.can_id,
            bytes([frame.data[0] ^ 0x40]) + frame.data[1:],
            timestamp=frame.timestamp,
        )
    return frames


FAULTS = ["drop", "duplicate", "reorder", "corrupt"]

CLEAN_TAIL = b"\xaa\xbb\xcc"


@settings(max_examples=120, deadline=None)
@given(
    payload=st.binary(min_size=8, max_size=120),
    index=st.integers(0, 1_000_000),
    fault=st.sampled_from(FAULTS),
)
def test_isotp_single_fault_never_raises_and_recovers(payload, index, fault):
    """Any single drop/dup/reorder/bit-flip in a multi-frame ISO-TP message
    must not raise, must be visible in the stats, and must not poison the
    next message."""
    frames = segment(payload, 0x7E8)
    assert len(frames) > 1  # multi-frame by construction (>= 8 bytes)
    faulty = mutate(frames, index % len(frames), fault)
    reassembler = IsoTpReassembler(strict=False)
    payloads_of(reassembler, faulty)  # must not raise
    tail = payloads_of(reassembler, segment(CLEAN_TAIL, 0x7E8))
    assert tail and tail[-1] == CLEAN_TAIL
    stats = reassembler.stats
    # The tail decoded cleanly, so any payload loss is already accounted.
    assert stats.payloads >= 1
    assert (
        stats.payloads >= 2  # fault was survivable (e.g. an ignored duplicate)
        or stats.errors + stats.resyncs >= 1  # or it was reported
    )


@settings(max_examples=120, deadline=None)
@given(
    payload=st.binary(min_size=15, max_size=120),
    index=st.integers(0, 1_000_000),
    fault=st.sampled_from(FAULTS),
)
def test_vwtp_single_fault_never_raises_and_recovers(payload, index, fault):
    frames = segment_vwtp(payload, 0x740)
    assert len(frames) > 1
    faulty = mutate(frames, index % len(frames), fault)
    reassembler = VwTpReassembler(strict=False)
    payloads_of(reassembler, faulty)  # must not raise
    # TP 2.0 has no start-of-message marker, so a fresh message whose
    # sequence lands exactly one behind the expected counter is
    # indistinguishable from a duplicate and is (correctly) suppressed.
    # Two tails with distant start sequences cannot both collide.
    tail = payloads_of(reassembler, segment_vwtp(CLEAN_TAIL, 0x740, start_sequence=0))
    tail += payloads_of(reassembler, segment_vwtp(CLEAN_TAIL, 0x740, start_sequence=8))
    assert tail and tail[-1] == CLEAN_TAIL
    stats = reassembler.stats
    assert stats.payloads >= 2 or stats.errors + stats.resyncs >= 1


class TestAssemblyDiagnostics:
    def frames(self, *messages):
        out = []
        t = 0.0
        for payload in messages:
            for frame in segment(payload, 0x7E8):
                out.append(frame.with_timestamp(t))
                t += 0.001
        return out

    def test_clean_stream_reports_clean(self):
        from repro.core import assemble_with_diagnostics

        frames = self.frames(b"\x62\x01\x02", bytes(range(20)))
        messages, diagnostics = assemble_with_diagnostics(frames, "isotp")
        assert len(messages) == 2
        assert diagnostics.clean
        assert diagnostics.stats.payloads == 2

    def test_faulty_stream_reports_losses_per_stream(self):
        from repro.core import assemble_with_diagnostics

        frames = self.frames(bytes(range(30)), b"\x62\x01\x02")
        del frames[1]  # lose one consecutive frame of the first message
        messages, diagnostics = assemble_with_diagnostics(frames, "isotp")
        assert [m.payload for m in messages] == [b"\x62\x01\x02"]
        assert not diagnostics.clean
        assert diagnostics.stats.messages_lost == 1
        assert 0x7E8 in diagnostics.streams
        assert diagnostics.details  # human-readable fault trail


@pytest.mark.parametrize(
    "a_length, a_kept, b_length",
    [(8, 1, 8), (20, 2, 27)],
    ids=["equal-length", "longer-next"],
)
def test_lost_cf_then_new_message_does_not_splice(a_length, a_kept, b_length):
    """A loses its last CF, then B opens on the same id.  Equal lengths:
    B's CF1 fits and completes both.  A 20-byte A waiting for CF2 and a
    27-byte B: B's CF1 passes A by, then B's CF2 fits A.  Only B may come
    out — with B's own first-frame timestamp and frame count — and A is a
    lost message, not A's head spliced onto B's frames."""
    from repro.core import assemble_with_diagnostics

    a = segment(bytes(range(0x10, 0x10 + a_length)), 0x7E8)
    b = segment(bytes(range(0x60, 0x60 + b_length)), 0x7E8)
    frames = [frame.with_timestamp(0.001 * i) for i, frame in enumerate(a[:a_kept])]
    frames += [frame.with_timestamp(0.010 + 0.001 * i) for i, frame in enumerate(b)]
    messages, diagnostics = assemble_with_diagnostics(frames, "isotp")
    assert [m.payload for m in messages] == [bytes(range(0x60, 0x60 + b_length))]
    assert messages[0].t_first == 0.010
    assert messages[0].n_frames == len(b)
    assert diagnostics.stats.messages_lost == 1
