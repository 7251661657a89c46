"""Batch capture decode through :meth:`StreamAssembler.feed_chunk`.

:func:`repro.core.assembly.assemble_with_diagnostics` decodes a whole
capture as one ``feed_chunk`` call: clean single-frame streams are sliced
out of a numpy payload matrix, everything else is replayed through the
event-based reassemblers.  Its contract is strict equivalence with the
per-frame :meth:`StreamAssembler.feed` reference — identical messages
*and* identical diagnostics on any capture, however it is split into
chunks — which the fuzzer here checks on adversarial mixes of valid
traffic, malformed PCIs, truncations, sequence gaps and timestamp ties.
"""

import random

import pytest

from repro.can import CanFrame
from repro.core import TRANSPORT_BMW, TRANSPORT_ISOTP
from repro.core.assembly import (
    MIN_CHUNK_FRAMES,
    StreamAssembler,
    assemble_with_diagnostics,
)
from repro.transport.arrays import HAVE_NUMPY, FrameArrays
from repro.transport import segment, segment_bmw

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="columnar decode needs numpy")


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
        assert messages == [] and diagnostics.messages == 0

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
