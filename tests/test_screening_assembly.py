"""Tests for frame screening, transport detection and payload assembly."""

import random
from collections import Counter

import pytest

import numpy as np

from repro.can import CanFrame, FaultCounts, NoiseProfile, apply_noise
from repro.core import (
    TRANSPORT_BMW,
    TRANSPORT_ISOTP,
    TRANSPORT_VWTP,
    assemble,
    detect_transport,
    frame_passes_screen,
    multiframe_statistics,
)
from repro.core.screening import screen_mask
from repro.cps import DataCollector
from repro.tools import make_tool_for_car
from repro.transport import segment, segment_bmw, segment_vwtp
from repro.transport.arrays import FrameArrays
from repro.vehicle import build_car


def stamp(frames, start=1.0):
    return [f.with_timestamp(start + i * 0.001) for i, f in enumerate(frames)]


class TestDetection:
    def test_detects_isotp(self):
        frames = stamp(segment(bytes(30), 0x7E0))
        assert detect_transport(frames) == TRANSPORT_ISOTP

    def test_detects_vwtp_by_setup(self):
        setup = CanFrame(0x200, bytes([0x01, 0xC0, 0x41, 0x07, 0x00, 0x03, 0x01]))
        frames = [setup] + stamp(segment_vwtp(bytes(20), 0x740))
        assert detect_transport(frames) == TRANSPORT_VWTP

    def test_detects_bmw_by_address_prefix(self):
        frames = stamp(
            segment_bmw(bytes(30), 0x6F1, ecu_address=0x43)
            + segment_bmw(bytes(10), 0x643, ecu_address=0xF1)
        )
        assert detect_transport(frames) == TRANSPORT_BMW

    def test_empty_capture_defaults_isotp(self):
        assert detect_transport([]) == TRANSPORT_ISOTP

    def test_columns_agree_with_the_per_frame_heuristic(self):
        """The array heuristic equals the per-frame loop it replaced on
        BMW-like captures whose per-id address dominance straddles 90%,
        ISO-TP traffic, short frames and stray VW TP 2.0 setup bytes."""
        rng = random.Random("detect")
        seen = Counter()
        for __ in range(400):
            frames = []
            setup_rate = rng.choice([0.0, 0.02])
            for can_id in rng.sample([0x200, 0x2FF, 0x6F1, 0x640, 0x7E0, 0x7E8], rng.randint(1, 4)):
                address = rng.choice([0x12, 0x29, 0x33, 0xF1, 0x03])
                dominance = rng.choice([1.0, 0.95, 0.9, 0.85, 0.5])
                for __ in range(rng.randint(1, 25)):
                    data = bytearray(rng.randrange(256) for __ in range(rng.randint(0, 8)))
                    if data and rng.random() < dominance:
                        data[0] = address  # BMW address byte
                    if len(data) > 1 and rng.random() < 0.8:
                        data[1] = rng.choice([0x02, 0x10, 0x21, 0x30, 0x7F])
                    if len(data) > 1 and rng.random() < setup_rate:
                        data[1] = rng.choice([0xC0, 0xD0])  # VW TP 2.0 channel setup
                    frames.append(CanFrame(can_id, bytes(data)))
            transport = detect_transport(frames)
            assert transport == reference_detect_transport(frames)
            seen[transport] += 1
        assert all(seen[t] > 20 for t in (TRANSPORT_ISOTP, TRANSPORT_VWTP, TRANSPORT_BMW))


def reference_detect_transport(frames):
    """The per-frame transport heuristic, kept as the test oracle."""
    for frame in frames:
        setup = len(frame.data) >= 2 and frame.data[1] in (0xC0, 0xD0)
        if setup and 0x200 <= frame.can_id <= 0x2FF:
            return TRANSPORT_VWTP
    votes_bmw = votes_isotp = 0
    first_bytes = {}
    for frame in frames:
        if len(frame.data) < 2:
            continue
        first_bytes.setdefault(frame.can_id, Counter())[frame.data[0]] += 1
        votes_isotp += frame.data[0] >> 4 <= 3
        votes_bmw += frame.data[1] >> 4 <= 3
    dominant = {can_id: counts.most_common(1)[0] for can_id, counts in first_bytes.items()}
    if (
        first_bytes
        and all(
            count >= 0.9 * sum(first_bytes[can_id].values())
            for can_id, (__, count) in dominant.items()
        )
        and votes_bmw >= votes_isotp
        and any(byte not in range(0x00, 0x40) for byte, __ in dominant.values())
    ):
        return TRANSPORT_BMW
    return TRANSPORT_ISOTP


class TestScreening:
    def test_isotp_drops_flow_control(self):
        frames = stamp(segment(bytes(30), 0x7E0)) + [
            CanFrame(0x7E8, b"\x30\x00\x00", timestamp=99.0)
        ]
        kept = [frame_passes_screen(f, TRANSPORT_ISOTP) for f in frames]
        assert kept == [True] * (len(frames) - 1) + [False]
        mask = screen_mask(FrameArrays.from_frames(frames), TRANSPORT_ISOTP)
        assert mask.tolist() == kept

    def test_vwtp_keeps_only_data(self):
        frames = [
            CanFrame(0x200, bytes([0x01, 0xC0, 0x41, 0x07, 0x00, 0x03, 0x01])),
            CanFrame(0x740, bytes([0xA0, 0x0F, 0x8A, 0xFF, 0x32, 0xFF])),
            CanFrame(0x740, b"\xb1"),
        ] + segment_vwtp(b"\x21\x01", 0x740)
        kept = [f for f in frames if frame_passes_screen(f, TRANSPORT_VWTP)]
        assert kept == frames[3:]
        # VW TP 2.0 has no vectorised screen: the event decoders screen it.
        assert screen_mask(FrameArrays.from_frames(frames), TRANSPORT_VWTP) is None

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            frame_passes_screen(CanFrame(0x7E0, b"\x02\x10\x03"), "carrier-pigeon")
        assert screen_mask(FrameArrays.from_frames([]), "carrier-pigeon") is None

    @pytest.mark.parametrize("car, transport", [("A", TRANSPORT_ISOTP), ("E", TRANSPORT_BMW)])
    def test_mask_equals_per_frame_predicate_under_noise(self, car, transport):
        """On a default-noise capture (truncated and bit-flipped frames
        included) the mask keeps exactly the frames the per-frame predicate
        keeps.  The fleet's BMW dialogues carry no flow control, so empty,
        one-byte and flow-control frames at both PCI offsets are appended."""
        vehicle = build_car(car)
        capture = DataCollector(make_tool_for_car(car, vehicle), read_duration_s=8.0).collect()
        frames = apply_noise(list(capture.can_log), NoiseProfile.default(seed=9), FaultCounts())
        frames += [
            CanFrame(0x6F1, b""),
            CanFrame(0x6F1, b"\x12"),
            CanFrame(0x6F1, b"\x30\x00\x00"),
            CanFrame(0x6F1, b"\x12\x30\x00\x00"),
        ]
        expected = np.array([frame_passes_screen(f, transport) for f in frames])
        mask = screen_mask(FrameArrays.from_frames(frames), transport)
        assert np.array_equal(mask, expected)
        assert 0 < expected.sum() < len(frames)


class TestAssembly:
    def test_isotp_roundtrip(self):
        payload = bytes(range(40))
        messages = assemble(stamp(segment(payload, 0x7E0)), TRANSPORT_ISOTP)
        assert len(messages) == 1
        assert messages[0].payload == payload
        assert messages[0].n_frames == len(segment(payload, 0x7E0))

    def test_interleaved_streams_demultiplexed(self):
        request = stamp(segment(b"\x22\xf4\x0d", 0x7E0), start=1.0)
        response = stamp(segment(bytes(range(30)), 0x7E8), start=2.0)
        mixed = sorted(request + response, key=lambda f: f.timestamp)
        messages = assemble(mixed, TRANSPORT_ISOTP)
        assert [m.can_id for m in messages] == [0x7E0, 0x7E8]

    def test_vwtp_roundtrip(self):
        payload = bytes(range(25))
        messages = assemble(stamp(segment_vwtp(payload, 0x740)), TRANSPORT_VWTP)
        assert messages[0].payload == payload

    def test_bmw_roundtrip_strips_address(self):
        payload = b"\x62\xf4\x00\x11\x22\x33\x44\x55\x66\x77"
        messages = assemble(
            stamp(segment_bmw(payload, 0x643, ecu_address=0x43)), TRANSPORT_BMW
        )
        assert messages[0].payload == payload
        assert messages[0].ecu_address == 0x43

    def test_timestamps_span_message(self):
        frames = stamp(segment(bytes(50), 0x7E0))
        message = assemble(frames, TRANSPORT_ISOTP)[0]
        assert message.t_first == frames[0].timestamp
        assert message.t_last == frames[-1].timestamp

    def test_messages_sorted_by_completion(self):
        a = stamp(segment(bytes(30), 0x700), start=1.0)
        b = stamp(segment(b"\x01\x02", 0x701), start=1.0005)
        messages = assemble(sorted(a + b, key=lambda f: f.timestamp), TRANSPORT_ISOTP)
        assert messages[0].can_id == 0x701  # single frame completes first


class TestStatistics:
    def test_isotp_mix(self):
        frames = stamp(
            segment(b"\x22\xf4\x0d", 0x7E0)  # 1 single
            + segment(bytes(30), 0x7E8)  # 1 FF + CFs
        ) + [CanFrame(0x7E0, b"\x30\x00\x00", timestamp=9.0)]
        stats = multiframe_statistics(frames, TRANSPORT_ISOTP)
        assert stats["single"] == 1
        assert stats["multi"] == len(segment(bytes(30), 0x7E8))
        assert stats["control"] == 1
        assert stats["total"] == len(frames)

    def test_vwtp_mix_counts_last_packets_as_single(self):
        frames = stamp(segment_vwtp(bytes(20), 0x740))  # 3 frames, 1 last
        stats = multiframe_statistics(frames, TRANSPORT_VWTP)
        assert stats["single"] == 1
        assert stats["multi"] == 2
