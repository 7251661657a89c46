"""Tests for ISO 15765-2 segmentation, reassembly and the bus endpoint."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can import CanFrame, SimulatedCanBus
from repro.simtime import SimClock
from repro.transport import (
    EVENT_ERROR,
    EVENT_PAYLOAD,
    EVENT_RESYNC,
    FlowControl,
    FlowStatus,
    IsoTpEndpoint,
    IsoTpReassembler,
    PciType,
    TransportError,
    pci_type,
    segment,
)


class TestSegmentation:
    def test_single_frame_for_short_payload(self):
        frames = segment(b"\x22\xf4\x00", 0x7E0)
        assert len(frames) == 1
        assert frames[0].data[0] == 0x03
        assert frames[0].data[1:4] == b"\x22\xf4\x00"

    def test_padding_to_eight_bytes(self):
        frames = segment(b"\x01", 0x7E0, padding=0xAA)
        assert len(frames[0].data) == 8
        assert frames[0].data[2:] == b"\xaa" * 6

    def test_no_padding_when_disabled(self):
        frames = segment(b"\x01", 0x7E0, padding=None)
        assert len(frames[0].data) == 2

    def test_multi_frame_structure(self):
        payload = bytes(range(20))
        frames = segment(payload, 0x7E0)
        assert pci_type(frames[0].data) == PciType.FIRST
        assert all(pci_type(f.data) == PciType.CONSECUTIVE for f in frames[1:])
        length = ((frames[0].data[0] & 0x0F) << 8) | frames[0].data[1]
        assert length == 20

    def test_sequence_numbers_wrap_mod_16(self):
        payload = bytes(130)  # 6 + 18*7 > needs seq wrap past 15
        frames = segment(payload, 0x7E0)
        sequences = [f.data[0] & 0x0F for f in frames[1:]]
        assert sequences[:15] == list(range(1, 16))
        assert sequences[15] == 0

    def test_empty_payload_rejected(self):
        with pytest.raises(TransportError):
            segment(b"", 0x7E0)

    def test_oversized_payload_rejected(self):
        with pytest.raises(TransportError):
            segment(bytes(0x1000), 0x7E0)

    def test_reduced_capacity_for_extended_addressing(self):
        frames = segment(bytes(7), 0x7E0, frame_capacity=7)
        # 7 bytes don't fit a 7-capacity SF (max 6): must be multi-frame.
        assert pci_type(frames[0].data) == PciType.FIRST
        assert all(len(f.data) <= 7 for f in frames)


class TestReassembly:
    def test_single_frame(self):
        reassembler = IsoTpReassembler()
        payload = reassembler.feed_payloads(
            CanFrame(0x7E0, b"\x02\x10\x03\x00\x00\x00\x00\x00")
        )
        assert payload == b"\x10\x03"

    def test_multi_frame_roundtrip(self):
        payload = bytes(range(50))
        reassembler = IsoTpReassembler()
        results = [reassembler.feed_payloads(f) for f in segment(payload, 0x7E0)]
        assert results[-1] == payload
        assert all(r is None for r in results[:-1])

    def test_feed_emits_payload_events(self):
        payload = bytes(range(50))
        reassembler = IsoTpReassembler()
        events = []
        for frame in segment(payload, 0x7E0):
            events.extend(reassembler.feed(frame))
        assert [e.kind for e in events] == [EVENT_PAYLOAD]
        assert events[0].payload == payload
        assert reassembler.stats.payloads == 1
        assert reassembler.stats.errors == 0

    def test_flow_control_ignored(self):
        reassembler = IsoTpReassembler()
        assert reassembler.feed(CanFrame(0x7E0, b"\x30\x00\x00")) == []

    def test_sequence_gap_strict_raises(self):
        frames = segment(bytes(30), 0x7E0)
        reassembler = IsoTpReassembler(strict=True)
        reassembler.feed_payloads(frames[0])
        with pytest.raises(TransportError):
            reassembler.feed_payloads(frames[2])  # skipped frames[1]

    def test_sequence_gap_lenient_resyncs(self):
        frames = segment(bytes(30), 0x7E0)
        reassembler = IsoTpReassembler(strict=False)
        reassembler.feed_payloads(frames[0])
        events = reassembler.feed(frames[2])
        assert [e.kind for e in events] == [EVENT_RESYNC]
        assert reassembler.stats.resyncs == 1
        assert reassembler.stats.messages_lost == 1
        # A fresh message still works afterwards.
        for frame in segment(b"\x01\x02", 0x7E0):
            result = reassembler.feed_payloads(frame)
        assert result == b"\x01\x02"

    def test_duplicate_consecutive_ignored(self):
        payload = bytes(range(30))
        frames = segment(payload, 0x7E0)
        reassembler = IsoTpReassembler(strict=False)
        result = None
        for frame in frames:
            result = reassembler.feed_payloads(frame)
            if frame is frames[1]:
                # Replay the frame we just consumed: error event, no reset.
                events = reassembler.feed(frame)
                assert [e.kind for e in events] == [EVENT_ERROR]
        assert result == payload

    def test_consecutive_without_first_strict_raises(self):
        reassembler = IsoTpReassembler(strict=True)
        with pytest.raises(TransportError):
            reassembler.feed_payloads(
                CanFrame(0x7E0, b"\x21\x01\x02\x03\x04\x05\x06\x07")
            )

    def test_zero_length_single_frame_rejected(self):
        reassembler = IsoTpReassembler()
        with pytest.raises(TransportError):
            reassembler.feed_payloads(CanFrame(0x7E0, b"\x00\x01"))

    def test_back_to_back_messages(self):
        reassembler = IsoTpReassembler()
        first = segment(bytes(range(10)), 0x7E0)
        second = segment(b"\xaa\xbb", 0x7E0)
        for frame in first:
            result = reassembler.feed_payloads(frame)
        assert result == bytes(range(10))
        for frame in second:
            result = reassembler.feed_payloads(frame)
        assert result == b"\xaa\xbb"


class TestFlowControlCodec:
    def test_roundtrip(self):
        control = FlowControl(FlowStatus.CONTINUE, block_size=4, st_min_ms=10)
        decoded = FlowControl.decode(control.encode())
        assert decoded == control

    def test_decode_rejects_non_fc(self):
        with pytest.raises(TransportError):
            FlowControl.decode(b"\x02\x10\x03")


class TestEndpoint:
    def make_pair(self):
        bus = SimulatedCanBus(SimClock())
        received = []
        server = IsoTpEndpoint(
            bus, "server", tx_id=0x7E8, rx_id=0x7E0,
            on_message=lambda p: server.send(b"\x50" + p),
        )
        client = IsoTpEndpoint(bus, "client", tx_id=0x7E0, rx_id=0x7E8)
        return bus, server, client

    def test_short_exchange(self):
        __, __, client = self.make_pair()
        client.send(b"\x10\x03")
        assert client.receive() == b"\x50\x10\x03"

    def test_long_message_with_flow_control(self):
        __, __, client = self.make_pair()
        payload = bytes(range(60))
        client.send(payload)
        response = client.receive()
        assert response == b"\x50" + payload

    def test_long_response_reassembled(self):
        bus = SimulatedCanBus(SimClock())
        big = bytes(range(100))
        server = IsoTpEndpoint(
            bus, "server", tx_id=0x7E8, rx_id=0x7E0,
            on_message=lambda p: server.send(big),
        )
        client = IsoTpEndpoint(bus, "client", tx_id=0x7E0, rx_id=0x7E8)
        client.send(b"\x22\x01\x02")
        assert client.receive() == big

    def test_receive_empty_returns_none(self):
        __, __, client = self.make_pair()
        assert client.receive() is None


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(min_size=1, max_size=500))
def test_segment_reassemble_roundtrip(payload):
    """Property: any payload survives segmentation + reassembly."""
    reassembler = IsoTpReassembler()
    result = None
    for frame in segment(payload, 0x7E0):
        result = reassembler.feed_payloads(frame)
    assert result == payload


@settings(max_examples=30, deadline=None)
@given(payload=st.binary(min_size=1, max_size=200), capacity=st.integers(7, 8))
def test_roundtrip_any_capacity(payload, capacity):
    """Property: roundtrip holds for both normal and extended capacity."""
    reassembler = IsoTpReassembler()
    result = None
    for frame in segment(payload, 0x700, frame_capacity=capacity):
        result = reassembler.feed_payloads(frame)
    assert result == payload
