"""Tests for field extraction (Step 3 of diagnostic-frames analysis)."""

import pytest

from repro.core.assembly import AssembledMessage, MessageTable
from repro.core.fields import extract_fields


def message(payload, t, can_id=0x7E0):
    return AssembledMessage(payload, can_id, t, t, 1)


def extract(messages):
    return extract_fields(MessageTable.from_messages(messages))


class TestUdsExtraction:
    def test_single_did_observation(self):
        messages = [
            message(b"\x22\xf4\x0d", 1.0),
            message(b"\x62\xf4\x0d\x21", 1.1, can_id=0x7E8),
        ]
        fields = extract(messages)
        assert len(fields.observations) == 1
        column = fields.by_identifier()["uds:F40D"]
        assert column.raw_bytes() == [b"\x21"]
        assert column.times.tolist() == [1.1]

    def test_multi_did_split_by_request(self):
        messages = [
            message(b"\x22\xf4\x0d\x09\x50", 1.0),
            message(b"\x62\xf4\x0d\x21\x09\x50\x01\x02", 1.1, can_id=0x7E8),
        ]
        fields = extract(messages)
        values = {key: column.raw_bytes() for key, column in fields.by_identifier().items()}
        assert values == {"uds:F40D": [b"\x21"], "uds:0950": [b"\x01\x02"]}

    def test_read_request_recorded(self):
        """A response is split by the read request before it."""
        messages = [
            message(b"\x22\xf4\x0d", 1.0),
            message(b"\x62\xf4\x0d\x21\x22", 1.1, can_id=0x7E8),
        ]
        column = extract(messages).by_identifier()["uds:F40D"]
        assert column.raw_bytes() == [b"\x21\x22"]

    def test_response_without_request_ignored(self):
        fields = extract([message(b"\x62\xf4\x0d\x21", 1.0, can_id=0x7E8)])
        assert len(fields.observations) == 0


class TestKwpExtraction:
    def test_records_per_slot(self):
        messages = [
            message(b"\x21\x07", 1.0),
            message(b"\x61\x07\x01\xf1\x10\x07\x64\x50", 1.1, can_id=0x7E8),
        ]
        fields = extract(messages)
        grouped = fields.by_identifier()
        assert list(grouped) == ["kwp:07/0", "kwp:07/1"]
        assert grouped["kwp:07/0"].formula_types.tolist() == [0x01]
        assert grouped["kwp:07/0"].variables() == [(0xF1, 0x10)]


class TestObdExtraction:
    def test_mode01_observation(self):
        messages = [
            message(b"\x01\x0c", 1.0),
            message(b"\x41\x0c\x1a\xf8", 1.1, can_id=0x7E8),
        ]
        fields = extract(messages)
        assert fields.by_identifier()["obd2:0C"].raw_bytes() == [b"\x1a\xf8"]


class TestIoControlExtraction:
    def test_positive_sequence(self):
        messages = [
            message(b"\x2f\x09\x50\x02", 1.0),
            message(b"\x6f\x09\x50\x02", 1.1, can_id=0x7E8),
            message(b"\x2f\x09\x50\x03\x05\x01", 2.0),
            message(b"\x6f\x09\x50\x03\x05\x01", 2.1, can_id=0x7E8),
        ]
        fields = extract(messages)
        assert len(fields.io_events) == 2
        assert all(e.positive for e in fields.io_events)
        assert fields.io_events[1].control_state == b"\x05\x01"

    def test_negative_response_marks_event(self):
        messages = [
            message(b"\x2f\x09\x50\x03\x05", 1.0),
            message(b"\x7f\x2f\x22", 1.1, can_id=0x7E8),
        ]
        fields = extract(messages)
        assert len(fields.io_events) == 1
        assert not fields.io_events[0].positive

    def test_kwp_service_30(self):
        messages = [
            message(b"\x30\x15\x03\x00\x40\x00", 1.0),
            message(b"\x70\x15\x03\x00", 1.1, can_id=0x7E8),
        ]
        fields = extract(messages)
        event = fields.io_events[0]
        assert event.service == 0x30
        assert event.identifier == 0x15
        assert event.io_parameter == 0x03
        assert event.control_state == b"\x00\x40\x00"


class TestGrouping:
    def test_by_identifier(self):
        messages = []
        for i in range(3):
            messages.append(message(b"\x22\xf4\x0d", float(i)))
            messages.append(message(bytes([0x62, 0xF4, 0x0D, i]), i + 0.1, can_id=0x7E8))
        grouped = extract(messages).by_identifier()
        assert len(grouped["uds:F40D"]) == 3
