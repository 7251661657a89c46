"""The columnar front end against its per-value references.

Field extraction, screenshot analysis, the two-stage filter, the clock
shift and the formula-memo key all emit or read columns; each must equal
what the per-value implementation in :mod:`tests.frontend_reference`
produces, compared with ``==`` (the matrix-or-list choice for raw values
included).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alignment import shift_series
from repro.core.assembly import AssembledMessage, MessageTable, assemble_with_diagnostics
from repro.core.fields import extract_fields
from repro.core.formula_memo import MEMO_FORMAT_VERSION, dataset_key, gp_config_fingerprint
from repro.core.gp import GpConfig
from repro.core.screenshot import extract_ui_series, filter_series
from repro.cps import DataCollector
from repro.cps.camera import TextRegion
from repro.cps.ocr import OcrFrame
from repro.diagnostics import uds
from repro.persistence import canonical_digest
from repro.tools import make_tool_for_car
from repro.vehicle import build_car

from . import frontend_reference as ref

# ------------------------------------------------------------------ fields

DIDS = (0xF400, 0xF401, 0x0950, 0x2200)
#: Value bytes lean on the DIDs' own bytes so that a value often holds the
#: next DID's marker, which moves the decoder's split.
VALUE_BYTES = st.one_of(st.sampled_from([0xF4, 0x00, 0x01, 0x09, 0x50, 0x22]), st.integers(0, 255))


@st.composite
def uds_poll(draw):
    """One read request and its responses: per DID a usual width, which a
    response may break; now and then a response is corrupted."""
    dids = draw(st.lists(st.sampled_from(DIDS), min_size=1, max_size=3))
    widths = [draw(st.integers(0, 3)) for __ in dids]
    messages = [uds.encode_read_data_by_identifier(dids)]
    for __ in range(draw(st.integers(0, 4))):
        body = b""
        for did, width in zip(dids, widths):
            if draw(st.integers(0, 5)) == 0:
                width = draw(st.integers(0, 4))
            value = bytes(draw(st.lists(VALUE_BYTES, min_size=width, max_size=width)))
            body += did.to_bytes(2, "big") + value
        response = bytearray(b"\x62" + body)
        if len(response) > 1 and draw(st.integers(0, 7)) == 0:
            response[draw(st.integers(1, len(response) - 1))] ^= 0xFF
        messages.append(bytes(response))
    return messages


OTHER_MESSAGES = st.sampled_from(
    [
        b"",
        b"\x22",  # no DID list: undecodable
        b"\x22\xf4",  # odd DID list: undecodable
        b"\x62\xf4\x00\x05",  # a response, maybe before any request
        b"\x7f\x22\x31",  # negative response
        b"\x7f\x22\x78",  # responsePending
        b"\x21\x07",
        b"\x21\x07\x00",  # malformed KWP request
        b"\x61\x07\x01\xf1\x10\x07\x64\x50",
        b"\x61\x07\x02\x20\x30",
        b"\x61\x08\x01\x00\x10",
        b"\x61\x07\x01\xf1",  # not a whole record
        b"\x61",
        b"\x01\x0c",
        b"\x41\x0c\x1a\xf8",
        b"\x41\x0c\x1b",
        b"\x41\x0d\x40",
        b"\x41\x0c",  # too short
        b"\x2f\x09\x50\x03\x05",
        b"\x6f\x09\x50\x03\x05",
        b"\x30\x15\x03\x00\x40",
        b"\x70\x15\x03",
        b"\x7f\x2f\x22",
        b"\x3e\x00",
        b"\x50\x03",
    ]
)


@st.composite
def message_streams(draw):
    payloads = []
    for __ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            payloads.extend(draw(uds_poll()))
        else:
            payloads.append(draw(OTHER_MESSAGES))
    messages = []
    t = 0.0
    for payload in payloads:
        t += draw(st.sampled_from([0.0, 0.01, 0.1]))  # equal times too
        messages.append(AssembledMessage(payload, draw(st.sampled_from([0x7E0, 0x7E8])), t, t, 1))
    return messages


def _messages(*payloads):
    return [AssembledMessage(p, 0x7E8, 0.1 * i, 0.1 * i, 1) for i, p in enumerate(payloads)]


def assert_fields_equal(messages):
    got = extract_fields(MessageTable.from_messages(messages))
    want = ref.extract_fields(messages)
    expected = ref.observation_columns(want.observations)
    assert got.by_identifier() == expected
    assert list(got.by_identifier()) == list(expected)
    assert len(got.observations) == len(want.observations)
    assert got.io_events == want.io_events


class TestFieldsAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(messages=message_streams())
    # A value holding the next DID's marker splits early in one response.
    @example(
        messages=_messages(
            b"\x22\xf4\x00\xf4\x01",
            b"\x62\xf4\x00\x10\x20\xf4\x01\x05",
            b"\x62\xf4\x00\xf4\x01\xf4\x01\x05",
            b"\x62\xf4\x00\x11\x21\xf4\x01\x06",
        )
    )
    # One DID read through two interleaved layouts of different widths.
    @example(
        messages=_messages(
            b"\x22\xf4\x00",
            b"\x62\xf4\x00\x01\x02",
            b"\x22\xf4\x00\x09\x50",
            b"\x62\xf4\x00\x03\x09\x50\x07",
            b"\x22\xf4\x00",
            b"\x62\xf4\x00\x04\x05",
        )
    )
    # One DID twice in one request: two values of one message.
    @example(messages=_messages(b"\x22\xf4\x00\xf4\x00", b"\x62\xf4\x00\x01\xf4\x00\x02"))
    def test_columns_equal_per_value_reference(self, messages):
        assert_fields_equal(messages)


def test_each_distinct_read_request_decoded_once(monkeypatch):
    car = build_car("I")
    capture = DataCollector(make_tool_for_car("I", car), read_duration_s=30.0).collect()
    messages, __ = assemble_with_diagnostics(list(capture.can_log))
    requests = [m.payload for m in messages if m.payload[:1] == b"\x22"]
    calls = []
    original = uds.decode_request_dids

    def counted(payload):
        calls.append(payload)
        return original(payload)

    monkeypatch.setattr(uds, "decode_request_dids", counted)
    extract_fields(messages)
    assert len(requests) > 10 * len(set(requests))
    assert sorted(calls) == sorted(set(requests))


# -------------------------------------------------------------- screenshot

LABELS = ["Engine Speed", "Engine Sped", "Coolant Temp", "Coolant Temp.", "Door"]
VALUE_TEXTS = [
    "---",
    "",
    "  ",
    "Open",
    "Closed",
    "12.5 km/h",
    "7",
    " 800 ",
    "800",
    "-3.25 degC",
    "2500",
    "1e7",
]


@st.composite
def ocr_frames(draw):
    frames = []
    for __ in range(draw(st.integers(0, 14))):
        regions = []
        for row in range(draw(st.integers(0, 3))):
            y = 100 + 40 * row
            label = draw(st.sampled_from(LABELS))
            regions.append(TextRegion(label, 10, y, 200, 20, "label"))
            regions.append(TextRegion(draw(st.sampled_from(VALUE_TEXTS)), 300, y, 80, 20, "value"))
        t = draw(st.integers(0, 8)) * 0.5  # equal and out-of-order times
        frames.append(OcrFrame(t, "live", regions, False))
    return frames


def reference_series(frames):
    return {label: ref.series_columns(s) for label, s in ref.extract_ui_series(frames).items()}


class TestScreenshotAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(frames=ocr_frames())
    def test_series_equal_per_sample_reference(self, frames):
        got = extract_ui_series(frames)
        want = reference_series(frames)
        assert got == want
        assert list(got) == list(want)

    @settings(max_examples=300, deadline=None)
    @given(
        readings=st.lists(
            st.one_of(
                st.none(),
                st.just(math.nan),
                st.floats(-2e5, 2e5, allow_nan=False),
                st.sampled_from([10.0, 11.0, 12.0, 500.0]),
            ),
            max_size=30,
        ),
        bounds=st.sampled_from([(-1e5, 1e5), (0, 1000), (-50, 50)]),
        offset=st.sampled_from([0.0, 2.5, -0.1]),
    )
    def test_filter_and_shift_equal_per_sample_reference(self, readings, bounds, offset):
        samples = [
            ref.UiSample(i * 0.5, "Open" if v is None else f"{v}", v) for i, v in enumerate(readings)
        ]
        series = ref.SampleSeries("X", samples)
        cleaned, report = filter_series(ref.series_columns(series), bounds)
        want, want_report = ref.filter_series(series, bounds)
        assert cleaned == ref.series_columns(want)
        assert report == want_report
        shifted = shift_series({"X": cleaned}, offset)
        assert shifted["X"] == ref.series_columns(ref.shift_series({"X": want}, offset)["X"])


# ----------------------------------------------------------------- memo key


def reference_dataset_key(observations, series, config, max_gap_s=1.5, backend="gp"):
    """The memo key written over per-value observations and samples."""
    return canonical_digest(
        {
            "memo_version": MEMO_FORMAT_VERSION,
            "backend": backend,
            "observations": [
                [o.protocol, o.formula_type, o.timestamp, o.raw_bytes.hex()] for o in observations
            ],
            "samples": [[s.timestamp, s.value] for s in series.numeric_samples],
            "max_gap_s": max_gap_s,
            "gp_config": gp_config_fingerprint(config),
        }
    )


@pytest.mark.parametrize("protocol", ["uds", "kwp"])
def test_dataset_key_equals_per_value_key(protocol):
    observations = [
        ref.EsvObservation(protocol, "kwp:01/0" if protocol == "kwp" else "uds:F40D",
                           bytes([i, 2 * i]), 0.5 * i, formula_type=i % 3)
        for i in range(8)
    ]
    samples = [ref.UiSample(0.5 * i, f"{i}", float(i)) for i in range(8)]
    samples += [ref.UiSample(4.0, "Open", None), ref.UiSample(99.0, "nan", math.nan)]
    series = ref.SampleSeries("Speed", samples)
    columns = ref.observation_columns(observations)[observations[0].identifier]
    config = GpConfig(seed=5)
    key = dataset_key(columns, ref.series_columns(series), config, backend="linear")
    assert key == reference_dataset_key(observations, series, config, backend="linear")
    assert np.isnan(ref.series_columns(series).values).sum() == 2
