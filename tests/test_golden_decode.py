"""Golden clean-capture decode: one committed digest per CAN transport.

Every other clean-decode check in the suite is relative (streamed ==
batch, chunked == per-frame, traced == untraced); this one is absolute.
Cars C (VW TP 2.0), E (BMW extended addressing) and I (ISO-TP) are
collected at the default 30 s reads, decoded with
:func:`~repro.core.assembly.assemble_with_diagnostics`, and every
:class:`~repro.core.assembly.AssembledMessage` field plus
:meth:`~repro.core.assembly.DecodeDiagnostics.to_dict` is hashed.  A
decoder change that alters clean-capture output in any field — payload,
timing, frame count, address or accounting — moves the digest.

``NOISY_GOLDEN`` pins the same three cars under fleet-noisy's treatment:
the ``default`` noise profile, seeded per car from noise seed 0.  A clean
capture's messages are about 95% sliced straight out of the frame
columns; the dropped, duplicated and corrupted frames push these onto the
event decoders, so walked rows, resyncs and their ``details`` are pinned
absolutely too, not only relative to per-frame decode.
"""

import hashlib
import json

import pytest

from repro.can import apply_noise
from repro.core.assembly import assemble_with_diagnostics
from repro.core.screening import detect_transport
from repro.cps import DataCollector
from repro.runtime.job import JobSpec
from repro.tools import make_tool_for_car
from repro.vehicle import build_car

GOLDEN = {
    "C": ("vwtp", "c9003dab5b986c420cd554c3fc0acc3b25ab072fb9d9aa16908c3dbf7fb8dca1"),
    "E": ("bmw", "01f493b5e6829ff527caec8650e7550a71d32c6aa3da30f74edf496354cda065"),
    "I": ("isotp", "4a37ef6493cd559db7fb3f82b54f9f54205ad4f4d538e135bf3b907be7734365"),
}


def decode_digest(frames):
    messages, diagnostics = assemble_with_diagnostics(frames)
    document = {
        "messages": [
            [
                m.payload.hex(),
                m.can_id,
                repr(m.t_first),
                repr(m.t_last),
                m.n_frames,
                m.ecu_address,
            ]
            for m in messages
        ],
        "diagnostics": diagnostics.to_dict(),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_clean_decode_matches_golden_digest(key):
    transport, digest = GOLDEN[key]
    car = build_car(key)
    capture = DataCollector(make_tool_for_car(key, car), read_duration_s=30.0).collect()
    frames = list(capture.can_log)
    assert detect_transport(frames) == transport
    assert decode_digest(frames) == digest


NOISY_GOLDEN = {
    "C": ("vwtp", "818fe55e2c6704cd318a4760f72ab93640f4e3e65d15cb6a30b03325918c8f9b"),
    "E": ("bmw", "e9c2d83254f540ebbc543b100aad47e6096a893d0fc2296df691207dc8e46719"),
    "N": ("isotp", "bbd629116733c28b89d11ff60a881fc38df9a95bdec9b42001cd7355d2a275c3"),
}


@pytest.mark.parametrize("key", sorted(NOISY_GOLDEN))
def test_noisy_decode_matches_golden_digest(key):
    transport, digest = NOISY_GOLDEN[key]
    car = build_car(key)
    capture = DataCollector(make_tool_for_car(key, car), read_duration_s=30.0).collect()
    noise = JobSpec(key, noise_spec="default", noise_seed=0).noise_profile()
    frames = apply_noise(list(capture.can_log), noise)
    assert detect_transport(frames) == transport
    assert decode_digest(frames) == digest
