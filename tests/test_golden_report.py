"""Golden reports: the observations → samples → formula → report chain.

The decode golden (``tests/test_golden_decode.py``) stops at assembled
messages and the analysis golden (``tests/test_golden_analysis.py``) at
UI series and semantic matches.  This one pins what comes after: field
extraction's output and the whole report of
:meth:`~repro.core.reverser.DPReverser.reverse_engineer`.  Cars C (VW TP
2.0), E (BMW) and I (ISO-TP) run clean and car N under the ``default``
noise profile (seed 0), all with the ``linear`` backend; car F runs the
``hybrid`` backend, one of whose ESVs falls back to GP.  Captures are
collected at the default 30 s reads.

``FIELDS_GOLDEN`` hashes :func:`~repro.core.fields.extract_fields` output
in a form that does not depend on how it is stored: per identifier (in
sorted order) its protocol, each value's KWP formula type, ``repr`` of
its time and hex of its bytes; then every IO-control event and every read
request.  ``REPORT_GOLDEN`` hashes :meth:`ReverseReport.to_json`.
"""

import hashlib
import json

import pytest

from repro import DPReverser, ReverserConfig
from repro.cps import DataCollector
from repro.runtime.job import JobSpec
from repro.tools import make_tool_for_car
from repro.vehicle import build_car

#: car -> (formula backend, noisy)
CASES = {
    "C": ("linear", False),
    "E": ("linear", False),
    "I": ("linear", False),
    "N": ("linear", True),
    "F": ("hybrid", False),
}

FIELDS_GOLDEN = {
    "C": "ad5404e9b03089235d4ea38b6afd6e1da89da988194102547dafd60e3859ba75",
    "E": "30cd8e1379495213607249198499ddef1ee13611abe002ef86ef4f345180e6ad",
    "I": "437074d15d2e226ae2bbe745eacadc5a4d1d41926d4c74b38edf168b05a759bf",
    "N": "5c06b7da1f8ac5fc9a8fdaffd5d236ea10811549ece4a98faa8cfc4288eaaae1",
    "F": "60908a82352f7ee10598c698ff792f51043a09705215abe85bad7de5b7c7982d",
}

REPORT_GOLDEN = {
    "C": "b43b62566435f16d5d923189a5233d302f3f1a291df03cf6786cc2d1601ec5ce",
    "E": "eff990a41eba391eeaa02ba6e37228882043b400918da2b199f02fc7e0288324",
    "I": "88409b8ae332630373cc24f0153d9dd1d1e45e984c104873d8e9970a2420088b",
    "N": "985d6c16aa530dad28cade9ee4fd49573d7508a006eb4fd56c8bb75ece4affc4",
    "F": "b5f61097a00c834cf630e11332d07fc1960a70d79f67c28157f44ec6a00216d4",
}


def _sha256(document) -> str:
    blob = json.dumps(document, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _value_rows(fields):
    """``identifier -> (protocol, [(formula type, time, value bytes)])``."""
    return {
        identifier: (
            column.protocol,
            list(
                zip(
                    column.formula_types.tolist(),
                    column.times.tolist(),
                    column.raw_bytes(),
                )
            ),
        )
        for identifier, column in fields.by_identifier().items()
    }


def fields_digest(fields) -> str:
    grouped = _value_rows(fields)
    document = {
        "observations": [
            [
                identifier,
                grouped[identifier][0],
                [[ft, repr(t), raw.hex()] for ft, t, raw in grouped[identifier][1]],
            ]
            for identifier in sorted(grouped)
        ],
        "io_events": [
            [
                e.service,
                e.identifier,
                e.io_parameter,
                e.control_state.hex(),
                repr(e.timestamp),
                e.positive,
            ]
            for e in fields.io_events
        ],
        "read_requests": [
            [r.protocol, list(r.identifiers), repr(r.timestamp), r.can_id]
            for r in fields.read_requests
        ],
    }
    return _sha256(document)


def run_case(key):
    backend, noisy = CASES[key]
    car = build_car(key)
    capture = DataCollector(make_tool_for_car(key, car), read_duration_s=30.0).collect()
    noise = JobSpec(key, noise_spec="default", noise_seed=0).noise_profile() if noisy else None
    reverser = DPReverser(ReverserConfig(formula_backend=backend, noise=noise))
    context = reverser.analyze(capture)  # reverse_engineer = infer(analyze(...))
    report = reverser.infer(context)
    return reverser, context, report


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_matches_golden_digest(key):
    reverser, context, report = run_case(key)
    assert report.formula_esvs
    if CASES[key][0] == "hybrid":
        assert reverser.inference_stats.get("hybrid.fallbacks", 0) >= 1
    assert fields_digest(context.fields) == FIELDS_GOLDEN[key]
    blob = report.to_json().encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_GOLDEN[key]
