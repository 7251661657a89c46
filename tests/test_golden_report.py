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
its time and hex of its bytes; then every IO-control event.
``REPORT_GOLDEN`` hashes :meth:`ReverseReport.to_json`.
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
    "C": "4fb44a9f1ecfeed90d522f73ea7ebacbfe07a3f64d750422791c210e43becf16",
    "E": "7642c5f5142f13f2d8f6d6b5c64a3e01c74da84cbd98a884c82e2bb66c4caad1",
    "I": "1503115410edc5c7c8a38f1db1b7dbc461c204f5e27b5fbe9d7f6b763dc9459b",
    "N": "2b4dda04af5b3b74051d4f6511539221f7372e799283ccac25124399ec5d8e14",
    "F": "2ceeb5156c4bb4c72779251d442c0af53aefc39ef4cb2a920b6d27aac0993beb",
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
