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

``FLEET_REPORT_GOLDEN`` pins the whole fleet, cars A-R, with the
``linear`` backend: each car's report from its clean capture and from the
same capture under the ``default`` noise profile (seed 0).

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
from repro.vehicle import CAR_SPECS, build_car

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

#: car -> (clean report digest, noisy report digest), ``linear`` backend
FLEET_REPORT_GOLDEN = {
    "A": (
        "ea1704e3f3d6ad670198c8fe5cc7f37aa91f6858515e343db3bee8fa1805830a",
        "ffa2273acee0a5f68b03494c2b39e3b6b3c1e3e3015c47506841de8a267afb69",
    ),
    "B": (
        "5c79cb2b146a0797f531e372a38f76c38341c103b93678323bbe3abc83d30ba0",
        "1068c00b0079c5a86a83d6afd7b4188fa3f8ba6bfaf9e36433bb0e561adf4a2f",
    ),
    "C": (
        "b43b62566435f16d5d923189a5233d302f3f1a291df03cf6786cc2d1601ec5ce",
        "f56e189adb731004779e76a8da265269f0b0d8ca4ddfee846d4f9425e5198157",
    ),
    "D": (
        "cb986b8a4450cb66d4e7a3acfa722e9770088bff513ac213f063a6d972036c47",
        "7ad96b77b75f3ad932246d10103bb4b85661ba8540f214ec83b74c2deeeb088b",
    ),
    "E": (
        "eff990a41eba391eeaa02ba6e37228882043b400918da2b199f02fc7e0288324",
        "c2ad8ba667ab72a964810adbebc069068aa96e3a78ffc6ec394f2b5802140148",
    ),
    "F": (
        "c841912a5c48bd7739a5116507e1a8bd89f2f54514735b7e13af3033b4c6244f",
        "e761999fdda020d8d70fe25c194431968dfd91a0f06cd162a15a4e35cc5e9c70",
    ),
    "G": (
        "d2829b544fdcc7fab0b97632385eb2d388dfc4a29a5b919d5c72a6b7fa1d5acd",
        "c3390bf252fc01db2e43ccbaaf5accbbbf96ceef64879d18fc0dab0c9f50ba84",
    ),
    "H": (
        "91e23003b58d02d128436c0099c396a19d9e5e5a0d485e1951653a29031e0949",
        "bd75498a250c8afb50b62cd43e6456c36c2330ae5e97f4321a62fc2ff25722c1",
    ),
    "I": (
        "88409b8ae332630373cc24f0153d9dd1d1e45e984c104873d8e9970a2420088b",
        "f49ae41697ad63bc0e1f5f3248cf491c4ea730b051b4a93a3477c282e83c06f6",
    ),
    "J": (
        "cef278d231c841ce57f07f645c0663a92e51011b1bfc349721cf49fe1fdcdf7b",
        "e4f47c7a458273b5a433ba3ab53f84d652c47ae737f505f0701cb2688fe21157",
    ),
    "K": (
        "d5d4f34f965130a90966ed0c4774f8fa27587c0679939251bad7aca66e9b36de",
        "c02136f82660897597715b969e4c5f04fce8ef198c21a126f8d822193dbf1724",
    ),
    "L": (
        "cc317e7d4ec3d71bef2293cbbec3982fb4c118972e9110b05096ed75efbaeb0c",
        "bb9615f47a8a8d5f36ec2d89cd7fb9d583d75f06b7bfc95bd1826d02ab7681d3",
    ),
    "M": (
        "f38099d8bef5d7622786ed5d4554655c3841e8624aa226641dd656ae0c31fd40",
        "9e25ca28b309d3db63cae8bafec9a063c9b9b56afa20ae5ce8cfceab68fd28f8",
    ),
    "N": (
        "d7dc74b4229b55f3cf7b62dc79ab5102474ad8282cbc4863e2b18376a3a238ac",
        "985d6c16aa530dad28cade9ee4fd49573d7508a006eb4fd56c8bb75ece4affc4",
    ),
    "O": (
        "14b727df9b6b9696855bccc732644f4b6175b8e5b0c54ded95b4b63a911059ec",
        "e635f21d9ba6be6eddff8cb532995381a622a83ace02a8112eb2691dd4ac2295",
    ),
    "P": (
        "6bfc9f8f20e7321ed68be1b8873ff04880f7bc36c0ee7e45124bc387f209e250",
        "dd8984969e506238aae471ec4019e0576a18188556156ecf723564fe0f099d4e",
    ),
    "Q": (
        "32a9ced70c937175f373b9161d504e8740b32a0b4d090a111ab899ac144d999c",
        "4dbaf12e523b72a5de7c554f34bd9adf7d75de10f9e87bca75f7ed69de411cba",
    ),
    "R": (
        "49413db103613571532d64f795aaf7205d5c81f4454d09bcc17bc99313f77c40",
        "ece3701d42a11c6c873e2ed9a8e6b38e56967cb700ff43136b97f544a5e11a84",
    ),
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


def collect(key):
    return DataCollector(make_tool_for_car(key, build_car(key)), read_duration_s=30.0).collect()


def reverser_for(key, backend, noisy):
    noise = JobSpec(key, noise_spec="default", noise_seed=0).noise_profile() if noisy else None
    return DPReverser(ReverserConfig(formula_backend=backend, noise=noise))


def run_case(key):
    backend, noisy = CASES[key]
    capture = collect(key)
    reverser = reverser_for(key, backend, noisy)
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


@pytest.mark.parametrize("key", sorted(CAR_SPECS))
def test_fleet_report_matches_golden_digest(key):
    capture = collect(key)
    digests = tuple(
        hashlib.sha256(
            reverser_for(key, "linear", noisy).reverse_engineer(capture).to_json().encode()
        ).hexdigest()
        for noisy in (False, True)
    )
    assert digests == FLEET_REPORT_GOLDEN[key]
