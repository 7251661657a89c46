"""Golden clean-capture analysis: one committed digest per CAN transport.

The decode golden (``tests/test_golden_decode.py``) pins payload assembly;
this one pins what :meth:`~repro.core.reverser.DPReverser.analyze` builds
on top of it from the UI video: the filtered and unfiltered per-label
series (§3.3), the two-stage filter's reports, the semantic matches with
their scores (§3.4) and the estimated camera offset.  Cars C (VW TP 2.0),
E (BMW) and I (ISO-TP) are collected at the default 30 s reads.  Every
sample's timestamp, text, value and unit and every match score is
``repr``'d, so a screenshot or matching change that moves any of them by
one ulp, reorders a series or flips a greedy tie moves the digest.
"""

import hashlib
import json

import pytest

from repro import DPReverser
from repro.cps import DataCollector
from repro.tools import make_tool_for_car
from repro.vehicle import build_car

GOLDEN = {
    "C": "b9b9e36d455c0a73ca1a5c30b26f7056dd119c2f144efd0ce65cbdfa6ff38e57",
    "E": "431d98dfe963c50f4ce6f4151defea223e1bcbb43d2c54314965d4658a33cc3b",
    "I": "6a829ee4a05a696e8c98dec00ae488595556e09a0c489ffed2a3d1ba1483e487",
}


def _series_document(series):
    return [
        [
            label,
            [[repr(s.timestamp), s.text, repr(s.value), s.unit] for s in ui.samples],
        ]
        for label, ui in series.items()
    ]


def analysis_digest(context):
    document = {
        "series": _series_document(context.series),
        "series_raw": _series_document(context.series_raw),
        "filter_reports": [
            [label, r.kept, r.removed_range, r.removed_outlier]
            for label, r in context.filter_reports.items()
        ],
        "matches": [[m.identifier, m.label, repr(m.score), m.method] for m in context.matches],
        "offset": repr(context.offset),
    }
    blob = json.dumps(document, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_clean_analysis_matches_golden_digest(key):
    car = build_car(key)
    capture = DataCollector(make_tool_for_car(key, car), read_duration_s=30.0).collect()
    context = DPReverser().analyze(capture)
    assert context.matches
    assert analysis_digest(context) == GOLDEN[key]
