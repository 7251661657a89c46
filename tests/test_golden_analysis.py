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

``NOISY_GOLDEN`` pins one car under the ``default`` noise profile (seed
0).  Its dropped and corrupted frames leave identifiers whose responses
carry different byte counts, empty ones included, so the ragged raw
features of §3.4 matching are pinned as well.

Match scores are Pearson correlations reduced with :func:`math.fsum`, so
the digests are the same on every supported Python version.
"""

import hashlib
import json

import pytest

from repro import DPReverser, ReverserConfig
from repro.cps import DataCollector
from repro.runtime.job import JobSpec
from repro.tools import make_tool_for_car
from repro.vehicle import build_car

GOLDEN = {
    "C": "7904fe09a62eaafddb5a1b7610f5c06f79d7d307d80ca51c8152bbe44f646fee",
    "E": "ca6671853b669dd4427d259c0eb577afc45ffe156765b9674d9aa41532bf3d89",
    "I": "59f6f62e34f1247bfbcc5fb2733b5cf9f09f657bda39a11ca0d984d0393d5559",
}


def _series_document(series):
    return [
        [
            label,
            [
                [repr(t), text, repr(value if numeric else None), unit]
                for t, text, numeric, value, unit in zip(
                    ui.times.tolist(),
                    ui.texts.tolist(),
                    ui.numeric.tolist(),
                    ui.values.tolist(),
                    ui.units.tolist(),
                )
            ],
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


NOISY_GOLDEN = {
    "N": "ede281fcf4150987a8a7a06939bed04125f190b4eefb87a6c0f73e4b6d9ce105",
}


@pytest.mark.parametrize("key", sorted(NOISY_GOLDEN))
def test_noisy_analysis_matches_golden_digest(key):
    car = build_car(key)
    capture = DataCollector(make_tool_for_car(key, car), read_duration_s=30.0).collect()
    noise = JobSpec(key, noise_spec="default", noise_seed=0).noise_profile()
    context = DPReverser(ReverserConfig(noise=noise)).analyze(capture)
    assert context.matches
    assert analysis_digest(context) == NOISY_GOLDEN[key]
