"""Tests for request-semantics matching (§3.4)."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pairing import nearest_pairs, pearson
from repro.core.request_analysis import (
    SemanticMatch,
    change_time_score,
    correlation_score,
    match_semantics,
)

from .frontend_reference import (
    EsvObservation,
    SampleSeries,
    UiSample,
    observation_columns,
    series_columns,
)


def obs_list(identifier, values, dt=0.5, protocol="uds", formula_type=0):
    out = []
    for i, value in enumerate(values):
        if isinstance(value, tuple):
            raw = bytes(value)
        else:
            raw = bytes([value & 0xFF])
        out.append(
            EsvObservation(protocol, identifier, raw, i * dt, formula_type=formula_type)
        )
    return out


def obs_series(identifier, values, dt=0.5, protocol="uds", formula_type=0):
    """One identifier's values as the program's columns."""
    observations = obs_list(identifier, values, dt, protocol, formula_type)
    return observation_columns(observations)[identifier]


def ui_series(label, values, dt=0.5, texts=None):
    samples = []
    for i, value in enumerate(values):
        text = texts[i] if texts else f"{value}"
        numeric = None if texts else float(value)
        samples.append(UiSample(i * dt, text, numeric))
    return series_columns(SampleSeries(label, samples))


def columns_of(grouped, ui_series):
    """Reference inputs (observation lists, sample series) as columns."""
    observations = [o for group in grouped.values() for o in group]
    return (
        observation_columns(observations),
        {label: series_columns(series) for label, series in ui_series.items()},
    )


class TestCorrelation:
    def test_perfect_linear_relation(self):
        raw = [10, 20, 30, 40, 50, 60]
        observations = obs_series("uds:F400", raw)
        series = ui_series("Speed", [2 * v + 5 for v in raw])
        assert correlation_score(observations, series) == pytest.approx(1.0)

    def test_unrelated_series_low(self):
        observations = obs_series("uds:F400", [10, 200, 15, 180, 20, 160, 25])
        series = ui_series("Noise", [5, 5, 5, 5.5, 5, 5, 5])
        assert correlation_score(observations, series) < 0.5

    def test_product_feature_captures_kwp(self):
        pairs = [(a, b) for a, b in zip([10, 40, 70, 100, 20, 90], [5, 80, 30, 120, 200, 60])]
        observations = obs_series("kwp:01/0", pairs, protocol="kwp")
        series = ui_series("Engine Speed", [0.2 * a * b for a, b in pairs])
        assert correlation_score(observations, series) > 0.95


class TestChangeTimes:
    def test_synchronised_flips_score_high(self):
        observations = obs_series("uds:0940", [0, 0, 1, 1, 0, 0, 1, 1])
        texts = ["Off", "Off", "On", "On", "Off", "Off", "On", "On"]
        series = ui_series("Door", [0] * 8, texts=texts)
        assert change_time_score(observations, series) == pytest.approx(1.0)

    def test_unrelated_flips_score_low(self):
        observations = obs_series("uds:0940", [0, 1, 0, 1, 0, 1, 0, 1], dt=1.0)
        texts = ["Off"] * 7 + ["On"]
        series = ui_series("Door", [0] * 8, dt=1.0, texts=texts)
        assert change_time_score(observations, series) < 0.5

    def test_no_changes_scores_zero(self):
        observations = obs_series("uds:0940", [1] * 6)
        series = ui_series("Door", [0] * 6, texts=["On"] * 6)
        assert change_time_score(observations, series) == 0.0


class TestMatching:
    def test_two_numeric_identifiers_assigned_correctly(self):
        raw_a = [10, 30, 50, 70, 90, 110]
        raw_b = [200, 150, 100, 80, 60, 40]
        grouped = {
            "uds:F400": obs_series("uds:F400", raw_a),
            "uds:F401": obs_series("uds:F401", raw_b),
        }
        series = {
            "Speed": ui_series("Speed", [v * 0.5 for v in raw_a]),
            "Pressure": ui_series("Pressure", [v * 3 for v in raw_b]),
        }
        matches = {m.identifier: m.label for m in match_semantics(grouped, series)}
        assert matches == {"uds:F400": "Speed", "uds:F401": "Pressure"}

    def test_enum_matched_by_change_times(self):
        grouped = {
            "uds:0940": obs_series("uds:0940", [0, 0, 1, 1, 0, 0, 1, 1]),
        }
        texts = ["Closed", "Closed", "Open", "Open", "Closed", "Closed", "Open", "Open"]
        series = {"Driver Door": ui_series("Driver Door", [0] * 8, texts=texts)}
        matches = match_semantics(grouped, series)
        assert matches[0].label == "Driver Door"
        assert matches[0].method == "change-times"

    def test_window_restricts_candidates(self):
        raw = [10, 20, 30, 40, 50, 60]
        grouped = {"uds:F400": obs_series("uds:F400", raw)}
        series = {"Speed": ui_series("Speed", raw)}
        matches = match_semantics(grouped, series, window=(100.0, 200.0))
        assert matches == []

    def test_identifier_matched_at_most_once(self):
        raw = [10, 20, 30, 40, 50, 60]
        grouped = {"uds:F400": obs_series("uds:F400", raw)}
        series = {
            "Label A": ui_series("Label A", raw),
            "Label B": ui_series("Label B", [v + 0.5 for v in raw]),
        }
        matches = match_semantics(grouped, series)
        assert len(matches) == 1


# ----------------------------------------------------------- reference loop


def reference_nearest_indices(tx, ty, max_gap_s=1.5):
    """Nearest-timestamp pairing as the per-sample two-pointer walk: the
    oracle :func:`~repro.core.pairing.nearest_pairs` must equal."""
    indices = []
    if not tx or not ty:
        return indices
    j = 0
    for i, t in enumerate(tx):
        while j + 1 < len(ty) and abs(ty[j + 1] - t) <= abs(ty[j] - t):
            j += 1
        if abs(ty[j] - t) <= max_gap_s:
            indices.append((i, j))
    return indices


def reference_pair_by_time(xs, ys, max_gap_s=1.5):
    """Pairs ``(x, y)`` of two (t, value) series by the walk."""
    indices = reference_nearest_indices([t for t, __ in xs], [t for t, __ in ys], max_gap_s)
    return [(xs[i][1], ys[j][1]) for i, j in indices]


def reference_pearson(pairs):
    """Pearson over (x, y) pairs in plain Python with fsum reductions."""
    if len(pairs) < 4:
        return 0.0
    n = len(pairs)
    mean_x = math.fsum(x for x, __ in pairs) / n
    mean_y = math.fsum(y for __, y in pairs) / n
    dxs = [x - mean_x for x, __ in pairs]
    dys = [y - mean_y for __, y in pairs]
    var_x = math.fsum(dx * dx for dx in dxs)
    var_y = math.fsum(dy * dy for dy in dys)
    if var_x <= 1e-12 or var_y <= 1e-12:
        return 0.0
    return math.fsum(dx * dy for dx, dy in zip(dxs, dys)) / math.sqrt(var_x * var_y)


def reference_raw_features(observations):
    """Candidate raw series per observation list: per variable, product
    and full integer, rebuilt from the observations themselves."""
    features = {}
    for obs in observations:
        variables = obs.variables()
        for index, value in enumerate(variables):
            features.setdefault(f"var{index}", []).append((obs.timestamp, float(value)))
        if len(variables) >= 2:
            product = 1.0
            for value in variables:
                product *= value
            features.setdefault("product", []).append((obs.timestamp, product))
        features.setdefault("int", []).append((obs.timestamp, float(obs.as_int())))
    return features


def reference_change_time_score(observations, series, tolerance_s=1.5):
    """Change-time agreement computed from the sample lists."""
    def change_times(points):
        return [t for (t, value), (__, previous) in zip(points[1:], points) if value != previous]

    raw_changes = change_times([(o.timestamp, o.raw_bytes) for o in observations])
    text_changes = change_times([(s.timestamp, s.text) for s in series.samples])
    if not raw_changes or not text_changes:
        return 0.0
    matched = 0
    used = set()
    for t in raw_changes:
        best = None
        for index, u in enumerate(text_changes):
            if index in used or abs(u - t) > tolerance_s:
                continue
            if best is None or abs(u - t) < abs(text_changes[best] - t):
                best = index
        if best is not None:
            used.add(best)
            matched += 1
    return matched / max(len(raw_changes), len(text_changes))


def reference_correlation_score(observations, series):
    y_points = series.values()
    best = 0.0
    for feature in reference_raw_features(observations).values():
        best = max(best, abs(reference_pearson(reference_pair_by_time(feature, y_points))))
    return best


def reference_match_semantics(grouped, ui_series, window=None, min_score=0.35):
    """Semantic matching with every per-window quantity recomputed per pair:
    the window filter of both sides, the raw features and the pairing."""
    def in_window(t):
        return window is None or window[0] <= t <= window[1]

    candidates = []
    for identifier, observations in grouped.items():
        observations = [o for o in observations if in_window(o.timestamp)]
        if len(observations) < 3:
            continue
        for label, series in ui_series.items():
            samples_in = [s for s in series.samples if in_window(s.timestamp)]
            if len(samples_in) < 3:
                continue
            windowed = SampleSeries(label, samples_in)
            if windowed.is_numeric:
                score = reference_correlation_score(observations, windowed)
                method = "correlation"
            else:
                score = reference_change_time_score(observations, windowed)
                method = "change-times"
            if score >= min_score:
                candidates.append((score, identifier, label, method))
    candidates.sort(reverse=True)
    matches = []
    used_identifiers, used_labels = set(), set()
    for score, identifier, label, method in candidates:
        if identifier in used_identifiers or label in used_labels:
            continue
        used_identifiers.add(identifier)
        used_labels.add(label)
        matches.append(SemanticMatch(identifier, label, score, method))
    return matches


# Observations sit on a 0.25 s grid and UI samples on a 0.125 s grid, so a
# UI sample pair straddling an observation is often exactly equidistant.
_OBS_TIMES = st.lists(st.integers(0, 48), min_size=3, max_size=24).map(
    lambda ticks: [t * 0.25 for t in sorted(ticks)]
)
_UI_TIMES = st.lists(st.integers(0, 96), min_size=3, max_size=24).map(
    lambda ticks: [t * 0.125 for t in sorted(ticks)]
)


@st.composite
def observation_series(draw, index):
    times = draw(_OBS_TIMES)
    if draw(st.booleans()):
        # UDS: per-byte variables, with ragged lengths so var0/var1/product
        # miss some observations while "int" covers them all.
        identifier, protocol = f"uds:F4{index:02X}", "uds"
        raws = [bytes(draw(st.lists(st.integers(0, 255), max_size=3))) for __ in times]
    else:
        # KWP: every record carries the two formula variables.
        identifier, protocol = f"kwp:01/{index}", "kwp"
        raws = [bytes(draw(st.lists(st.integers(0, 255), min_size=2, max_size=2))) for __ in times]
    observations = [EsvObservation(protocol, identifier, raw, t) for raw, t in zip(raws, times)]
    return identifier, observations


@st.composite
def label_series(draw, index):
    label = f"Label {index}"
    samples = []
    numeric_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    for t in draw(_UI_TIMES):
        if draw(st.floats(0, 1)) < numeric_share:
            value = float(draw(st.integers(-20, 20)))
            samples.append(UiSample(t, f"{value}", value))
        else:
            samples.append(UiSample(t, draw(st.sampled_from(["Open", "Closed", "On"])), None))
    return label, SampleSeries(label, samples)


@st.composite
def matching_inputs(draw):
    n_ids = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, 4))
    grouped = dict(draw(observation_series(i)) for i in range(n_ids))
    series = dict(draw(label_series(i)) for i in range(n_labels))
    window = None
    if draw(st.booleans()):
        lo = draw(st.integers(-4, 24)) * 0.25
        window = (lo, lo + draw(st.integers(0, 48)) * 0.25)
    return grouped, series, window


def _ties_case():
    # uds:F400 at t = 1.0 .. 3.0 pairs with UI samples straddling every
    # observation at +-0.125 s: each pairing is an exact distance tie.
    observations = obs_list("uds:F400", [10, 20, 35, 40, 60], dt=0.5)
    observations = [
        EsvObservation(o.protocol, o.identifier, o.raw_bytes, o.timestamp + 1.0)
        for o in observations
    ]
    samples = []
    for i, value in enumerate([5, 9, 11, 18, 21, 30, 29, 41, 40, 50]):
        t = 1.0 + (i // 2) * 0.5 + (0.125 if i % 2 else -0.125)
        samples.append(UiSample(t, f"{value}", float(value)))
    return {"uds:F400": observations}, {"Speed": SampleSeries("Speed", samples)}, None


def _window_makes_numeric_case():
    # Numeric readings, then enum text: the whole series is not numeric
    # (6 of 14 samples), but the window keeps only the numeric part, so
    # the label must be scored by correlation, not by change times.
    observations = obs_list("uds:F400", [10, 20, 35, 40, 60, 70])
    samples = [UiSample(i * 0.5, f"{v}", float(v)) for i, v in enumerate([5, 9, 18, 21, 30, 34])]
    samples += [UiSample(3.0 + i * 0.5, "Open", None) for i in range(8)]
    return {"uds:F400": observations}, {"Speed": SampleSeries("Speed", samples)}, (0.0, 2.5)


class TestMatchingAgainstReference:
    """``match_semantics`` hoists per-window work out of the pair loop; it
    must return exactly what the per-pair loop does, scores compared by
    ``==``."""

    @settings(max_examples=300, deadline=None)
    @given(inputs=matching_inputs())
    @example(inputs=_ties_case())
    @example(inputs=_window_makes_numeric_case())
    def test_matches_equal_per_pair_reference(self, inputs):
        grouped, series, window = inputs
        assert match_semantics(*columns_of(grouped, series), window) == (
            reference_match_semantics(grouped, series, window)
        )

    @settings(max_examples=300, deadline=None)
    @given(inputs=matching_inputs())
    @example(inputs=_ties_case())
    def test_correlation_score_equals_per_pair_reference(self, inputs):
        grouped, series, __ = inputs
        columns, labels = columns_of(grouped, series)
        for identifier, observations in grouped.items():
            for label, ui in series.items():
                assert correlation_score(
                    columns[identifier], labels[label]
                ) == reference_correlation_score(observations, ui)

    @settings(max_examples=200, deadline=None)
    @given(inputs=matching_inputs(), min_score=st.sampled_from([-0.5, 0.0, 0.2, 0.35, 0.5, 1.0]))
    @example(inputs=_ties_case(), min_score=0.0)
    def test_change_time_prune_keeps_every_candidate(self, inputs, min_score):
        # Change-time pairs whose flip-count bound is below ``min_score``
        # are never scored; the matches equal the full scorer's at every
        # threshold, zero and negative ones included.
        grouped, series, window = inputs
        assert match_semantics(*columns_of(grouped, series), window, min_score) == (
            reference_match_semantics(grouped, series, window, min_score)
        )

    @settings(max_examples=300, deadline=None)
    @given(inputs=matching_inputs())
    def test_change_time_score_never_exceeds_flip_bound(self, inputs):
        grouped, series, __ = inputs
        columns, labels = columns_of(grouped, series)
        for identifier, observations in grouped.items():
            raw = [b for a, b in zip(observations, observations[1:]) if a.raw_bytes != b.raw_bytes]
            for label, ui in series.items():
                samples = ui.samples
                text = [b for a, b in zip(samples, samples[1:]) if a.text != b.text]
                score = change_time_score(columns[identifier], labels[label])
                assert score == reference_change_time_score(observations, ui)
                bound = min(len(raw), len(text)) / max(len(raw), len(text)) if raw and text else 0.0
                assert score <= bound


# ---------------------------------------------------------- array pairing


@st.composite
def pairing_inputs(draw):
    """Time-sorted points and samples, on a shared grid (exact distance
    ties, duplicate sample timestamps, points outside the sample span) or
    at arbitrary float times."""
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.1, 0.125, 0.25, 0.5]))
        tx = [t * step for t in sorted(draw(st.lists(st.integers(-8, 48), max_size=20)))]
        ty = [t * step for t in sorted(draw(st.lists(st.integers(0, 40), max_size=20)))]
    else:
        times = st.floats(-5.0, 50.0, allow_nan=False)
        tx = sorted(draw(st.lists(times, max_size=20)))
        ty = sorted(draw(st.lists(times, max_size=20)))
    return tx, ty, draw(st.sampled_from([0.0, 0.05, 0.125, 0.5, 1.5, 100.0]))


class TestNearestPairs:
    """:func:`nearest_pairs` is index-exact with the per-sample walk."""

    @settings(max_examples=500, deadline=None)
    @given(inputs=pairing_inputs())
    @example(inputs=([0.5], [0.25, 0.75], 1.5))  # exact tie: the later sample
    @example(inputs=([1.0], [0.5, 1.5, 1.5], 1.5))  # tie, then a duplicate
    @example(inputs=([-3.0, -1.0], [0.0, 0.0, 1.0], 1.5))  # before the first
    @example(inputs=([10.0, 12.0], [0.0, 1.0, 1.0], 100.0))  # after the last
    @example(inputs=([0.0, 2.0, 9.0], [2.0], 1.5))  # one-sample series
    @example(inputs=([1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 3.0], 1.0))  # duplicates on both sides
    # 1 + 2**-51 and 1 + 3 * 2**-52 are equally far from 2**-53 once
    # rounded, so the walk steps to the later one, and stays there for
    # 2**-52, from which the earlier one is strictly nearer.
    @example(inputs=([2.0**-53, 2.0**-52], [1 + 2.0**-51, 1 + 3 * 2.0**-52], 100.0))
    def test_equals_walk(self, inputs):
        tx, ty, gap = inputs
        ix, iy = nearest_pairs(tx, ty, gap)
        assert list(zip(ix.tolist(), iy.tolist())) == reference_nearest_indices(tx, ty, gap)

    def test_empty_sides(self):
        for tx, ty in (([], [1.0]), ([1.0], []), ([], [])):
            ix, iy = nearest_pairs(tx, ty, 1.5)
            assert ix.tolist() == iy.tolist() == []


# Recorded under Python 3.11; a plain-Python replica of the same fsum
# reductions gives it on 3.9, 3.11, 3.12 and 3.13, where the builtin-sum
# form of these scores differed between 3.11 and 3.12.
PEARSON_DIGEST = "46660dc8591a48f472e954367786b7756c0f2bb3f193e67d4dc4b84b049f4c4c"


def pearson_inputs():
    rng = random.Random(2023)
    for __ in range(300):
        n = rng.randint(2, 80)
        slope = rng.uniform(-50, 50)
        offset = rng.uniform(-1e4, 1e4)
        xs = [float(rng.randint(0, 0xFFFF)) for __ in range(n)]
        ys = [round(slope * x + offset + rng.gauss(0, 1 + abs(slope) * 100), 1) for x in xs]
        yield xs, ys


class TestPearson:
    def test_digest_is_version_independent(self):
        scores = [repr(pearson(xs, ys)) for xs, ys in pearson_inputs()]
        assert hashlib.sha256("\n".join(scores).encode()).hexdigest() == PEARSON_DIGEST

    def test_equals_plain_python_fsum(self):
        for xs, ys in pearson_inputs():
            assert pearson(xs, ys) == reference_pearson(list(zip(xs, ys)))

    def test_rows_score_like_single_series(self):
        for xs, ys in pearson_inputs():
            rows = np.array([xs, [x * x for x in xs], ys])
            labels = np.array([ys, [-y for y in ys]])
            assert pearson(rows, ys) == [pearson(row, ys) for row in rows]
            assert pearson(xs, labels) == [pearson(xs, label) for label in labels]
            assert pearson(rows, labels) == [
                [pearson(row, label) for label in labels] for row in rows
            ]

    def test_degenerate_inputs_score_zero(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0  # below four
        assert pearson([5.0] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == 0.0  # constant
        assert pearson(np.zeros((2, 3)), [1.0, 2.0, 3.0]) == [0.0, 0.0]
