"""Request-message analysis (§3.4): semantic matching.

The DID / local-identifier values in request messages are manufacturer
defined; their *meaning* is recovered by associating them with the text
shown on the tool's UI while they were being read.

Matching works per capture segment (one live-data session):

* **numeric ESVs** — each raw series (per identifier) is correlated against
  each on-screen value series after nearest-timestamp pairing; identifiers
  and labels are greedily assigned by descending absolute correlation.
  Correlation is computed over several raw *features* (each variable, the
  variable product, and the big-endian integer) because the raw-to-physical
  formula is still unknown at this point.
* **enum ESVs** — state labels ("Open"/"Closed") carry no numbers, so
  identifiers are matched by *change-time agreement*: the times the raw
  value flips should coincide with the times the displayed text flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import EsvObservation
from .screenshot import UiSeries


@dataclass(frozen=True)
class SemanticMatch:
    """One identifier ↔ UI-label association."""

    identifier: str
    label: str
    score: float
    method: str  # "correlation" | "change-times"


def _nearest_indices(
    xs: Sequence[Tuple[float, float]],
    ys: Sequence[Tuple[float, float]],
    max_gap_s: float = 1.5,
) -> List[Tuple[int, int]]:
    """Nearest-timestamp pairing of two (t, value) series, as index pairs
    ``(x index, y index)``; a point with no y within ``max_gap_s`` is left
    out.  The pairing reads timestamps only, so every series sampled at the
    same times as ``xs`` pairs through the same indices.
    """
    indices: List[Tuple[int, int]] = []
    if not xs or not ys:
        return indices
    y_index = 0
    for x_index, (t, __) in enumerate(xs):
        while y_index + 1 < len(ys) and abs(ys[y_index + 1][0] - t) <= abs(ys[y_index][0] - t):
            y_index += 1
        if abs(ys[y_index][0] - t) <= max_gap_s:
            indices.append((x_index, y_index))
    return indices


def _pearson(pairs: Sequence[Tuple[float, float]]) -> float:
    if len(pairs) < 4:
        return 0.0
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 1e-12 or var_y <= 1e-12:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def _raw_features(
    observations: Sequence[EsvObservation],
) -> Dict[str, List[Tuple[float, float]]]:
    """Candidate raw time series: per variable, product, and full integer."""
    features: Dict[str, List[Tuple[float, float]]] = {}
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


def _best_correlation(
    features: Dict[str, List[Tuple[float, float]]],
    n_observations: int,
    y_points: Sequence[Tuple[float, float]],
    max_gap_s: float = 1.5,
) -> float:
    """Best |Pearson correlation| between any raw feature and ``y_points``.

    A feature with a point for every observation is sampled at the
    observations' own timestamps, so all such features share one pairing;
    a ragged one (bytes missing from some responses) pairs on its own.
    """
    shared: Optional[List[Tuple[int, int]]] = None
    best = 0.0
    for feature in features.values():
        if len(feature) < n_observations:
            indices = _nearest_indices(feature, y_points, max_gap_s)
        else:
            if shared is None:
                shared = _nearest_indices(feature, y_points, max_gap_s)
            indices = shared
        pairs = [(feature[i][1], y_points[j][1]) for i, j in indices]
        best = max(best, abs(_pearson(pairs)))
    return best


def correlation_score(
    observations: Sequence[EsvObservation], series: UiSeries, max_gap_s: float = 1.5
) -> float:
    """Best |Pearson correlation| between any raw feature and the UI series."""
    return _best_correlation(
        _raw_features(observations), len(observations), series.values(), max_gap_s
    )


# ----------------------------------------------------------------- enum match


def _change_times(points: Sequence[Tuple[float, object]]) -> List[float]:
    times: List[float] = []
    previous: Optional[object] = None
    for t, value in points:
        if previous is not None and value != previous:
            times.append(t)
        previous = value
    return times


def change_time_score(
    observations: Sequence[EsvObservation], series: UiSeries, tolerance_s: float = 1.5
) -> float:
    """Jaccard-style agreement between raw flips and displayed-text flips."""
    raw_changes = _change_times([(o.timestamp, o.raw_bytes) for o in observations])
    text_changes = _change_times([(s.timestamp, s.text) for s in series.samples])
    if not raw_changes or not text_changes:
        return 0.0
    matched = 0
    used: set = set()
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


# -------------------------------------------------------------- greedy match


def match_semantics(
    grouped: Dict[str, List[EsvObservation]],
    ui_series: Dict[str, UiSeries],
    window: Optional[Tuple[float, float]] = None,
    min_score: float = 0.35,
) -> List[SemanticMatch]:
    """Associate identifiers with labels inside one time window.

    Greedy max-score assignment: compute all pair scores, then repeatedly
    take the highest-scoring unassigned (identifier, label) pair.  What a
    score needs from one side only — the windowed samples and points of a
    label, the windowed observations and raw features of an identifier —
    is computed once per window, not once per pair.
    """
    def in_window(t: float) -> bool:
        return window is None or window[0] <= t <= window[1]

    # Per label in the window: its samples and, when numeric, its (t, value) points.
    labels: List[Tuple[str, UiSeries, Optional[List[Tuple[float, float]]]]] = []
    for label, series in ui_series.items():
        samples_in = [s for s in series.samples if in_window(s.timestamp)]
        if len(samples_in) < 3:
            continue
        windowed = UiSeries(label, samples_in)
        labels.append((label, windowed, windowed.values() if windowed.is_numeric else None))

    candidates: List[Tuple[float, str, str, str]] = []
    for identifier, observations in grouped.items():
        observations = [o for o in observations if in_window(o.timestamp)]
        if len(observations) < 3:
            continue
        features = _raw_features(observations)
        for label, windowed, y_points in labels:
            if y_points is not None:
                score = _best_correlation(features, len(observations), y_points)
                method = "correlation"
            else:
                score = change_time_score(observations, windowed)
                method = "change-times"
            if score >= min_score:
                candidates.append((score, identifier, label, method))

    candidates.sort(reverse=True)
    matches: List[SemanticMatch] = []
    used_identifiers: set = set()
    used_labels: set = set()
    for score, identifier, label, method in candidates:
        if identifier in used_identifiers or label in used_labels:
            continue
        used_identifiers.add(identifier)
        used_labels.add(label)
        matches.append(SemanticMatch(identifier, label, score, method))
    return matches
