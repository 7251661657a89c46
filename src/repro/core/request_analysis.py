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

Everything a score needs is laid out once per analysis as time-sorted
columns (:class:`ColumnView`): per identifier its timestamps, raw features
and raw-flip flags, per label its timestamps, numeric-sample counts,
values and text-flip flags.  A time window is then a slice of each
column, found by bisection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .fields import EsvColumns
from .pairing import nearest_pairs, pearson
from .screenshot import UiSeries

Window = Optional[Tuple[float, float]]


@dataclass(frozen=True)
class SemanticMatch:
    """One identifier ↔ UI-label association."""

    identifier: str
    label: str
    score: float
    method: str  # "correlation" | "change-times"


def _window_bounds(times: List[float], window: Window) -> Tuple[int, int]:
    """The slice of sorted ``times`` inside the closed ``window``."""
    if window is None:
        return 0, len(times)
    return bisect_left(times, window[0]), bisect_right(times, window[1])


def _flips(changed: np.ndarray, n: int) -> Tuple[np.ndarray, List[int]]:
    """Flags of the ``n`` values that differ from their predecessor, given
    ``changed[i]``: value ``i + 1`` differs from value ``i``; and their
    running count: ``counts[i]`` flips among the first ``i`` values."""
    flags = np.zeros(n, dtype=bool)
    flags[1:] = changed
    return flags, [0] + np.cumsum(flags).tolist()


def _window_flips(
    t: np.ndarray, flips: Tuple[np.ndarray, List[int]], start: int, stop: int
) -> Tuple[int, np.ndarray]:
    """Count and times of the flips in ``[start, stop)``: changes from the
    previous value inside the window, so its first value never counts."""
    flags, counts = flips
    first = min(start + 1, stop)
    return counts[stop] - counts[first], t[first:stop][flags[first:stop]]


class _IdentifierColumns:
    """One identifier's raw features and flips.

    Raw features: ``var<i>`` per variable, ``product`` of the variables
    when there are at least two, and ``int``, the big-endian integer.  A
    feature present in every value is a row of ``full``; one missing from
    some (responses of ragged length) keeps its own timestamps.
    """

    def __init__(self, observations: EsvColumns) -> None:
        self.t = observations.times
        self.times = self.t.tolist()
        #: Ragged features: (timestamps, time column, value column).
        self.ragged: List[Tuple[List[float], np.ndarray, np.ndarray]] = []
        #: Each feature's slot in the score list (full rows, then ragged),
        #: in feature order.
        self.order: List[int] = []
        raw = observations.raw
        if observations.ragged:
            self._ragged_features(observations)
            changed = np.array([a != b for a, b in zip(raw[1:], raw)], dtype=bool)
        else:
            # Every response has the same length: the variables are the
            # columns of the byte matrix.
            rows = [column.astype(float) for column in raw.T]
            if len(rows) >= 2:
                product = rows[0].copy()
                for column in rows[1:]:
                    product *= column
                rows.append(product)
            rows.append(observations.int_features())
            self.order = list(range(len(rows)))
            self.full = np.array(rows).reshape(len(rows), len(raw))
            changed = (raw[1:] != raw[:-1]).any(axis=1)
        self.flips = _flips(changed, len(observations))

    def _ragged_features(self, observations: EsvColumns) -> None:
        features: Dict[str, Tuple[List[int], List[float]]] = {}

        def add(name: str, index: int, value: float) -> None:
            positions, values = features.setdefault(name, ([], []))
            positions.append(index)
            values.append(value)

        ints = observations.as_ints()
        for index, variables in enumerate(observations.variables()):
            for position, value in enumerate(variables):
                add(f"var{position}", index, float(value))
            if len(variables) >= 2:
                product = 1.0
                for value in variables:
                    product *= value
                add("product", index, product)
            add("int", index, float(ints[index]))
        full: List[List[float]] = []
        n_full = sum(len(p) == len(observations) for p, __ in features.values())
        for positions, values in features.values():
            if len(positions) == len(observations):
                self.order.append(len(full))
                full.append(values)
            else:
                self.order.append(n_full + len(self.ragged))
                times = [self.times[i] for i in positions]
                self.ragged.append((times, np.array(times), np.array(values)))
        self.full = np.array(full, dtype=float).reshape(len(full), len(observations))

    def window(self, window: Window) -> "_IdentifierWindow":
        return _IdentifierWindow(self, *_window_bounds(self.times, window), window)


class _IdentifierWindow:
    """An identifier's columns sliced to one window."""

    def __init__(
        self, columns: _IdentifierColumns, start: int, stop: int, window: Window
    ) -> None:
        self.size = stop - start
        self.t = columns.t[start:stop]
        self.full = columns.full[:, start:stop]
        self.ragged = []
        for times, t, values in columns.ragged:
            lo, hi = _window_bounds(times, window)
            self.ragged.append((t[lo:hi], values[lo:hi]))
        self.order = columns.order
        self.n_flips, self.flip_times = _window_flips(columns.t, columns.flips, start, stop)

    def correlations(
        self, ty: np.ndarray, values: np.ndarray, max_gap_s: float
    ) -> List[float]:
        """Best |Pearson correlation| of any raw feature with each row of
        ``values``, label series sampled at the times ``ty``.  Pairing
        reads timestamps only, so all full features and all those labels
        share one."""
        ix, iy = nearest_pairs(self.t, ty, max_gap_s)
        scores = pearson(self.full[:, ix], values[:, iy])
        for t, feature in self.ragged:
            ix, iy = nearest_pairs(t, ty, max_gap_s)
            scores.append(pearson(feature[ix], values[:, iy]))
        best = [0.0] * len(values)
        for slot in self.order:
            best = [max(b, abs(score)) for b, score in zip(best, scores[slot])]
        return best


class _LabelColumns:
    """One label's readings: running numeric counts, numeric columns and
    text flips."""

    def __init__(self, series: UiSeries) -> None:
        self.t = series.times
        self.times = self.t.tolist()
        self.numeric_counts = [0] + np.cumsum(series.numeric).tolist()
        self.numeric_t = series.numeric_times
        self.values = series.numeric_values
        self.flips = _flips(series.texts[1:] != series.texts[:-1], len(series))

    def window(self, window: Window) -> "_LabelWindow":
        return _LabelWindow(self, *_window_bounds(self.times, window))


class _LabelWindow:
    """A label's columns sliced to one window."""

    def __init__(self, columns: _LabelColumns, start: int, stop: int) -> None:
        self.size = stop - start
        lo, hi = columns.numeric_counts[start], columns.numeric_counts[stop]
        self.is_numeric = hi - lo >= max(3, self.size // 2)  # UiSeries.is_numeric
        self.t = columns.numeric_t[lo:hi]
        self.values = columns.values[lo:hi]
        self.n_flips, self.flip_times = _window_flips(columns.t, columns.flips, start, stop)


def _change_agreement(
    raw_changes: Sequence[float], text_changes: Sequence[float], tolerance_s: float
) -> float:
    """Greedy one-to-one matching of raw flips to the nearest unused text
    flip within ``tolerance_s``; matched / max(flip counts)."""
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


class ColumnView:
    """Semantic-matching columns of one analysis, built once and sliced
    per time window.

    ``grouped`` columns and ``ui_series`` readings must each be sorted by
    time, as field extraction and screenshot analysis emit them.
    """

    def __init__(
        self, grouped: Dict[str, EsvColumns], ui_series: Dict[str, UiSeries]
    ) -> None:
        self.identifiers = {key: _IdentifierColumns(obs) for key, obs in grouped.items()}
        self.labels = {key: _LabelColumns(series) for key, series in ui_series.items()}

    def match(
        self,
        window: Window = None,
        min_score: float = 0.35,
        skip_identifiers: Iterable[str] = (),
        skip_labels: Iterable[str] = (),
    ) -> List[SemanticMatch]:
        """Greedy max-score assignment inside one time window.

        Compute all pair scores, then repeatedly take the highest-scoring
        unassigned (identifier, label) pair.  A change-time score is
        matched flips over max(R, T), R raw and T text flips, so it never
        exceeds min(R, T) / max(R, T); pairs whose bound is below
        ``min_score`` are not scored.
        """
        skip_identifiers = set(skip_identifiers)
        skip_labels = set(skip_labels)
        # Numeric labels sampled at the same times form one group, scored
        # through one pairing; the other labels are scored by change times.
        groups: Dict[bytes, Tuple[np.ndarray, List[str], List[np.ndarray]]] = {}
        enums: List[Tuple[str, _LabelWindow]] = []
        for label, columns in self.labels.items():
            if label in skip_labels:
                continue
            view = columns.window(window)
            if view.size < 3:
                continue
            if view.is_numeric:
                __, names, values = groups.setdefault(view.t.tobytes(), (view.t, [], []))
                names.append(label)
                values.append(view.values)
            else:
                enums.append((label, view))
        numeric = [(t, names, np.array(values)) for t, names, values in groups.values()]

        candidates: List[Tuple[float, str, str, str]] = []
        for identifier, columns in self.identifiers.items():
            if identifier in skip_identifiers:
                continue
            observed = columns.window(window)
            if observed.size < 3:
                continue
            for t, names, values in numeric:
                for label, score in zip(names, observed.correlations(t, values, 1.5)):
                    if score >= min_score:
                        candidates.append((score, identifier, label, "correlation"))
            for label, view in enums:
                raw, text = observed.n_flips, view.n_flips
                if (min(raw, text) / max(raw, text) if raw and text else 0.0) < min_score:
                    continue
                score = _change_agreement(
                    observed.flip_times.tolist(), view.flip_times.tolist(), 1.5
                )
                if score >= min_score:
                    candidates.append((score, identifier, label, "change-times"))

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


def correlation_score(
    observations: EsvColumns, series: UiSeries, max_gap_s: float = 1.5
) -> float:
    """Best |Pearson correlation| between any raw feature and the UI series."""
    label = _LabelColumns(series)
    return _IdentifierColumns(observations).window(None).correlations(
        label.numeric_t, label.values.reshape(1, -1), max_gap_s
    )[0]


def change_time_score(
    observations: EsvColumns, series: UiSeries, tolerance_s: float = 1.5
) -> float:
    """Jaccard-style agreement between raw flips and displayed-text flips."""
    return _change_agreement(
        _IdentifierColumns(observations).window(None).flip_times.tolist(),
        _LabelColumns(series).window(None).flip_times.tolist(),
        tolerance_s,
    )


def match_semantics(
    grouped: Dict[str, EsvColumns],
    ui_series: Dict[str, UiSeries],
    window: Optional[Tuple[float, float]] = None,
    min_score: float = 0.35,
) -> List[SemanticMatch]:
    """Associate identifiers with labels inside one time window
    (see :meth:`ColumnView.match`)."""
    return ColumnView(grouped, ui_series).match(window, min_score)
