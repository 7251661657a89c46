"""Nearest-time pairing and Pearson correlation over sample arrays.

Every analysis step that joins traffic with the UI video — semantic
matching (§3.4), dataset construction (§3.5), enum state voting and the
LibreCAN baseline — pairs each raw observation with the UI sample nearest
in time and then correlates or regresses on the pairs.  Both steps live
here, once, over arrays.

Pairing rule (:func:`nearest_pairs`), for time-sorted inputs: take the
last sample at or before ``t`` (the first sample when none is), step right
while the next sample is at least as close, which also carries the choice
through samples with equal timestamps, and keep the pair when the chosen
sample is within ``max_gap_s``.  These are the indices the per-sample
two-pointer walk the analysis used before produced.  Both inputs must be
sorted; assembly emits messages by ``t_last`` and
:func:`~repro.core.screenshot.extract_ui_series` sorts every series, so
the pipeline's inputs are.

:func:`pearson` reduces with :func:`math.fsum`, which is correctly rounded,
so a correlation does not depend on the Python version (the builtin
``sum()`` of floats became compensated in 3.12) nor on a numpy summation
order.  The elementwise steps are single IEEE operations, bit-identical
in numpy and in plain Python.

:func:`strongest_correlations` gives each label the best |:func:`pearson`|
of any feature, exact only where it decides: one matrix product
approximates every pair, and the fsum reductions run only for the pairs
that can be a label's best at or above the matching floor.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

_NO_PAIRS = np.zeros(0, dtype=np.intp)


def nearest_pairs(
    tx: Sequence[float], ty: Sequence[float], max_gap_s: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(ix, iy)``: point ``ix[k]`` of ``tx`` pairs with its
    nearest sample ``iy[k]`` of ``ty``; points farther than ``max_gap_s``
    from every sample are left out.  Both inputs must be sorted ascending.
    """
    tx = np.asarray(tx, dtype=float)
    ty = np.asarray(ty, dtype=float)
    if not len(tx) or not len(ty):
        return _NO_PAIRS, _NO_PAIRS
    last = len(ty) - 1
    index = np.searchsorted(ty, tx, side="right") - 1
    np.maximum(index, 0, out=index)
    distance = np.abs(ty[index] - tx)
    while True:
        following = np.minimum(index + 1, last)
        step = (index < last) & (np.abs(ty[following] - tx) <= distance)
        if not step.any():
            break
        # The running maximum keeps the choice monotone in tx, as the walk's
        # single forward pointer is.  It matters only when rounding makes
        # two distinct timestamps equally far from one point but not from a
        # later one: the walk has already stepped past the nearer of them.
        index = np.maximum.accumulate(np.where(step, following, index))
        distance = np.abs(ty[index] - tx)
    keep = distance <= max_gap_s
    return np.flatnonzero(keep), index[keep]


def pearson(
    xs: Union[Sequence[float], np.ndarray], ys: Union[Sequence[float], np.ndarray]
) -> Union[float, List[float], List[List[float]]]:
    """Pearson correlation of paired samples ``xs`` and ``ys``: 0.0 below
    four pairs or when either side's squared deviations sum to at most
    1e-12.

    Either side may be 2-D, one series per row (all rows share the
    pairing); the result then has one entry per row, a list of lists
    (rows of ``xs`` by rows of ``ys``) when both are.  Each series' mean
    and variance are reduced once however many it is correlated with.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    x_rows, y_rows = np.atleast_2d(x), np.atleast_2d(y)
    if y_rows.shape[1] < 4:
        scores = [[0.0] * len(y_rows) for __ in x_rows]
    else:
        dx, var_x = _deviations(x_rows)
        dy, var_y = _deviations(y_rows)
        products = (dx[:, None, :] * dy[None, :, :]).tolist()
        scores = [
            [
                0.0 if vx <= 1e-12 or vy <= 1e-12 else math.fsum(p) / math.sqrt(vx * vy)
                for p, vy in zip(row, var_y)
            ]
            for row, vx in zip(products, var_x)
        ]
    if y.ndim == 1:
        scores = [row[0] for row in scores]
    return scores if x.ndim == 2 else scores[0]


def _deviations(rows: np.ndarray) -> Tuple[np.ndarray, List[float]]:
    """Each row's deviations from its mean, and their sum of squares."""
    deviations = _centred(rows)
    return deviations, [math.fsum(row) for row in (deviations * deviations).tolist()]


def _centred(rows: np.ndarray) -> np.ndarray:
    """Each row's deviations from its fsum mean."""
    n = rows.shape[1]
    means = [math.fsum(row) / n for row in rows.tolist()]
    return rows - np.array(means).reshape(-1, 1)


def strongest_correlations(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]], floor: float
) -> List[float]:
    """Each label's largest |Pearson correlation| with any feature.

    ``parts`` are ``(features, labels)`` pairs of 2-D arrays, one series
    per row, paired along the columns; every part holds the same labels in
    the same order, and features that need a pairing of their own come in
    a part of their own.  Entry ``j`` equals ``max(0.0, |pearson(f, j)|
    for every feature f)`` by ``==`` wherever that reaches ``floor``, and
    is below ``floor`` otherwise.

    One matrix product over a part's deviation rows approximates every
    pair's |r| to within :func:`_margin` of the fsum score.  The fsum
    covariance and variances then run only for the pairs whose
    approximation is within the margin of ``floor`` and within twice the
    margin of the label's best approximation: the exact best pair is
    always among them.  A variance near :func:`pearson`'s 1e-12 cut is
    decided exactly, and a part whose deviations are not finite or are
    large enough to overflow a product is scored by :func:`pearson`.
    """
    best = [0.0] * len(parts[0][1])
    pending: List[Tuple[float, _PartScorer, int, int]] = []
    margin = 0.0
    for x, y in parts:
        if y.shape[1] < 4:
            continue  # pearson scores every pair 0.0
        scorer = _PartScorer(x, y)
        if scorer.approx is None:
            for row in pearson(x, y):
                best = [max(b, abs(score)) for b, score in zip(best, row)]
            continue
        margin = max(margin, scorer.margin)
        pending.extend((a, scorer, i, j) for i, j, a in scorer.approx)
    top = [-math.inf] * len(best)
    for a, __, __, j in pending:
        top[j] = max(top[j], a)
    for a, scorer, i, j in pending:
        if a >= floor - margin and a >= top[j] - 2.0 * margin:
            best[j] = max(best[j], abs(scorer.exact(i, j)))
    return best


def _margin(n: int) -> float:
    """A bound on |approximate |r| - fsum |r|| for ``n`` pairs.

    A length-n dot product in any order errs by at most about
    ``n * 2**-53 * sum(|dx * dy|)``, and Cauchy-Schwarz bounds that sum by
    ``sqrt(sum(dx**2) * sum(dy**2))``.  So the approximate covariance over
    the root of the variances errs by about ``n * 2**-53`` in |r|, each
    approximate variance by about ``n * 2**-53`` of itself (a sum of
    non-negative terms), and the fsum score carries a few roundings of
    its own: ``(2n + 11) * 2**-53`` in all.  This is twice that.
    """
    return 4.0 * (n + 6) * 2.0**-53


#: Sums of squared deviations above this may overflow a product; such
#: parts are scored by :func:`pearson` itself.
_LARGEST_VARIANCE = 1e150


class _PartScorer:
    """One part's approximate |r| for every pair that can score above 0.0,
    and the exact score of any such pair on demand.

    ``approx`` lists ``(feature, label, |r|)``, leaving out the pairs with
    a variance at or below :func:`pearson`'s 1e-12 cut, which score
    exactly 0.0; it is None when a variance is not finite or above
    :data:`_LARGEST_VARIANCE`.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.margin = _margin(y.shape[1])
        #: Deviation rows: the features, then the labels.
        self.rows = _centred(np.concatenate((x, y)))
        self.n_features = len(x)
        self._exact: Dict[int, float] = {}
        self.approx = None
        variances = self._variances()
        if variances is None:
            return
        var_x, var_y = variances[: len(x)], variances[len(x) :]
        products = (self.rows[: len(x)] @ self.rows[len(x) :].T).tolist()
        self.approx = [
            (i, j, abs(c) / math.sqrt(vx * vy))
            for i, (row, vx) in enumerate(zip(products, var_x))
            if vx
            for j, (c, vy) in enumerate(zip(row, var_y))
            if vy
        ]

    def _variances(self) -> Optional[List[float]]:
        """Approximate sums of squares, 0.0 for a row whose fsum value is
        at or below the cut; None outside the safe range.  A row near the
        cut gets its fsum value."""
        variances = np.einsum("ij,ij->i", self.rows, self.rows).tolist()
        cut = 1e-12 * (1.0 + self.margin)
        for i, value in enumerate(variances):
            if not value <= _LARGEST_VARIANCE:  # NaN too
                return None
            if value <= cut:
                value = self._sum_of_squares(i)
                variances[i] = value if value > 1e-12 else 0.0
        return variances

    def _sum_of_squares(self, row: int) -> float:
        """The fsum sum of squares of one deviation row, computed once."""
        value = self._exact.get(row)
        if value is None:
            deviations = self.rows[row]
            value = self._exact[row] = math.fsum((deviations * deviations).tolist())
        return value

    def exact(self, i: int, j: int) -> float:
        """:func:`pearson` of feature ``i`` with label ``j``."""
        j += self.n_features
        covariance = math.fsum((self.rows[i] * self.rows[j]).tolist())
        return covariance / math.sqrt(self._sum_of_squares(i) * self._sum_of_squares(j))
