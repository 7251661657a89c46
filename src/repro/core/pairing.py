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
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, Union

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
    n = rows.shape[1]
    means = [math.fsum(row) / n for row in rows.tolist()]
    deviations = rows - np.array(means).reshape(-1, 1)
    return deviations, [math.fsum(row) for row in (deviations * deviations).tolist()]
