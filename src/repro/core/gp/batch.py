"""The batched fitness math of the GP engine.

:meth:`~repro.core.gp.engine.GeneticProgrammer.fit` executes every
distinct program of a generation once and scores the (P×N) prediction
matrix here in one call: Keijzer linear scaling, trimming of the worst
residuals and the inlier refit, vectorised over population rows.  Each
row's fitness is bit-equal to a one-row call on that row alone.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Fraction of worst residuals excluded by the trimmed fitness
#: (:class:`~repro.core.gp.engine.GeneticProgrammer` re-exports this as
#: ``TRIM_FRACTION`` for back-compat).
TRIM_FRACTION = 0.08


def batched_maes(
    F: np.ndarray,
    y: np.ndarray,
    linear_scaling: bool,
    trim_fraction: float = TRIM_FRACTION,
) -> np.ndarray:
    """The per-tree fitness math, vectorised over population rows.

    Fitness is the mean absolute error after the tree's optimal linear
    scaling ``a*f(X)+b`` (Keijzer 2003; off with ``linear_scaling=False``)
    with the worst ``trim_fraction`` of residuals excluded, first from a
    refit of the scaling and then from the mean, so OCR outliers that
    survived the §3.3 filter cannot reward clip-shaped trees.  Element-wise
    steps run in a fixed order, order-sensitive reductions (means, sorts)
    use numpy's per-row kernels, and the two least-squares dot products go
    through one 1-D BLAS call per row — so each row's fitness is bit-equal
    to a one-row call on that row alone.  ``y`` is the (N,) target every
    row is scored against.
    """
    n = F.shape[1]
    n_trim = int(np.ceil(n * trim_fraction)) if n >= 10 else 0
    keep = n - n_trim
    with np.errstate(all="ignore"):
        finite_rows = np.isfinite(F).all(axis=1)
        if not linear_scaling:
            E = np.abs(F - y)
            valid = finite_rows & np.isfinite(E).all(axis=1)
            if n_trim:
                E.sort(axis=1)
                maes = np.ascontiguousarray(E[:, :keep]).mean(axis=1)
            else:
                maes = E.mean(axis=1)
            maes[~valid] = np.inf
            return maes

        y_mean = y.mean()
        y_centred = y - y_mean
        a, b = batched_linear_fit(F, y_centred, y_mean, finite_rows)
        # In-place chain, same operation order as the per-tree
        # ``abs(a*f + b - y)`` expression.
        E1 = a[:, None] * F
        E1 += b[:, None]
        E1 -= y
        np.abs(E1, out=E1)
        valid = finite_rows & np.isfinite(E1).all(axis=1)
        if not n_trim:
            maes = E1.mean(axis=1)
            maes[~valid] = np.inf
            return maes

        inliers = np.argsort(E1, axis=1)[:, :keep]
        f_fit = np.take_along_axis(F, inliers, axis=1)
        y_fit = y[inliers]
        y_mean2 = y_fit.mean(axis=1)
        y_centred2 = y_fit - y_mean2[:, None]
        a2, b2 = batched_linear_fit(f_fit, y_centred2, y_mean2, valid)
        E2 = a2[:, None] * F
        E2 += b2[:, None]
        E2 -= y
        np.abs(E2, out=E2)
        refit_ok = np.isfinite(E2).all(axis=1)
        E = np.where(refit_ok[:, None], E2, E1)
        E.sort(axis=1)
        maes = np.ascontiguousarray(E[:, :keep]).mean(axis=1)
        maes[~valid] = np.inf
        return maes


def batched_linear_fit(
    f_fit: np.ndarray,
    y_centred: np.ndarray,
    y_mean,
    rows_mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise ``a*f+b`` least squares, dot products via 1-D BLAS.

    ``y_centred`` is shared (1-D) for the full-dataset fit and per-row
    (2-D) for the inlier refit; ``y_mean`` likewise scalar or vector.  A
    row where the variance vanishes gets ``a=0, b=y_mean`` — exactly the
    constant-tree branch of the scalar path, since ``|0*f + y_mean - y|``
    equals ``|y_mean - y|``.
    """
    f_mean = f_fit.mean(axis=1)
    centred = f_fit - f_mean[:, None]
    shared = y_centred.ndim == 1
    dot = np.dot
    nan = np.nan
    variance_rows: List[float] = []
    a_num_rows: List[float] = []
    append_var = variance_rows.append
    append_num = a_num_rows.append
    if shared:
        for row, ok in zip(centred, rows_mask.tolist()):
            if ok:
                append_var(dot(row, row))
                append_num(dot(row, y_centred))
            else:  # row already doomed to inf; skip the BLAS calls
                append_var(nan)
                append_num(nan)
    else:
        for row, y_row, ok in zip(centred, y_centred, rows_mask.tolist()):
            if ok:
                append_var(dot(row, row))
                append_num(dot(row, y_row))
            else:
                append_var(nan)
                append_num(nan)
    variance = np.array(variance_rows)
    a_num = np.array(a_num_rows)
    const = variance < 1e-12  # NaN compares False: stays on the a-path
    a = np.where(const, 0.0, a_num / np.where(const, 1.0, variance))
    b = y_mean - a * f_mean
    return a, b
