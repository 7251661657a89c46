"""The linear backend's candidate fit as it was written over sample rows.

The oracle :mod:`repro.core.inference` must equal bit for bit: it builds
each candidate's design matrix from the row tuples, takes the MAD from
``np.median`` and evaluates every digit count of the rounding ladder.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.inference import LinearFormula, _columns, _term_column

_MIN_SAMPLES = 6


def design_matrix(
    terms: Tuple[str, ...], x_rows: Sequence[Tuple[float, ...]]
) -> Optional[np.ndarray]:
    columns = _columns(x_rows)
    matrix = np.column_stack([_term_column(term, columns, len(x_rows)) for term in terms])
    if not np.isfinite(matrix).all():
        return None
    return matrix


def solve(matrix: np.ndarray, y: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    coeffs, __, rank, __ = np.linalg.lstsq(matrix, y, rcond=None)
    if rank < matrix.shape[1]:
        return None
    residuals = np.abs(matrix @ coeffs - y)
    return coeffs, residuals


def round_coefficients(
    coeffs: np.ndarray, matrix: np.ndarray, y: np.ndarray, target_mae: float
) -> np.ndarray:
    for digits in range(2, 13):
        rounded = np.array([float(f"{c:.{digits}g}") if c != 0.0 else 0.0 for c in coeffs])
        mae = float(np.mean(np.abs(matrix @ rounded - y)))
        if mae <= target_mae * 1.0001 + 1e-12:
            return rounded
    return coeffs


def fit_candidate(
    terms: Tuple[str, ...],
    x_rows: Sequence[Tuple[float, ...]],
    y_values: Sequence[float],
    y_factor: float,
) -> Optional[Tuple[LinearFormula, float]]:
    """``(formula, scaled_mae)`` of one dictionary candidate, or None."""
    matrix = design_matrix(terms, x_rows)
    if matrix is None:
        return None
    y = np.asarray(y_values, dtype=float)
    solved = solve(matrix, y)
    if solved is None:
        return None
    coeffs, residuals = solved
    for __ in range(5):
        mad = float(np.median(residuals))
        threshold = max(6.0 * 1.4826 * mad, 1e-6)
        keep = residuals <= threshold
        if int(keep.sum()) < _MIN_SAMPLES or int(keep.sum()) == len(y):
            break
        refit = solve(matrix[keep], y[keep])
        if refit is None:
            break
        matrix, y = matrix[keep], y[keep]
        coeffs, residuals = refit
    mae = float(residuals.mean())
    coeffs = round_coefficients(coeffs, matrix, y, mae)
    mae = float(np.mean(np.abs(matrix @ coeffs - y)))
    arity = len(x_rows[0]) if x_rows else 0
    return LinearFormula(terms, coeffs, arity=arity), mae * y_factor
