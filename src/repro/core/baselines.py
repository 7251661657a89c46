"""Baseline formula-inference algorithms (§4.4).

LibreCAN-style alternatives to genetic programming:

* **linear regression** — ``Y = β0*X0 + β1*X1 + β2`` by least squares;
  can only represent linear relations, so products and quadratics are
  structurally out of reach;
* **polynomial curve fitting** — degree-2 with cross terms
  (``1, Xi, Xi², Xi*Xj``); can represent products but, fitted with L2 on
  noisy data, tends to smear weight across all six terms (the paper's
  Engine-Speed example).

Both return the same :class:`InferredFormula` record as GP so the
verification and benches treat all three algorithms uniformly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..formulas import ExpressionFormula
from .response_analysis import InferredFormula, PairedDataset


def _design_linear(x: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    n, k = x.shape
    columns = [x[:, i] for i in range(k)] + [np.ones(n)]
    names = [f"X{i}" for i in range(k)] + ["1"]
    return np.stack(columns, axis=1), names


def _design_poly2(x: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    n, k = x.shape
    columns = [np.ones(n)]
    names = ["1"]
    for i in range(k):
        columns.append(x[:, i])
        names.append(f"X{i}")
    for i in range(k):
        columns.append(x[:, i] ** 2)
        names.append(f"X{i}^2")
    for i in range(k):
        for j in range(i + 1, k):
            columns.append(x[:, i] * x[:, j])
            names.append(f"X{i}*X{j}")
    return np.stack(columns, axis=1), names


def _fit(
    dataset: PairedDataset, design_fn, label: str
) -> Optional[InferredFormula]:
    if len(dataset) < 4:
        return None
    x, y = dataset.x, dataset.y
    design, names = design_fn(x)
    if len(dataset) < design.shape[1]:
        return None
    try:
        coefficients, *_ = np.linalg.lstsq(design, y, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(coefficients)):
        return None
    predictions = design @ coefficients
    mae = float(np.mean(np.abs(predictions - y)))
    arity = x.shape[1]
    coefficient_list = [float(c) for c in coefficients]

    def evaluate(xs: Sequence[float], _coeffs=coefficient_list, _fn=design_fn) -> float:
        row = np.asarray(xs, dtype=float)[None, :]
        design_row, __ = _fn(row)
        return float(design_row[0] @ np.asarray(_coeffs))

    terms = [
        f"{coefficient:+.4g}*{name}" if name != "1" else f"{coefficient:+.4g}"
        for coefficient, name in zip(coefficient_list, names)
        if abs(coefficient) > 1e-10
    ]
    description = "Y = " + " ".join(terms) if terms else "Y = 0"
    return InferredFormula(
        formula=ExpressionFormula(evaluate, arity=arity, description=description),
        description=description,
        fitness=mae,
        interpretation=label,
        n_samples=len(dataset),
        generations=0,
    )


def linear_regression(dataset: PairedDataset) -> Optional[InferredFormula]:
    """Fit ``Y = β·X + c`` by ordinary least squares."""
    return _fit(dataset, _design_linear, "linear")


def polynomial_fit(dataset: PairedDataset) -> Optional[InferredFormula]:
    """Fit a full degree-2 polynomial (with cross terms)."""
    return _fit(dataset, _design_poly2, "poly2")
