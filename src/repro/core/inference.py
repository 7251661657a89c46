"""Pluggable formula-inference backends: ``gp`` | ``linear`` | ``hybrid``.

The response-message stage (§3.5) was hardwired to genetic programming,
but most real dashboard formulas are affine or pure rescales (the paper's
Tab. 2 factors) that a closed-form least-squares solve recovers in
microseconds.  This module turns "how a paired dataset becomes a formula"
into a first-class :class:`InferenceBackend` seam:

* :class:`GpBackend` — the existing evolutionary search, untouched
  behind the interface (results stay byte-identical to the pre-seam
  pipeline);
* :class:`LinearBackend` — least squares over a small feature
  dictionary (rescale, affine, bit-shift/mask recombinations of the raw
  integer, product and ratio of raws for two-variable layouts) with an
  *exact-fit* acceptance threshold: a fit is only returned when its
  scaled-space MAE is as good as a converged GP run, otherwise the
  backend reports "no formula" rather than a plausible wrong answer;
* :class:`HybridBackend` — tries the linear dictionary first and falls
  back to the full GP search only for the hard tail (the genuinely
  non-linear manufacturer formulas), which is where the fleet
  wall-clock win comes from.

Every backend's :meth:`~InferenceBackend.infer` returns the
:class:`~repro.core.response_analysis.InferredFormula` (or None), so the
serial path and the process-pool workers run any engine without knowing
which one ran.

Confidence: every recovered formula carries a ``confidence`` field — the
fraction of paired training samples the formula reproduces within the
paper's §4.2 equivalence tolerance (absolute floor, per-value relative
bound, fraction of the output range).  For the GP backend proper the
field stays at its 1.0 default and is never serialised, keeping pure-GP
reports byte-identical to the pre-seam pipeline.
"""

from __future__ import annotations

import abc
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..formulas import Formula
from .fields import EsvColumns
from .gp import GpConfig
from .response_analysis import (
    InferredFormula,
    PairedDataset,
    ScaledTreeFormula,
    build_dataset,
    gp_infer,
    interpretations,
    table2_factor,
    _median_magnitude,
)
from .screenshot import UiSeries

#: The recognised inference backends, in documentation order.
INFERENCE_BACKENDS: Tuple[str, ...] = ("gp", "linear", "hybrid")

#: Accept a closed-form fit only when its scaled-space MAE is at or below
#: this bound — the same error currency (Tab. 2 scaled values, ~[1, 10])
#: and the same magnitude as the GP restart threshold
#: (:data:`~repro.core.response_analysis.RESTART_FITNESS`).  The UI shows
#: one decimal place, so even a perfect formula carries ~0.025 of
#: display-rounding MAE in raw space; 0.02 scaled space sits safely above
#: that quantisation floor for in-range values while rejecting every
#: curved (quadratic) fleet formula by two orders of magnitude.
LINEAR_ACCEPT_FITNESS = 0.02

#: Minimum paired samples, mirroring the GP path's dataset floor.
_MIN_SAMPLES = 6


# ----------------------------------------------------------- linear formula


def _operand(text: str, xs: Sequence[float]) -> float:
    if text.startswith("x"):
        return float(xs[int(text[1:])])
    return float(text)


def _term_value(term: str, xs: Sequence[float]) -> float:
    """Evaluate one dictionary term on a raw sample row.

    Terms are tiny expressions over raw variables and integer literals:
    ``"1"`` (intercept), ``"x0"``, ``"x0*x1"``, ``"x0/x1"``, ``"x0>>8"``,
    ``"x0&255"``.  Bit operators act on the (integral) raw value; a zero
    divisor yields NaN, which poisons the candidate's design matrix and
    rejects it rather than crashing.
    """
    if term == "1":
        return 1.0
    for symbol in (">>", "*", "/", "&"):
        if symbol in term:
            left, __, right = term.partition(symbol)
            a = _operand(left, xs)
            b = _operand(right, xs)
            if symbol == ">>":
                return float(int(a) >> int(b))
            if symbol == "&":
                return float(int(a) & int(b))
            if symbol == "*":
                return a * b
            return a / b if b != 0.0 else math.nan
    return _operand(term, xs)


def _columns(x_rows: Sequence[Sequence[float]]) -> List[np.ndarray]:
    """Sample rows (a sequence, or an ``(n, v)`` matrix) as one float
    column per variable."""
    width = len(x_rows[0]) if len(x_rows) else 0
    return list(np.asarray(x_rows, dtype=float).reshape(len(x_rows), width).T)


def _operand_column(text: str, columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    if text.startswith("x"):
        return columns[int(text[1:])]
    return np.full(n, float(text))


#: int64 holds every integer of smaller magnitude.
_INT64_BOUND = 2.0**63


def _bitwise_column(symbol: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``float(int(a) >> int(b))`` or ``float(int(a) & int(b))`` per entry.

    int64 arithmetic is exact while both operands lie below 2**63 in
    magnitude and a shift count in [0, 63]; anything else (a raw value past
    2**63, where the int64 cast would wrap) takes Python ints, and an entry
    Python cannot convert (NaN, inf) is NaN.
    """
    if (
        np.all(np.abs(a) < _INT64_BOUND)
        and np.all(np.abs(b) < _INT64_BOUND)
        and (symbol == "&" or np.all((b >= 0) & (b < 64)))
    ):
        left, right = a.astype(np.int64), b.astype(np.int64)
        return (left >> right if symbol == ">>" else left & right).astype(float)
    out = np.full(len(a), math.nan)
    for index, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        try:
            out[index] = float(int(x) >> int(y) if symbol == ">>" else int(x) & int(y))
        except (ValueError, OverflowError):
            pass
    return out


def _term_column(term: str, columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    """:func:`_term_value` of every row at once; ``columns[i]`` holds
    variable i.  Elementwise, so entry k has row k's scalar bits."""
    if term == "1":
        return np.ones(n)
    for symbol in (">>", "*", "/", "&"):
        if symbol in term:
            left, __, right = term.partition(symbol)
            a = _operand_column(left, columns, n)
            b = _operand_column(right, columns, n)
            if symbol in (">>", "&"):
                return _bitwise_column(symbol, a, b)
            # Overflow to inf is silent, as in scalar Python arithmetic.
            with np.errstate(all="ignore"):
                if symbol == "*":
                    return a * b
                return np.where(b != 0.0, a / b, math.nan)
    return _operand_column(term, columns, n)


#: A dictionary term is one operand, or two around one operator; an
#: operand is an integer literal or a variable.
_OPERATOR = re.compile(r">>|\*|/|&")
_OPERAND = re.compile(r"x(\d+)|\d+")


def _check_term(term: str, arity: int) -> None:
    """Raise :class:`ValueError` unless :func:`_term_value` can evaluate
    ``term`` on a row of ``arity`` raw values."""
    operands = _OPERATOR.split(term) if isinstance(term, str) else []
    if not 1 <= len(operands) <= 2 or not all(_valid_operand(o, arity) for o in operands):
        raise ValueError(f"term {term!r} is not a dictionary term of arity {arity}")


def _valid_operand(text: str, arity: int) -> bool:
    match = _OPERAND.fullmatch(text)
    return match is not None and (match.group(1) is None or int(match.group(1)) < arity)


class LinearFormula(Formula):
    """A recovered closed-form formula: ``Y = Σ cᵢ · termᵢ(X)``.

    The terms come from the :class:`LinearBackend` feature dictionary and
    are stored as strings, so the object is naturally picklable (the
    process backend ships it between processes) and JSON round-trips
    exactly through :meth:`to_payload`/:meth:`from_payload` for the
    on-disk formula memo.
    """

    def __init__(
        self,
        terms: Sequence[str],
        coefficients: Sequence[float],
        arity: int,
        unit: str = "",
    ) -> None:
        self.terms = tuple(terms)
        self.coefficients = tuple(float(c) for c in coefficients)
        self.arity = arity
        self.unit = unit

    def __call__(self, xs: Sequence[float]) -> float:
        # Left to right from 0.0: the builtin sum() of floats, which gave
        # these bits up to Python 3.11, is compensated from 3.12 on.
        total = 0.0
        for coeff, term in zip(self.coefficients, self.terms):
            total += coeff * _term_value(term, xs)
        return total

    def evaluate_rows(self, x_rows: Sequence[Sequence[float]]) -> np.ndarray:
        """:meth:`__call__` of every row, as columns: the terms are added in
        the same order, so each entry has the scalar call's bits."""
        columns = _columns(x_rows)
        total = np.zeros(len(x_rows))
        with np.errstate(all="ignore"):
            for coeff, term in zip(self.coefficients, self.terms):
                total = total + coeff * _term_column(term, columns, len(x_rows))
        return total

    def describe(self) -> str:
        pieces: List[str] = []
        for coeff, term in zip(self.coefficients, self.terms):
            body = "" if term == "1" else f"*{term.upper()}"
            if not pieces:
                pieces.append(f"{coeff:g}{body}")
            else:
                sign = "+" if coeff >= 0 else "-"
                pieces.append(f"{sign} {abs(coeff):g}{body}")
        return "Y = " + " ".join(pieces) if pieces else "Y = 0"

    def to_payload(self) -> dict:
        """JSON-able form; exact round trip via :meth:`from_payload`."""
        return {
            "terms": list(self.terms),
            "coefficients": list(self.coefficients),
            "arity": self.arity,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LinearFormula":
        """The formula :meth:`to_payload` wrote; :class:`ValueError` unless
        there is one coefficient per term and every operand is an integer
        literal or a variable ``x<i>`` below the arity."""
        terms = list(payload["terms"])
        coefficients = [float(c) for c in payload["coefficients"]]
        arity = int(payload["arity"])
        if len(coefficients) != len(terms):
            raise ValueError(f"{len(terms)} terms but {len(coefficients)} coefficients")
        for term in terms:
            _check_term(term, arity)
        return cls(terms=terms, coefficients=coefficients, arity=arity)


# -------------------------------------------------------- feature dictionary


def _candidate_terms(n_variables: int) -> List[Tuple[str, ...]]:
    """The dictionary, simplest shape first — acceptance takes the first
    exact fit, so a pure rescale never reports a spurious intercept.

    Deliberately *no* polynomial terms: the quadratic tail of the fleet
    must stay unfittable here so the hybrid backend genuinely falls back
    to GP for it (and so ``linear`` alone stays honest about its reach).
    """
    if n_variables == 1:
        return [
            ("x0",),  # pure rescale
            ("x0", "1"),  # affine
            ("x0>>4", "x0&15", "1"),  # nibble split
            ("x0>>8", "x0&255", "1"),  # byte split of a 16-bit raw
        ]
    if n_variables == 2:
        return [
            ("x0", "x1"),  # byte-weighted (e.g. 256*X0 + X1 rescaled)
            ("x0", "x1", "1"),
            ("x0*x1",),  # canonical KWP product
            ("x0*x1", "1"),
            ("x0/x1", "1"),  # ratio of raws
        ]
    variables = tuple(f"x{i}" for i in range(n_variables))
    return [variables, variables + ("1",)]


class _TermColumns:
    """One interpretation's dictionary term columns, each built once and
    shared by every candidate that uses it."""

    def __init__(self, x: np.ndarray) -> None:
        self.arity = x.shape[1]
        self._n = len(x)
        self._variables = list(x.T)
        #: term -> column, or None when an entry is not finite.
        self._built: Dict[str, Optional[np.ndarray]] = {}

    def design(self, terms: Tuple[str, ...]) -> Optional[np.ndarray]:
        """The ``(n, len(terms))`` design matrix, or None when an entry is
        not finite."""
        columns = []
        for term in terms:
            if term not in self._built:
                column = _term_column(term, self._variables, self._n)
                self._built[term] = column if np.isfinite(column).all() else None
            column = self._built[term]
            if column is None:
                return None
            columns.append(column)
        return np.column_stack(columns)


def _solve(
    matrix: np.ndarray, y: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Least squares with a full-rank requirement.

    A rank-deficient design (a constant raw column, say) has no unique
    coefficients; rejecting it keeps describe() deterministic and leaves
    the ESV to a simpler candidate or to GP.
    """
    coeffs, __, rank, __ = np.linalg.lstsq(matrix, y, rcond=None)
    if rank < matrix.shape[1]:
        return None
    residuals = np.abs(matrix @ coeffs - y)
    return coeffs, residuals


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array, from one sort: the middle
    value, or the mean of the two middle values, and NaN when any value
    is NaN (a sort puts NaN last)."""
    ordered = np.sort(values)
    middle = len(ordered) // 2
    if ordered[-1] != ordered[-1]:
        return math.nan
    if len(ordered) % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2.0)


def _round_coefficients(
    coeffs: np.ndarray, matrix: np.ndarray, y: np.ndarray, target_mae: float
) -> Tuple[np.ndarray, float]:
    """Snap coefficients to the fewest significant digits that keep the
    fit: lstsq returns ``0.10000000000000003`` where the manufacturer
    wrote ``0.1``, and the report should print the latter.  Returns the
    coefficients and their MAE (``target_mae``, the unrounded fit's, when
    no rounding keeps it).  Several digit counts often round to the same
    vector; each distinct one is evaluated once."""
    tried = set()
    for digits in range(2, 13):
        rounded = tuple(float(f"{c:.{digits}g}") if c != 0.0 else 0.0 for c in coeffs.tolist())
        if rounded in tried:
            continue
        tried.add(rounded)
        vector = np.array(rounded)
        mae = float(np.mean(np.abs(matrix @ vector - y)))
        if mae <= target_mae * 1.0001 + 1e-12:
            return vector, mae
    return coeffs, target_mae


def _fit_candidate(
    terms: Tuple[str, ...], columns: _TermColumns, y: np.ndarray, y_factor: float
) -> Optional[Tuple[LinearFormula, float]]:
    """Fit one dictionary candidate; ``(formula, scaled_mae)`` or None.

    Robustness uses the GP path's 6·1.4826·MAD trim rule, but iterated
    to a fixed point rather than applied once: least squares is an L2
    fit, so mispairing outliers (fast-moving signals paired against a
    stale UI frame) drag the initial solution far enough that a single
    trim cannot separate them.  The GP path gets away with one pass only
    because its MAE fitness is already outlier-resistant.  Each round
    drops samples beyond the threshold and refits; in practice two or
    three rounds converge.
    """
    matrix = columns.design(terms)
    if matrix is None:
        return None
    solved = _solve(matrix, y)
    if solved is None:
        return None
    coeffs, residuals = solved
    for __ in range(5):
        threshold = max(6.0 * 1.4826 * _median(residuals), 1e-6)
        keep = residuals <= threshold
        kept = int(np.count_nonzero(keep))
        if kept < _MIN_SAMPLES or kept == len(y):
            break
        refit = _solve(matrix[keep], y[keep])
        if refit is None:
            break
        matrix, y = matrix[keep], y[keep]
        coeffs, residuals = refit
    coeffs, mae = _round_coefficients(coeffs, matrix, y, float(residuals.mean()))
    formula = LinearFormula(terms, coeffs, arity=columns.arity)
    return formula, mae * y_factor


# --------------------------------------------------------------- confidence


def sample_agreement(
    formula: Union[LinearFormula, ScaledTreeFormula], dataset: PairedDataset
) -> float:
    """Fraction of paired samples the formula reproduces within the
    paper's §4.2 equivalence tolerance (the same bound
    :func:`~repro.formulas.formulas_equivalent` applies between two
    formulas, here applied between a formula and the observed UI values).
    This is the ensemble-agreement number reported as ``confidence``.
    """
    if not len(dataset):
        return 0.0
    wants = dataset.y
    spread = float(wants.max() - wants.min())
    got = formula.evaluate_rows(dataset.x)
    tolerance = np.maximum(np.maximum(0.5, 0.05 * np.abs(wants)), 0.03 * spread)
    with np.errstate(invalid="ignore"):
        agreeing = np.isfinite(got) & (np.abs(got - wants) <= tolerance)
    return int(agreeing.sum()) / len(dataset)


# ----------------------------------------------------------------- backends


class InferenceBackend(abc.ABC):
    """One way of turning a paired ESV dataset into a formula.

    Implementations are stateless (all run state lives in one
    :meth:`infer` call), which is what lets one backend object serve every
    ESV of a pass and cross process boundaries by name rather than by
    pickle.
    """

    #: The backend's registry name (``ReverserConfig.formula_backend``).
    name: str

    @abc.abstractmethod
    def infer(
        self,
        observations: EsvColumns,
        series: UiSeries,
        config: Optional[GpConfig] = None,
        max_gap_s: float = 1.5,
    ) -> Optional[InferredFormula]:
        """The :class:`InferredFormula` of one ESV, or None."""


class GpBackend(InferenceBackend):
    """The paper's genetic-programming search, behind the seam.

    Pure delegation to :func:`~repro.core.response_analysis.gp_infer`;
    results are byte-identical to the pre-seam pipeline, and the
    ``confidence`` field keeps its 1.0 default so report digests do not
    move.
    """

    name = "gp"

    def infer(
        self,
        observations: EsvColumns,
        series: UiSeries,
        config: Optional[GpConfig] = None,
        max_gap_s: float = 1.5,
    ) -> Optional[InferredFormula]:
        return gp_infer(observations, series, config, max_gap_s)


class LinearBackend(InferenceBackend):
    """Closed-form least squares over the feature dictionary.

    Tries the same interpretation ladder as GP (KWP two-variable layout;
    one big-endian integer vs one variable per byte for wide UDS values)
    and, per interpretation, each dictionary candidate simplest-first.
    Only *exact* fits — scaled MAE at or below
    :data:`LINEAR_ACCEPT_FITNESS` — are returned; everything else is
    "no formula", never a plausible wrong answer.  Consumes no RNG, so
    running it before a GP fallback cannot perturb the GP result.
    """

    name = "linear"

    def infer(
        self,
        observations: EsvColumns,
        series: UiSeries,
        config: Optional[GpConfig] = None,
        max_gap_s: float = 1.5,
    ) -> Optional[InferredFormula]:
        return self._infer(observations, series, max_gap_s)[0]

    def _infer(
        self,
        observations: EsvColumns,
        series: UiSeries,
        max_gap_s: float = 1.5,
    ) -> Tuple[Optional[InferredFormula], bool]:
        """``(accepted formula or None, dataset_was_usable)``.

        The second element tells :class:`HybridBackend` whether a GP
        fallback could even build a dataset (too few paired samples means
        GP would return None as well, so the fallback can be skipped).
        """
        best: Optional[InferredFormula] = None
        usable = False
        for interpretation in interpretations(observations):
            mode = "bytes" if interpretation in ("bytes", "kwp") else "int"
            dataset = build_dataset(observations, series, mode, max_gap_s)
            if len(dataset) < _MIN_SAMPLES:
                continue
            usable = True
            y_factor = table2_factor(_median_magnitude(dataset.y), allow_enlarge=True)
            columns = _TermColumns(dataset.x)
            for terms in _candidate_terms(dataset.n_variables):
                fitted = _fit_candidate(terms, columns, dataset.y, y_factor)
                if fitted is None:
                    continue
                formula, scaled_mae = fitted
                if scaled_mae > LINEAR_ACCEPT_FITNESS:
                    continue
                inferred = InferredFormula(
                    formula=formula,
                    description=formula.describe(),
                    fitness=scaled_mae,
                    interpretation=interpretation,
                    n_samples=len(dataset),
                    generations=0,
                    backend="linear",
                    confidence=sample_agreement(formula, dataset),
                )
                if best is None or inferred.fitness < best.fitness:
                    best = inferred
                break  # simplest-first: first exact fit wins this ladder rung
        return best, usable


class HybridBackend(InferenceBackend):
    """Linear first, GP only for the hard tail.

    The linear probe is closed-form and consumes no randomness, so when
    it rejects, the GP fallback sees exactly the seeds, dataset and
    restart schedule a pure-GP run would — its formulas (and therefore
    the per-ESV report entries) are byte-identical to ``backend="gp"``.
    The fallback's ``confidence`` is its sample agreement against the
    winning interpretation's dataset, recorded on the
    :class:`InferredFormula` (reports omit it for GP-produced formulas
    to keep those entries digest-identical to pure GP).
    """

    name = "hybrid"

    def __init__(self) -> None:
        self._linear = LinearBackend()

    def infer(
        self,
        observations: EsvColumns,
        series: UiSeries,
        config: Optional[GpConfig] = None,
        max_gap_s: float = 1.5,
    ) -> Optional[InferredFormula]:
        accepted, usable = self._linear._infer(observations, series, max_gap_s)
        if accepted is not None or not usable:
            return accepted
        result = gp_infer(observations, series, config, max_gap_s)
        if result is not None:
            mode = "bytes" if result.interpretation in ("bytes", "kwp") else "int"
            dataset = build_dataset(observations, series, mode, max_gap_s)
            result.confidence = sample_agreement(result.formula, dataset)
        return result


_BACKENDS = {
    "gp": GpBackend,
    "linear": LinearBackend,
    "hybrid": HybridBackend,
}


def get_backend(name: str) -> InferenceBackend:
    """Instantiate a backend by registry name (``gp|linear|hybrid``)."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown formula backend {name!r}; "
            f"choose one of {', '.join(INFERENCE_BACKENDS)}"
        ) from None
