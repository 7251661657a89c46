"""Formula-correctness verification.

The paper scores an inferred formula *correct* when its outputs match the
ground truth over the values actually observed in traffic — coefficients
need not match (§4.2's ``Y = 1.7X - 22`` ≈ ``Y = 1.8X - 40`` over
X ∈ [0xA0, 0xC0]; §4.3's one-variable simplifications when the other
variable is constant).  This module centralises that check for all three
inference algorithms and rolls results up into the per-car precision rows
of Tabs. 5/6/10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..formulas import Formula, formulas_equivalent


def check_formula(
    candidate,
    truth: Formula,
    observed_samples: Sequence[Tuple[float, ...]],
    rel_tol: float = 0.05,
    abs_tol: float = 0.75,
) -> bool:
    """Numeric equivalence over observed raw values.

    ``candidate`` may be a :class:`Formula` or an
    :class:`~repro.core.response_analysis.InferredFormula` — anything
    callable on a variable tuple.  When candidate arity is smaller than
    the truth's (GP collapsed a constant variable), the samples are passed
    to the candidate truncated/adapted accordingly.  A sample narrower
    than a multi-variable formula's arity (bit errors can shorten an
    ESV's observed values) cannot be evaluated, so the check fails.
    """
    if not observed_samples:
        return False
    sample_width = len(observed_samples[0])

    def arity_of(formula) -> Optional[int]:
        arity = getattr(formula, "arity", None)
        if arity is None:
            arity = getattr(getattr(formula, "formula", None), "arity", None)
        return arity

    candidate_arity, truth_arity = arity_of(candidate), arity_of(truth)
    narrowest = min(len(xs) for xs in observed_samples)
    for arity in (candidate_arity, truth_arity):
        if arity is not None and 1 < arity and narrowest < arity:
            return False

    def adapter(arity: Optional[int]):
        def adapt(xs: Tuple[float, ...]) -> Sequence[float]:
            if arity is None or len(xs) == arity:
                return xs
            if arity == 1:
                # Single-integer interpretation of multi-byte values.
                value = 0.0
                for x in xs:
                    value = value * 256.0 + x
                return (value,)
            return xs[:arity]

        return adapt

    wrapped_candidate = _CallableFormula(candidate, adapter(candidate_arity), sample_width)
    wrapped_truth = _CallableFormula(truth, adapter(truth_arity), sample_width)
    return formulas_equivalent(
        wrapped_candidate, wrapped_truth, observed_samples, rel_tol, abs_tol
    )


class _CallableFormula(Formula):
    """Adapter giving any callable the Formula interface."""

    def __init__(self, inner, adapt, arity: int) -> None:
        self._inner = inner
        self._adapt = adapt
        self.arity = arity

    def __call__(self, xs: Sequence[float]) -> float:
        return float(self._inner(self._adapt(tuple(xs))))

    def describe(self) -> str:
        describe = getattr(self._inner, "describe", None)
        if describe is not None:
            return describe()
        return getattr(self._inner, "description", "<callable>")


@dataclass
class PrecisionRow:
    """One row of a Tab. 6 / Tab. 10 style precision table."""

    name: str  # car or dataset name
    total: int
    correct: int

    @property
    def precision(self) -> float:
        return self.correct / self.total if self.total else 0.0


def precision_table(rows: Sequence[PrecisionRow]) -> Dict[str, object]:
    """Aggregate rows into the table + total summary the paper prints."""
    total = sum(r.total for r in rows)
    correct = sum(r.correct for r in rows)
    return {
        "rows": list(rows),
        "total": total,
        "correct": correct,
        "precision": correct / total if total else 0.0,
    }
