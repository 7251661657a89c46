"""The GP function set.

§6 of the paper: *"DP-Reverser supports 14 kinds of functions (e.g.
addition, subtraction, multiplication, division, square root, log, absolute
value, negative, maximum) in the genetic programming library"*.  We
implement exactly fourteen, with the protected variants symbolic-regression
systems (gplearn included) use so that evolution never crashes on a bad
operand: protected division returns 1 near zero denominators, protected
sqrt/log operate on magnitudes.

All functions are vectorised over numpy arrays — fitness evaluation runs
each candidate formula over the whole dataset in one call, and a single
sample is a one-row dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

_EPS = 1e-9


def _protected_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(np.abs(b) > _EPS, a / np.where(np.abs(b) > _EPS, b, 1.0), 1.0)
    return out


def _protected_sqrt(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(a))


def _protected_log(a: np.ndarray) -> np.ndarray:
    return np.where(np.abs(a) > _EPS, np.log(np.abs(np.where(np.abs(a) > _EPS, a, 1.0))), 0.0)


def _protected_inv(a: np.ndarray) -> np.ndarray:
    return _protected_div(np.ones_like(a), a)


@dataclass(frozen=True)
class GpFunction:
    """One interior-node operator."""

    name: str
    arity: int
    func: Callable[..., np.ndarray]
    fmt: str  # str.format template with {0}, {1} slots


FUNCTION_SET: Dict[str, GpFunction] = {
    f.name: f
    for f in [
        GpFunction("add", 2, np.add, "({0} + {1})"),
        GpFunction("sub", 2, np.subtract, "({0} - {1})"),
        GpFunction("mul", 2, np.multiply, "({0} * {1})"),
        GpFunction("div", 2, _protected_div, "({0} / {1})"),
        GpFunction("sqrt", 1, _protected_sqrt, "sqrt({0})"),
        GpFunction("log", 1, _protected_log, "log({0})"),
        GpFunction("abs", 1, np.abs, "abs({0})"),
        GpFunction("neg", 1, np.negative, "(-{0})"),
        GpFunction("max", 2, np.maximum, "max({0}, {1})"),
        GpFunction("min", 2, np.minimum, "min({0}, {1})"),
        GpFunction("sin", 1, np.sin, "sin({0})"),
        GpFunction("cos", 1, np.cos, "cos({0})"),
        GpFunction("inv", 1, _protected_inv, "(1 / {0})"),
        GpFunction("square", 1, np.square, "({0}^2)"),
    ]
}

assert len(FUNCTION_SET) == 14, "the paper's prototype supports 14 functions"


#: Default subset used for evolution.  Trig stays out of the default mix
#: (vehicle formulas are arithmetic); it remains available via
#: ``GeneticProgrammer(function_names=...)``.
DEFAULT_FUNCTION_NAMES: Tuple[str, ...] = (
    "add", "sub", "mul", "div", "sqrt", "log", "abs", "neg", "max", "min",
    "inv", "square",
)
