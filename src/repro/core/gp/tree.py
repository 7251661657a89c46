"""Expression trees for genetic programming.

GP represents formulas as syntax trees (§3.5): interior nodes are functions
from the 14-function set, leaves are raw-variable references (``X0``,
``X1``) or floating-point constants.  Trees evaluate vectorised over the
whole dataset.  Evolution itself breeds the flat pre-order form of a tree
(:mod:`repro.core.gp.program`); trees are what goes in and comes out.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .functions import FUNCTION_SET, GpFunction


class Node:
    """One tree node: a function application, a variable, or a constant."""

    __slots__ = ("function", "children", "var_index", "constant")

    def __init__(
        self,
        function: Optional[GpFunction] = None,
        children: Optional[List["Node"]] = None,
        var_index: Optional[int] = None,
        constant: Optional[float] = None,
    ) -> None:
        self.function = function
        self.children = children or []
        self.var_index = var_index
        self.constant = constant

    # ------------------------------------------------------------ constructors

    @classmethod
    def var(cls, index: int) -> "Node":
        return cls(var_index=index)

    @classmethod
    def const(cls, value: float) -> "Node":
        return cls(constant=float(value))

    @classmethod
    def call(cls, name: str, *children: "Node") -> "Node":
        function = FUNCTION_SET[name]
        if len(children) != function.arity:
            raise ValueError(f"{name} takes {function.arity} children, got {len(children)}")
        return cls(function=function, children=list(children))

    # ----------------------------------------------------------------- queries

    @property
    def is_terminal(self) -> bool:
        return self.function is None

    def size(self) -> int:
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            if node.children:
                stack.extend(node.children)
        return count

    def depth(self) -> int:
        max_depth = 1
        stack = [(self, 1)]
        while stack:
            node, level = stack.pop()
            children = node.children
            if children:
                level += 1
                if level > max_depth:
                    max_depth = level
                for child in children:
                    stack.append((child, level))
        return max_depth

    def variables_used(self) -> set:
        if self.is_terminal:
            return {self.var_index} if self.var_index is not None else set()
        used: set = set()
        for child in self.children:
            used |= child.variables_used()
        return used

    # -------------------------------------------------------------- evaluation

    def evaluate(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorised evaluation: ``columns[i]`` holds variable i's samples."""
        if self.var_index is not None:
            return columns[self.var_index]
        if self.constant is not None:
            return np.full_like(columns[0], self.constant, dtype=float)
        args = [child.evaluate(columns) for child in self.children]
        with np.errstate(all="ignore"):
            return self.function.func(*args)

    def evaluate_point(self, xs: Sequence[float]) -> float:
        """Evaluate at a single sample without building length-1 arrays.

        Uses the functions' bit-identical ``scalar`` variants (verification
        runs this once per sample, so the array path's per-node numpy
        overhead used to dominate every bench).  Falls back to the
        vectorised path for custom functions with no scalar form.
        """
        if self.var_index is not None:
            return float(xs[self.var_index])
        if self.constant is not None:
            return float(self.constant)
        scalar = self.function.scalar
        if scalar is None:
            columns = [np.asarray([float(x)]) for x in xs]
            return float(self.evaluate(columns)[0])
        return float(scalar(*(child.evaluate_point(xs) for child in self.children)))

    # ------------------------------------------------------------ manipulation

    def copy(self) -> "Node":
        return Node(
            function=self.function,
            children=[child.copy() for child in self.children],
            var_index=self.var_index,
            constant=self.constant,
        )

    def nodes(self) -> List["Node"]:
        """Pre-order list of all nodes (self included)."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))  # the left subtree pops first
        return out

    # ------------------------------------------------------------------ output

    def to_infix(self) -> str:
        if self.var_index is not None:
            return f"X{self.var_index}"
        if self.constant is not None:
            return f"{self.constant:g}"
        parts = [child.to_infix() for child in self.children]
        return self.function.fmt.format(*parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.to_infix()}>"

