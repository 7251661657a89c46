"""Constant folding and pretty-printing for evolved trees.

Evolved formulas accumulate dead weight (``(X0 * 1) + 0``); folding them
makes the reported expressions readable, mirroring the compact formulas
printed in the paper's Tab. 5/7.
"""

from __future__ import annotations

import math
from typing import Optional

from .tree import Node


def fold_constants(tree: Node) -> Node:
    """Recursively evaluate constant subtrees and apply identity rules."""
    if tree.is_terminal:
        return tree.copy()
    children = [fold_constants(child) for child in tree.children]
    node = Node(function=tree.function, children=children)

    # Pure-constant subtree: evaluate it once.
    if all(c.constant is not None for c in children):
        try:
            value = node.evaluate_point([0.0])
        except (ValueError, OverflowError, ZeroDivisionError):
            return node
        if math.isfinite(value):
            return Node.const(round(value, 10))

    name = tree.function.name
    a = children[0]
    b = children[1] if len(children) > 1 else None

    if name == "add":
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    if name == "sub" and _is_const(b, 0.0):
        return a
    if name == "mul":
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return Node.const(0.0)
    if name == "div" and _is_const(b, 1.0):
        return a
    if name == "neg" and a.constant is not None:
        return Node.const(-a.constant)
    return node


def _is_const(node: Optional[Node], value: float) -> bool:
    return node is not None and node.constant is not None and abs(node.constant - value) < 1e-12


def pretty(tree: Node, y_name: str = "Y") -> str:
    """Render a folded tree as ``"Y = <expr>"``."""
    return f"{y_name} = {fold_constants(tree).to_infix()}"
