"""Exact, JSON-able serialisation of expression trees.

The process-backend workers and the on-disk formula memo both need to move
evolved trees across a process or run boundary.  Pickle alone is not
enough: the memo stores entries as JSON (human-inspectable, atomic-rename
friendly), and either way the round trip must be *exact* — the
reconstructed tree has to evaluate bit-for-bit like the original, because
report byte-identity across backends and across warm/cold memo runs is an
asserted invariant.

Trees are encoded as their postfix token sequence, with three token
kinds::

    ["v", index]   variable reference X<index>
    ["c", value]   floating-point constant
    ["f", name]    function application, arity from FUNCTION_SET

Constants survive JSON exactly (Python serialises floats via repr, which
round-trips every finite float64; ``inf``/``nan`` ride JSON's
``Infinity``/``NaN`` literals).  Functions are encoded by name and resolved
against :data:`~repro.core.gp.functions.FUNCTION_SET` on decode, so the
rebuilt tree points at the very same interned primitives.
"""

from __future__ import annotations

from typing import List, Sequence

from .functions import FUNCTION_SET
from .tree import Node


def tree_to_tokens(tree: Node) -> List[list]:
    """Flatten ``tree`` into its postfix token list."""
    # Right-first pre-order; reversed, it is postfix.
    walk: List[Node] = []
    stack: List[Node] = [tree]
    while stack:
        node = stack.pop()
        walk.append(node)
        if node.children:
            stack.extend(node.children)
    tokens: List[list] = []
    for node in reversed(walk):
        if node.var_index is not None:
            tokens.append(["v", node.var_index])
        elif node.constant is not None:
            tokens.append(["c", node.constant])
        else:
            tokens.append(["f", node.function.name])
    return tokens


def tree_from_tokens(tokens: Sequence[Sequence]) -> Node:
    """Rebuild the tree a :func:`tree_to_tokens` call flattened.

    Raises :class:`ValueError` on malformed input (unknown token kind or
    function name, wrong operand count) so corrupt memo entries surface as
    a clear error the caller can treat as a cache miss.
    """
    stack: List[Node] = []
    for token in tokens:
        try:
            kind, payload = token
        except (TypeError, ValueError):
            raise ValueError(f"malformed tree token: {token!r}") from None
        if kind == "v":
            stack.append(Node.var(int(payload)))
        elif kind == "c":
            stack.append(Node.const(float(payload)))
        elif kind == "f":
            function = FUNCTION_SET.get(payload)
            if function is None:
                raise ValueError(f"unknown GP function in tree tokens: {payload!r}")
            if len(stack) < function.arity:
                raise ValueError(
                    f"tree tokens underflow: {payload!r} needs {function.arity} operands"
                )
            children = stack[-function.arity:]
            del stack[-function.arity:]
            stack.append(Node(function=function, children=children))
        else:
            raise ValueError(f"unknown tree token kind: {kind!r}")
    if len(stack) != 1:
        raise ValueError(f"tree tokens decode to {len(stack)} roots, expected 1")
    return stack[0]
