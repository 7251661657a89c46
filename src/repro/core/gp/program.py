"""Flat programs: the GP engine's representation of an expression tree.

The engine breeds *programs*, not :class:`~repro.core.gp.tree.Node` trees.
A program is a tuple of tokens in pre-order — the order of
:meth:`Node.nodes` — so token ``i`` is the root of the subtree that
``tree.nodes()[i]`` roots, and the subtree spans ``program[i:end]`` with
``end`` from :func:`subtree_end`.  Each token is a ``(kind, payload)``
pair::

    (VAR, i)          variable reference X<i>
    (CONST, value)    the constant, exact (-0.0 stays -0.0)
    (CALL1, func)     unary function; func is its vectorised primitive
    (CALL2, func)     binary function

Function tokens are interned, one tuple per function.  A program compares
equal to another exactly when the trees are identical, with constants
compared as floats (``-0.0 == 0.0``; no primitive can tell the two apart,
so their fitness is equal too).  The tuple is therefore its own
fitness-cache key.

:func:`execute` runs a program right to left over an operand stack of
numpy arrays.  It applies the same primitives to the same operands as the
recursive :meth:`Node.evaluate`, so every result is bit-identical.

:func:`program_grower` draws random programs token by token, in the order
:meth:`random.Random` draws them for a recursive tree build (see
:func:`random_tree`).  It draws ``randbelow(n)`` inline, as the rejection
loop ``getrandbits(n.bit_length())`` until below ``n`` — the library's own
``_randbelow`` without a Python call per draw.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .functions import FUNCTION_SET, GpFunction
from .tree import Node

#: Token kinds.
VAR = 0
CONST = 1
CALL1 = 2
CALL2 = 3

#: Operand slots a token opens minus the one it fills (arity - 1), by kind.
SLOTS = (-1, -1, 0, 1)

Token = Tuple[int, object]
Program = Tuple[Token, ...]

assert all(f.arity in (1, 2) for f in FUNCTION_SET.values())

#: The function tokens by name, and the way back to the function.
CALLS: Dict[str, Token] = {
    name: (CALL2 if f.arity == 2 else CALL1, f.func) for name, f in FUNCTION_SET.items()
}
_FUNCTIONS: Dict[Token, GpFunction] = {token: FUNCTION_SET[name] for name, token in CALLS.items()}


def from_tree(tree: Node) -> Program:
    """The pre-order program of ``tree``."""
    out: List[Token] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.var_index is not None:
            out.append((VAR, node.var_index))
        elif node.constant is not None:
            out.append((CONST, node.constant))
        else:
            out.append(CALLS[node.function.name])
            stack.extend(reversed(node.children))
    return tuple(out)


def to_tree(program: Program) -> Node:
    """The tree ``program`` encodes, constants exact."""
    stack: List[Node] = []
    for token in reversed(program):
        kind, payload = token
        if kind == VAR:
            stack.append(Node.var(payload))
        elif kind == CONST:
            stack.append(Node.const(payload))
        else:
            function = _FUNCTIONS[token]
            children = [stack.pop() for __ in range(function.arity)]
            stack.append(Node(function=function, children=children))
    return stack[-1]


def subtree_end(program: Program, start: int) -> int:
    """One past the last token of the subtree rooted at ``program[start]``."""
    open_slots = 1
    end = start
    while open_slots:
        open_slots += SLOTS[program[end][0]]
        end += 1
    return end


def depth(program: Program) -> int:
    depths: List[int] = []
    pop = depths.pop
    push = depths.append
    for kind, __ in reversed(program):
        if kind == CALL2:
            left = pop()
            right = pop()
            push((left if left > right else right) + 1)
        elif kind == CALL1:
            push(pop() + 1)
        else:
            push(1)
    return depths[-1]


def execute(
    program: Program, columns: Sequence[np.ndarray], const_arrays: Dict[float, np.ndarray]
) -> np.ndarray:
    """Evaluate ``program`` over the dataset's column arrays.

    ``const_arrays`` (owned by the caller, valid for one dataset length)
    reuses materialised constant arrays across calls; nothing downstream
    mutates them.  The caller holds ``np.errstate(all="ignore")``.
    """
    stack: List[np.ndarray] = []
    push = stack.append
    pop = stack.pop
    for kind, payload in reversed(program):
        if kind == CALL2:
            push(payload(pop(), pop()))  # left operand on top
        elif kind == CALL1:
            push(payload(pop()))
        elif kind == VAR:
            push(columns[payload])
        else:
            array = const_arrays.get(payload)
            if array is None:
                array = const_arrays[payload] = np.full_like(columns[0], payload, dtype=float)
            push(array)
    return stack[-1]


def program_grower(
    rng: random.Random,
    n_variables: int,
    function_names: Sequence[str],
    const_range: float,
) -> Callable[..., Program]:
    """``grow_program(max_depth, grow=True)``: a random program.

    Each node first asks, below ``max_depth`` and when growing, whether to
    stop with a 30% chance; a terminal is then a variable (70%) or a
    constant rounded to three places, a function is a uniform pick from
    ``function_names`` whose operands are drawn left to right.
    """
    rand = rng.random
    getrandbits = rng.getrandbits
    var_tokens = [(VAR, index) for index in range(n_variables)]
    var_bits = n_variables.bit_length()
    calls = [CALLS[name] for name in function_names]
    n_calls = len(calls)
    call_bits = n_calls.bit_length()
    low = -const_range
    span = const_range - low  # rng.uniform(low, high) is low + (high - low) * random()

    def grow_program(max_depth: int, grow: bool = True) -> Program:
        out: List[Token] = []
        pending = [max_depth]  # depth budgets of the operands still to draw
        while pending:
            remaining = pending.pop()
            if remaining <= 1 or (grow and rand() < 0.3):
                if rand() < 0.7:
                    index = getrandbits(var_bits)
                    while index >= n_variables:
                        index = getrandbits(var_bits)
                    out.append(var_tokens[index])
                else:
                    out.append((CONST, round(low + span * rand(), 3)))
                continue
            if not n_calls:
                raise IndexError("Cannot choose from an empty sequence")
            pick = getrandbits(call_bits)
            while pick >= n_calls:
                pick = getrandbits(call_bits)
            token = calls[pick]
            out.append(token)
            pending.append(remaining - 1)
            if token[0] == CALL2:
                pending.append(remaining - 1)
        return tuple(out)

    return grow_program


def random_tree(
    rng: random.Random,
    n_variables: int,
    function_names: Sequence[str],
    max_depth: int = 4,
    const_range: float = 10.0,
    grow: bool = True,
) -> Node:
    """A random tree, drawn exactly as the engine draws a program."""
    grower = program_grower(rng, n_variables, function_names, const_range)
    return to_tree(grower(max_depth, grow))
