"""Programs: the one form of a GP expression.

An expression tree over the 14-function set (§3.5) is held as a
*program*: a tuple of tokens in pre-order, so token ``i`` roots a subtree
that spans ``program[i:end]`` with ``end`` from :func:`subtree_end`.
Each token is a ``(kind, payload)`` pair::

    (VAR, i)          variable reference X<i>
    (CONST, value)    the constant, exact (-0.0 stays -0.0)
    (CALL1, func)     unary function; func is its vectorised primitive
    (CALL2, func)     binary function

Function tokens are interned, one tuple per function.  Two programs
compare equal exactly when the expressions are identical, with constants
compared as floats (``-0.0 == 0.0``; the two differ only in the sign of a
zero result, which no absolute error tells apart, so their fitness is
equal too).  The tuple is therefore its own fitness-cache key.

Everything the pipeline does with an expression works on programs: the
engine breeds them, :func:`execute` evaluates them over numpy columns,
:func:`fold` folds their constants, :func:`infix` prints them, and
:func:`to_tokens`/:func:`from_tokens` carry them through the JSON formula
memo.  ``tests/gp_reference.py`` keeps a plain recursive tree as the
oracle all of these are checked against.

:func:`program_grower` draws random programs token by token, in the order
:meth:`random.Random` draws them for a recursive tree build.  It draws
``randbelow(n)`` inline, as the rejection loop
``getrandbits(n.bit_length())`` until below ``n`` — the library's own
``_randbelow`` without a Python call per draw.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .functions import FUNCTION_SET, GpFunction

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


def var(index: int) -> Program:
    return ((VAR, index),)


def const(value: float) -> Program:
    return ((CONST, float(value)),)


def call(name: str, *operands: Program) -> Program:
    """``name`` applied to ``operands``, left to right."""
    arity = FUNCTION_SET[name].arity
    if len(operands) != arity:
        raise ValueError(f"{name} takes {arity} operands, got {len(operands)}")
    return (CALLS[name],) + sum(operands, ())


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


#: The ``const_arrays`` key of the constant -0.0, which as a float key
#: would find 0.0's array (``-0.0 == 0.0``).
_NEGATIVE_ZERO = "-0.0"


def execute(
    program: Program, columns: Sequence[np.ndarray], const_arrays: Dict[object, np.ndarray]
) -> np.ndarray:
    """Evaluate ``program`` over the dataset's column arrays.

    ``const_arrays`` (owned by the caller, valid for one dataset length)
    reuses materialised constant arrays across calls, one per constant
    value and each signed zero its own; nothing downstream mutates them.
    The caller holds ``np.errstate(all="ignore")``.
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
            key = payload if payload or math.copysign(1.0, payload) > 0 else _NEGATIVE_ZERO
            array = const_arrays.get(key)
            if array is None:
                array = const_arrays[key] = np.full_like(columns[0], payload, dtype=float)
            push(array)
    return stack[-1]


def _is_const(operand: Program, value: float) -> bool:
    return operand[0][0] == CONST and abs(operand[0][1] - value) < 1e-12


def fold(program: Program) -> Program:
    """``program`` with constant subtrees evaluated and identities applied.

    Evolved formulas accumulate dead weight (``(X0 * 1) + 0``); folding
    makes reported expressions as compact as the paper's Tab. 5/7.  A
    function of constants becomes its value rounded to ten places when
    that is finite; ``x + 0``, ``x - 0``, ``x * 1`` and ``x / 1`` become
    ``x``, ``x * 0`` becomes 0 and the negation of a constant is the
    negated constant.  Operands fold before the function that takes them.
    """
    stack: List[Program] = []
    pop = stack.pop
    push = stack.append
    for token in reversed(program):
        kind = token[0]
        if kind == VAR or kind == CONST:
            push((token,))
            continue
        a = pop()
        b = pop() if kind == CALL2 else None
        if a[0][0] == CONST and (b is None or b[0][0] == CONST):
            # The primitive itself on one-element operands: the folded
            # constant is printed, not scored.
            operands = [np.full(1, operand[0][1]) for operand in (a, b) if operand is not None]
            with np.errstate(all="ignore"):
                value = float(token[1](*operands)[0])
            if math.isfinite(value):
                push(const(round(value, 10)))
                continue
        name = _FUNCTIONS[token].name
        if name == "add" and _is_const(a, 0.0):
            push(b)
        elif name in ("add", "sub") and _is_const(b, 0.0):
            push(a)
        elif name == "mul" and _is_const(a, 1.0):
            push(b)
        elif name in ("mul", "div") and _is_const(b, 1.0):
            push(a)
        elif name == "mul" and (_is_const(a, 0.0) or _is_const(b, 0.0)):
            push(const(0.0))
        elif name == "neg" and a[0][0] == CONST:
            push(const(-a[0][1]))
        else:
            push((token,) + a + (b or ()))
    return stack[-1]


def infix(program: Program) -> str:
    """``program`` as an infix expression over ``X0``, ``X1``, ..."""
    stack: List[str] = []
    pop = stack.pop
    for token in reversed(program):
        kind, payload = token
        if kind == VAR:
            stack.append(f"X{payload}")
        elif kind == CONST:
            stack.append(f"{payload:g}")
        elif kind == CALL1:
            stack.append(_FUNCTIONS[token].fmt.format(pop()))
        else:
            stack.append(_FUNCTIONS[token].fmt.format(pop(), pop()))
    return stack[-1]


# ------------------------------------------------------------- memo tokens
#
# The JSON form of a program is its own token sequence, with the function
# primitives replaced by their names::
#
#     ["v", index]   variable reference X<index>
#     ["c", value]   floating-point constant
#     ["f", name]    function application, arity from FUNCTION_SET
#
# Constants survive JSON exactly: Python writes floats by repr, which
# round-trips every finite float64, and inf/nan ride JSON's
# Infinity/NaN literals.


def to_tokens(program: Program) -> List[list]:
    """The JSON-able token list of ``program``."""
    out: List[list] = []
    for token in program:
        kind, payload = token
        if kind == VAR:
            out.append(["v", payload])
        elif kind == CONST:
            out.append(["c", payload])
        else:
            out.append(["f", _FUNCTIONS[token].name])
    return out


def from_tokens(tokens: Sequence, n_variables: int) -> Program:
    """The program a :func:`to_tokens` list encodes.

    Raises :class:`ValueError` on anything else: a token that is not a
    ``[kind, payload]`` pair, an unknown kind or function name, a variable
    index outside ``range(n_variables)``, a constant that is not a number,
    or a token count that does not make exactly one expression.  A corrupt
    memo entry therefore surfaces as an error the caller treats as a miss.
    """
    out: List[Token] = []
    open_slots = 1
    for token in tokens:
        if not open_slots:
            raise ValueError("program tokens continue past the end of the expression")
        if not isinstance(token, (list, tuple)) or len(token) != 2:
            raise ValueError(f"malformed program token: {token!r}")
        kind, payload = token
        if kind == "v":
            if type(payload) is not int or not 0 <= payload < n_variables:
                raise ValueError(f"variable {payload!r} outside X0..X{n_variables - 1}")
            out.append((VAR, payload))
        elif kind == "c":
            if type(payload) not in (int, float):
                raise ValueError(f"constant {payload!r} is not a number")
            out.append((CONST, float(payload)))
        elif kind == "f":
            call_token = CALLS.get(payload) if isinstance(payload, str) else None
            if call_token is None:
                raise ValueError(f"unknown GP function in program tokens: {payload!r}")
            out.append(call_token)
        else:
            raise ValueError(f"unknown program token kind: {kind!r}")
        open_slots += SLOTS[out[-1][0]]
    if open_slots:
        raise ValueError(f"program tokens end with {open_slots} operand(s) missing")
    return tuple(out)


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
