"""Programs against the plain ``Node`` oracle (``gp_reference``).

A GP expression exists in ``src`` as a pre-order program only.  These
properties hold it to the tree semantics the oracle keeps, on random
trees over all fourteen primitives, with constants drawn to hit the
folding rules and the IEEE specials:

* :func:`execute` returns the tree evaluation's bytes, NaN payloads,
  ±inf and the sign of a zero included;
* the infix string and the constant-folded program equal the oracle's;
* the memo tokens round-trip every constant exactly through JSON text
  (``-0.0``, NaN and ±inf included), and malformed tokens raise
  :class:`ValueError`.
"""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.gp import FUNCTION_SET
from repro.core.gp.program import execute, fold, from_tokens, infix, to_tokens

from .gp_reference import Node, canonical, fold_constants, to_program

N_VARIABLES = 3


#: Constants that reach every folding rule and the IEEE corner cases.
SPECIAL_CONSTANTS = (
    0.0,
    -0.0,
    1.0,
    -1.0,
    1e-13,
    -1e-13,
    0.5,
    2.55,
    1e300,
    -1e300,
    math.nan,
    math.inf,
    -math.inf,
)

constants = st.one_of(
    st.sampled_from(SPECIAL_CONSTANTS), st.floats(allow_nan=True, allow_infinity=True)
)


def _trees(values):
    leaves = st.one_of(st.integers(0, N_VARIABLES - 1).map(Node.var), values.map(Node.const))

    def calls(children):
        def build(name):
            operands = st.tuples(*[children] * FUNCTION_SET[name].arity)
            return operands.map(lambda nodes: Node.call(name, *nodes))

        return st.sampled_from(sorted(FUNCTION_SET)).flatmap(build)

    return st.recursive(leaves, calls, max_leaves=24)


trees = _trees(constants)


def _columns(seed: int, n: int = 17):
    """Dataset columns salted with NaN, ±inf and ±0.0."""
    rng = random.Random(seed)
    columns = []
    for __ in range(N_VARIABLES):
        values = [rng.uniform(-50.0, 50.0) for __ in range(n)]
        for value in (math.nan, math.inf, -math.inf, 0.0, -0.0):
            values[rng.randrange(n)] = value
        columns.append(np.asarray(values, dtype=float))
    return columns


@settings(max_examples=200, deadline=None)
@given(tree=trees, seed=st.integers(0, 10_000))
# Both signed zeros in one program: each reads its own constant array.
@example(tree=Node.call("add", Node.const(-0.0), Node.const(0.0)), seed=0)
def test_execute_matches_tree_evaluation_bit_for_bit(tree, seed):
    columns = _columns(seed)
    want = tree.evaluate(columns)
    with np.errstate(all="ignore"):
        got = execute(to_program(tree), columns, {})
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(tree=trees)
@example(tree=Node.call("max", Node.const(0.0), Node.const(-0.0)))
@example(tree=Node.call("min", Node.const(-0.0), Node.const(0.0)))
@example(tree=Node.call("neg", Node.const(math.inf)))
@example(tree=Node.call("add", Node.const(0.0), Node.call("log", Node.const(3.7))))
def test_infix_and_folding_match_the_tree(tree):
    program = to_program(tree)
    assert infix(program) == tree.to_infix()
    folded = fold_constants(tree)
    assert canonical(fold(program)) == canonical(to_program(folded))
    assert infix(fold(program)) == folded.to_infix()


def _through_json(program):
    return from_tokens(json.loads(json.dumps(to_tokens(program))), N_VARIABLES)


@settings(max_examples=200, deadline=None)
@given(tree=trees)
@example(tree=Node.call("add", Node.const(-0.0), Node.const(math.nan)))
@example(tree=Node.call("sub", Node.const(math.inf), Node.const(-math.inf)))
def test_tokens_round_trip_exactly(tree):
    program = to_program(tree)
    assert canonical(_through_json(program)) == canonical(program)


def _malformed(tokens, mutation, where):
    """``tokens`` made invalid in one of six ways; ``where`` picks the
    token a mutation touches."""
    if mutation == "empty":
        return []
    if mutation == "two roots":
        return tokens + tokens
    calls = [i for i, token in enumerate(tokens) if token[0] == "f"]
    leaves = [i for i, token in enumerate(tokens) if token[0] != "f"]
    if not calls and mutation in ("missing operand", "unknown function"):
        mutation = "not a pair"  # a lone leaf has no operand to lose
    if mutation == "missing operand":
        index = leaves[where % len(leaves)]
        return tokens[:index] + tokens[index + 1 :]
    if mutation == "unknown function":
        index = calls[where % len(calls)]
        return tokens[:index] + [["f", "bogus"]] + tokens[index + 1 :]
    index = where % len(tokens)
    if mutation == "unknown kind":
        return tokens[:index] + [["x", tokens[index][1]]] + tokens[index + 1 :]
    return tokens[:index] + [tokens[index][:1]] + tokens[index + 1 :]  # not a pair


@settings(max_examples=200, deadline=None)
@given(
    tree=trees,
    mutation=st.sampled_from(
        ["empty", "two roots", "missing operand", "unknown function", "unknown kind", "not a pair"]
    ),
    where=st.integers(0, 1_000),
)
def test_malformed_tokens_raise_value_error(tree, mutation, where):
    tokens = json.loads(json.dumps(to_tokens(to_program(tree))))
    with pytest.raises(ValueError):
        from_tokens(_malformed(tokens, mutation, where), N_VARIABLES)
