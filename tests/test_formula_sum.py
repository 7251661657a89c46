"""A recovered linear formula evaluates to the same bits on every Python.

The builtin ``sum()`` of floats is compensated (Neumaier) from Python 3.12
on, so a three-term :class:`~repro.core.inference.LinearFormula` summed
with it gave one result on 3.9-3.11 and another on 3.12+.  The formula now
adds its terms left to right from 0.0, which is what ``sum()`` did up to
3.11, so the digest below holds on every supported version.  Terms of
very different magnitude that cancel are the inputs on which the two
summations part.
"""

import hashlib
import random

from repro.core.inference import LinearFormula

FORMULA_DIGEST = "dde73a4a4e1a4a09dfbcff07d505c82d70fd94e7574cc3effb9394666534663e"

SHAPES = (
    (("x0", "1"), 1),
    (("x0>>8", "x0&255", "1"), 1),
    (("x0", "x1", "1"), 2),
    (("x0*x1", "x0/x1", "1"), 2),
)


def formula_outputs():
    rng = random.Random(1979)
    outputs = []
    for __ in range(400):
        terms, arity = rng.choice(SHAPES)
        coefficients = [
            rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-8, 16)
            for __ in terms
        ]
        formula = LinearFormula(terms, coefficients, arity)
        xs = tuple(float(rng.randint(1, 0xFFFF)) for __ in range(arity))
        outputs.append(repr(formula(xs)))
    return outputs


def test_terms_add_left_to_right():
    formula = LinearFormula(("x0", "x1", "1"), (1e16, -1e16, 1.0), arity=2)
    # (1e16 * 3 - 1e16 * 3) + 1.0, in that order.
    assert formula((3.0, 3.0)) == 1.0
    formula = LinearFormula(("x0", "1", "x1"), (1e16, 1.0, -1e16), arity=2)
    # 1e16 + 1.0 rounds back to 1e16 before the cancelling term.
    assert formula((1.0, 1.0)) == 0.0


def test_formula_digest_is_version_independent():
    blob = "\n".join(formula_outputs()).encode()
    assert hashlib.sha256(blob).hexdigest() == FORMULA_DIGEST
