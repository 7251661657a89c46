"""Tests for the genetic-programming engine: programs, evolution, folding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import ScaledTreeFormula
from repro.core.gp import (
    DEFAULT_FUNCTION_NAMES,
    FUNCTION_SET,
    GeneticProgrammer,
    GpConfig,
    batched_maes,
)
from repro.core.gp.batch import batched_linear_fit
from repro.core.gp.program import call, const, depth, execute, fold, infix, program_grower, var


class TestFunctionSet:
    def test_exactly_fourteen_functions(self):
        """§6: the prototype supports 14 kinds of functions."""
        assert len(FUNCTION_SET) == 14

    def test_paper_named_functions_present(self):
        for name in ("add", "sub", "mul", "div", "sqrt", "log", "abs", "neg", "max"):
            assert name in FUNCTION_SET

    def test_protected_division(self):
        div = FUNCTION_SET["div"].func
        assert div(np.array([1.0]), np.array([0.0]))[0] == 1.0
        assert div(np.array([6.0]), np.array([2.0]))[0] == 3.0

    def test_protected_sqrt_and_log(self):
        assert FUNCTION_SET["sqrt"].func(np.array([-4.0]))[0] == 2.0
        assert FUNCTION_SET["log"].func(np.array([0.0]))[0] == 0.0


class TestTree:
    def test_evaluate_point(self):
        program = call("add", call("mul", var(0), const(2.0)), const(1.0))
        assert ScaledTreeFormula(program, (1.0,), 1.0)([3.0]) == 7.0

    def test_vectorised_evaluation(self):
        program = call("mul", var(0), var(1))
        columns = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
        assert list(execute(program, columns, {})) == [10.0, 40.0]

    def test_size_and_depth(self):
        program = call("add", var(0), call("neg", const(1.0)))
        assert len(program) == 4
        assert depth(program) == 3

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            call("add", var(0))

    def test_random_tree_respects_depth(self):
        grow = program_grower(random.Random(3), 2, DEFAULT_FUNCTION_NAMES, 10.0)
        for __ in range(50):
            assert depth(grow(4)) <= 4

    def test_infix_rendering(self):
        assert infix(call("div", var(0), const(2.55))) == "(X0 / 2.55)"


class TestFolding:
    def test_constant_subtree_folds(self):
        assert fold(call("add", const(2.0), const(3.0))) == const(5.0)

    def test_identity_rules(self):
        x = var(0)
        assert fold(call("mul", x, const(1.0))) == x
        assert fold(call("add", const(0.0), x)) == x
        assert fold(call("mul", x, const(0.0))) == const(0.0)

    def test_pretty(self):
        program = call("mul", const(0.2), call("mul", var(0), var(1)))
        formula = ScaledTreeFormula(fold(program), (1.0, 1.0), 1.0)
        assert formula.describe() == "Y = ((0.2 * (X0 * X1)))"


class TestEvolution:
    def fit(self, func, n_vars, n=60, seed=5, **config_kwargs):
        rng = random.Random(seed)
        xs = [tuple(rng.uniform(1, 10) for __ in range(n_vars)) for __ in range(n)]
        ys = [func(x) for x in xs]
        result = GeneticProgrammer(GpConfig(seed=seed, **config_kwargs)).fit(xs, ys)
        return result, xs, ys

    def test_linear_converges_immediately(self):
        result, xs, ys = self.fit(lambda x: 1.8 * x[0] - 4.0, 1)
        assert result.fitness < 1e-6

    def test_product_recovered(self):
        result, xs, ys = self.fit(lambda x: 0.2 * x[0] * x[1], 2)
        assert result.fitness < 1e-3

    def test_quadratic_recovered(self):
        result, xs, ys = self.fit(lambda x: 0.5 * x[0] ** 2, 1)
        assert result.fitness < 1e-3

    def test_shifted_product_recovered(self):
        result, __, __ = self.fit(lambda x: 0.1 * x[0] * (x[1] - 1.28), 2)
        assert result.fitness < 0.02

    def test_stops_on_threshold(self):
        result, *_ = self.fit(lambda x: x[0], 1)
        assert result.generations_run < 25  # converged before the budget

    def test_deterministic_given_seed(self):
        a, *_ = self.fit(lambda x: 3 * x[0] + 1, 1, seed=9)
        b, *_ = self.fit(lambda x: 3 * x[0] + 1, 1, seed=9)
        assert a.expression == b.expression

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            GeneticProgrammer().fit([], [])

    def test_trimmed_fitness_ignores_outliers(self):
        rng = random.Random(11)
        xs = [(rng.uniform(1, 10),) for __ in range(60)]
        ys = [2.0 * x[0] for x in xs]
        ys[7] *= 10  # one corrupted target
        result = GeneticProgrammer(GpConfig(seed=11)).fit(xs, ys)
        clean = [(x, y) for i, (x, y) in enumerate(zip(xs, ys)) if i != 7]
        errors = [abs(result.predict(x) - y) for x, y in clean]
        assert max(errors) < 0.5

    def test_predict_matches_tree(self):
        result, xs, ys = self.fit(lambda x: x[0] + 2, 1)
        assert result.predict((5.0,)) == pytest.approx(7.0, abs=0.01)


class TestBatchedMaes:
    def test_all_invalid_rows_go_inf(self):
        rng = np.random.default_rng(11)
        F = np.full((3, 12), np.nan)
        y = rng.normal(size=12) * 5.0
        assert np.isinf(batched_maes(F, y, True)).all()


FIT_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, np.inf, -np.inf, np.nan]),
)


@st.composite
def linear_fit_inputs(draw):
    """A prediction matrix with NaN/inf rows, a shared or per-row target,
    and a row mask that may keep non-finite rows."""
    rows = draw(st.integers(1, 6))
    columns = draw(st.integers(1, 24))
    F = draw(hnp.arrays(np.float64, (rows, columns), elements=FIT_VALUES))
    per_row = draw(st.booleans())
    y = draw(hnp.arrays(np.float64, (rows, columns) if per_row else columns, elements=FIT_VALUES))
    with np.errstate(all="ignore"):
        y_mean = y.mean(axis=-1)
        y_centred = y - (y_mean[:, None] if per_row else y_mean)
    if draw(st.booleans()):
        mask = np.isfinite(F).all(axis=1)
    else:
        mask = draw(hnp.arrays(np.bool_, rows))
    return F, y_centred, y_mean, mask


def per_row_linear_fit(f_fit, y_centred, y_mean, rows_mask):
    """The reference: two :func:`numpy.dot` calls per kept row."""
    f_mean = f_fit.mean(axis=1)
    centred = f_fit - f_mean[:, None]
    variance = np.full(len(f_fit), np.nan)
    a_num = np.full(len(f_fit), np.nan)
    for row in np.flatnonzero(rows_mask).tolist():
        target = y_centred if y_centred.ndim == 1 else y_centred[row]
        variance[row] = np.dot(centred[row], centred[row])
        a_num[row] = np.dot(centred[row], target)
    const = variance < 1e-12
    a = np.where(const, 0.0, a_num / np.where(const, 1.0, variance))
    return a, y_mean - a * f_mean


class TestBatchedLinearFit:
    @settings(max_examples=300, deadline=None)
    @given(linear_fit_inputs())
    def test_every_row_bit_equal_to_per_row_dot(self, inputs):
        with np.errstate(all="ignore"):
            got = batched_linear_fit(*inputs)
            want = per_row_linear_fit(*inputs)
        for mine, theirs in zip(got, want):
            assert mine.tobytes() == np.asarray(theirs, dtype=np.float64).tobytes()
