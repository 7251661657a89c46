"""Tests for the genetic-programming engine: trees, evolution, folding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gp import (
    DEFAULT_FUNCTION_NAMES,
    FUNCTION_SET,
    GeneticProgrammer,
    GpConfig,
    Node,
    batched_maes,
    fold_constants,
    pretty,
    random_tree,
)


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
        tree = Node.call("add", Node.call("mul", Node.var(0), Node.const(2.0)), Node.const(1.0))
        assert tree.evaluate_point([3.0]) == 7.0

    def test_vectorised_evaluation(self):
        tree = Node.call("mul", Node.var(0), Node.var(1))
        columns = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
        assert list(tree.evaluate(columns)) == [10.0, 40.0]

    def test_size_and_depth(self):
        tree = Node.call("add", Node.var(0), Node.call("neg", Node.const(1.0)))
        assert tree.size() == 4
        assert tree.depth() == 3

    def test_copy_is_deep(self):
        tree = Node.call("add", Node.var(0), Node.const(1.0))
        clone = tree.copy()
        clone.children[1].constant = 99.0
        assert tree.children[1].constant == 1.0

    def test_variables_used(self):
        tree = Node.call("add", Node.var(0), Node.call("mul", Node.var(1), Node.var(1)))
        assert tree.variables_used() == {0, 1}

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Node.call("add", Node.var(0))

    def test_random_tree_respects_depth(self):
        rng = random.Random(3)
        for __ in range(50):
            tree = random_tree(rng, 2, DEFAULT_FUNCTION_NAMES, max_depth=4)
            assert tree.depth() <= 4

    def test_infix_rendering(self):
        tree = Node.call("div", Node.var(0), Node.const(2.55))
        assert tree.to_infix() == "(X0 / 2.55)"


class TestFolding:
    def test_constant_subtree_folds(self):
        tree = Node.call("add", Node.const(2.0), Node.const(3.0))
        assert fold_constants(tree).constant == 5.0

    def test_identity_rules(self):
        x = Node.var(0)
        assert fold_constants(Node.call("mul", x, Node.const(1.0))).var_index == 0
        assert fold_constants(Node.call("add", Node.const(0.0), x)).var_index == 0
        assert fold_constants(Node.call("mul", x, Node.const(0.0))).constant == 0.0

    def test_pretty(self):
        tree = Node.call("mul", Node.const(0.2), Node.call("mul", Node.var(0), Node.var(1)))
        assert pretty(tree) == "Y = (0.2 * (X0 * X1))"


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
