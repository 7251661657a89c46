"""Tests for baseline regressors and formula verification."""

import random

import pytest

from repro.core.baselines import linear_regression, polynomial_fit
from repro.core.response_analysis import PairedDataset
from repro.core.verification import PrecisionRow, check_formula, precision_table
from repro.formulas import AffineFormula, ProductFormula, TwoVarAffineFormula


def dataset(func, n_vars, n=50, seed=3):
    rng = random.Random(seed)
    xs = [tuple(rng.uniform(0, 255) for __ in range(n_vars)) for __ in range(n)]
    return PairedDataset(xs, [func(x) for x in xs]), xs


class TestLinearRegression:
    def test_fits_linear_exactly(self):
        ds, xs = dataset(lambda x: 2.0 * x[0] - 40, 1)
        fit = linear_regression(ds)
        assert fit.fitness < 1e-8
        assert fit((100.0,)) == pytest.approx(160.0)

    def test_cannot_fit_product(self):
        """§4.4: linear regression fails on Y = X0*X1/5."""
        ds, __ = dataset(lambda x: 0.2 * x[0] * x[1], 2)
        fit = linear_regression(ds)
        assert fit.fitness > 100

    def test_too_few_samples(self):
        assert linear_regression(PairedDataset([(1.0,)], [1.0])) is None


class TestPolynomialFit:
    def test_fits_product_via_cross_term(self):
        ds, xs = dataset(lambda x: 0.2 * x[0] * x[1], 2)
        fit = polynomial_fit(ds)
        assert fit.fitness < 1e-6

    def test_fits_quadratic(self):
        ds, __ = dataset(lambda x: 0.01 * x[0] ** 2, 1)
        fit = polynomial_fit(ds)
        assert fit.fitness < 1e-6

    def test_description_lists_terms(self):
        ds, __ = dataset(lambda x: x[0] + 1, 1)
        fit = polynomial_fit(ds)
        assert fit.description.startswith("Y = ")


class TestCheckFormula:
    def test_accepts_equivalent(self):
        truth = AffineFormula(1.8, -40)
        candidate = AffineFormula(1.7, -22)
        samples = [(float(x),) for x in range(0xA0, 0xC1)]
        assert check_formula(candidate, truth, samples)

    def test_rejects_wrong(self):
        truth = AffineFormula(2.0)
        candidate = AffineFormula(3.0)
        assert not check_formula(candidate, truth, [(100.0,)])

    def test_adapts_single_int_candidate_to_byte_samples(self):
        """A candidate over the 16-bit integer vs per-byte samples."""
        truth = TwoVarAffineFormula(64.0, 0.25)  # == (256*X0+X1)/4
        candidate = AffineFormula(0.25)  # over the combined integer
        samples = [(10.0, 128.0), (20.0, 0.0), (5.0, 255.0)]
        assert check_formula(candidate, truth, samples)

    def test_adapts_truth_arity_for_two_byte_single_var(self):
        """Ground truth over a 16-bit X checked against per-byte samples."""
        truth = AffineFormula(0.25)
        candidate = AffineFormula(0.25)
        samples = [(10.0, 128.0)]
        assert check_formula(candidate, truth, samples)

    def test_constant_variable_simplification_accepted(self):
        """§4.3: when X0 is constant, a one-variable formula is correct."""
        truth = ProductFormula(0.01)  # Y = 0.01*X0*X1, X0 == 100 in traffic
        candidate = AffineFormula(1.0)  # Y = X1 ... but arity adaptation
        samples = [(100.0, float(x)) for x in (0, 50, 120, 255)]
        # candidate sees only X0=100 under truncation; build explicit lambda
        from repro.formulas import ExpressionFormula

        candidate = ExpressionFormula(lambda xs: xs[1] * 1.0, 2, "Y = X1")
        assert check_formula(candidate, truth, samples)

    def test_empty_samples_fail(self):
        assert not check_formula(AffineFormula(1), AffineFormula(1), [])

    def test_samples_narrower_than_truth_arity_fail(self):
        """A bit error shortened the ESV's samples below the truth's two
        variables: not exact, and no IndexError."""
        truth = TwoVarAffineFormula(64.0, 0.25)
        candidate = AffineFormula(16.0)
        assert not check_formula(candidate, truth, [(10.0,), (20.0,)])
        assert not check_formula(candidate, truth, [(10.0, 128.0), (20.0,)])


class TestPrecisionTable:
    def test_aggregation(self):
        rows = [PrecisionRow("Car A", 28, 28), PrecisionRow("Car B", 8, 7)]
        table = precision_table(rows)
        assert table["total"] == 36
        assert table["correct"] == 35
        assert table["precision"] == pytest.approx(35 / 36)
        assert rows[1].precision == pytest.approx(7 / 8)

    def test_empty(self):
        assert precision_table([])["precision"] == 0.0
