"""The linear backend's candidate fit equals its row-based form bit for bit.

:class:`~repro.core.inference.LinearBackend` builds each dictionary term
column once per interpretation, takes the MAD-trim median from one sort and
evaluates each distinct rounded coefficient vector once.
``tests/linear_reference.py`` keeps the fit as it was written over sample
tuples: a design matrix per candidate, ``np.median`` and every digit count
of the rounding ladder.  Coefficients and scaled MAE must carry the same
bits, on drawn datasets and on every candidate of the pipeline benchmark's
fleet-long-linear inputs at seed 0.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DPReverser, ReverserConfig
from repro.core.inference import _candidate_terms, _fit_candidate, _median, _TermColumns
from repro.core.response_analysis import (
    PairedDataset,
    _median_magnitude,
    build_dataset,
    interpretations,
    table2_factor,
)
from repro.cps import DataCollector
from repro.tools import make_tool_for_car
from repro.vehicle import CAR_SPECS, build_car

from .linear_reference import fit_candidate as reference_fit


def _bits(values):
    """Bit patterns, with every NaN as one pattern."""
    array = np.asarray(values, dtype=float)
    return np.where(np.isnan(array), np.nan, array).view(np.uint64).tolist()


def check_every_candidate(dataset) -> int:
    """Fit every dictionary candidate both ways; the number fitted."""
    rows = list(map(tuple, dataset.x.tolist()))
    ys = dataset.y.tolist()
    y_factor = table2_factor(_median_magnitude(dataset.y), allow_enlarge=True)
    columns = _TermColumns(dataset.x)
    candidates = _candidate_terms(dataset.n_variables)
    for terms in candidates:
        got = _fit_candidate(terms, columns, dataset.y, y_factor)
        want = reference_fit(terms, rows, ys, y_factor)
        if want is None:
            assert got is None
            continue
        (formula, mae), (reference, reference_mae) = got, want
        assert formula.terms == reference.terms
        assert formula.arity == reference.arity
        assert _bits(formula.coefficients) == _bits(reference.coefficients)
        assert _bits([mae]) == _bits([reference_mae])
    return len(candidates)


@st.composite
def fit_datasets(draw):
    """Raw integers against an affine, product, ratio or curved formula of
    them, optionally rounded as a display would, with a few outliers."""
    arity = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(6, 40))
    raw = st.integers(0, 0xFFFF) if arity == 1 else st.integers(0, 255)
    x = [[float(draw(raw)) for __ in range(arity)] for __ in range(n)]
    scale = draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.01, 2.5, -0.75, 1e-3, 1e4]))
    offset = draw(st.sampled_from([0.0, -40.0, 273.15, 1e5]))
    shape = draw(st.sampled_from(["rescale", "product", "ratio", "curve", "noise"]))
    y = []
    for row in x:
        if shape == "product":
            value = row[0] * row[-1]
        elif shape == "ratio":
            value = row[0] / row[-1] if row[-1] else 0.0
        elif shape == "curve":
            value = row[0] * row[0]
        elif shape == "noise":
            value = draw(st.floats(-1e4, 1e4))
        else:
            value = sum(row)
        y.append(scale * value + offset)
    digits = draw(st.sampled_from([None, 0, 1, 3]))
    if digits is not None:
        y = [round(value, digits) for value in y]
    for index in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        y[index] += draw(st.sampled_from([1e3, -7.5, 0.4]))
    return PairedDataset(x, y)


#: Candidates over every interpretation of every formula ESV of those
#: inputs; the backend itself stops at each interpretation's first exact fit.
FLEET_CANDIDATES = 1614


class TestFitAgainstRowReference:
    @settings(max_examples=300, deadline=None)
    @given(dataset=fit_datasets())
    @example(dataset=PairedDataset([(float(v),) for v in range(10)], [0.1 * v for v in range(10)]))
    @example(dataset=PairedDataset([(7.0, 0.0)] * 3 + [(1.0, 2.0)] * 5, [1.0] * 8))
    def test_drawn_datasets(self, dataset):
        check_every_candidate(dataset)

    def test_every_fleet_long_linear_candidate(self):
        # The benchmark's fleet-long-linear inputs at seed 0: every car,
        # 45 s reads, OCR seed 11.
        fitted = 0
        for key in sorted(CAR_SPECS):
            tool = make_tool_for_car(key, build_car(key))
            capture = DataCollector(tool, read_duration_s=45.0, ocr_seed=11).collect()
            context = DPReverser(ReverserConfig(formula_backend="linear")).analyze(capture)
            for match in context.matches:
                series = context.series.get(match.label)
                if match.method != "correlation" or series is None or not series.is_numeric:
                    continue
                observations = context.grouped[match.identifier]
                for interpretation in interpretations(observations):
                    mode = "bytes" if interpretation in ("bytes", "kwp") else "int"
                    dataset = build_dataset(observations, series, mode)
                    if len(dataset) >= 6:
                        fitted += check_every_candidate(dataset)
        assert fitted == FLEET_CANDIDATES


class TestMedian:
    # Two huge middle values overflow their sum in both.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, 1.0, 1e308, float("inf"), float("nan")]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_equals_numpy_median(self, values):
        array = np.array(values)
        assert _bits([_median(array)]) == _bits([np.median(array)])
