"""Cross-ESV batched fitness evaluation.

The engine's evolution loop is written as a *generator*
(:meth:`~repro.core.gp.engine.GeneticProgrammer.fit_steps`): wherever the
old code called the batched fitness math directly, the generator instead
yields a :class:`MaesRequest` — the (P×N) prediction matrix of the
population plus the target vector — and resumes with the per-row MAE
array sent back.  That inversion buys two execution modes for free:

* :func:`drive` runs one generator to completion in-process, evaluating
  every request with exactly the math the old inline call applied — the
  serial path is the same floats in the same order;
* :class:`BatchEvaluator` advances *many* generators (one per in-flight
  ESV) in lock step, collects their pending requests each round, groups
  the ones with the same sample count, and answers a whole group with a
  single merged matrix pass — one (ΣP×N) evaluation per generation
  instead of one (P×N) evaluation per ESV.

The merged pass is bit-identical to the per-ESV passes it replaces:
:func:`batched_maes` applies the same element-wise operations, its
row-wise reductions (``mean(axis=1)``, per-row sorts) process each
contiguous row exactly as the one-request call processes its rows, and
the least-squares dot products already go through one 1-D BLAS call per
row whether the target is the shared vector or a per-row matrix.  The
equivalence suite asserts this on adversarial inputs (non-finite rows,
constant trees, trim/refit branches).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ...observability.trace import NULL_TRACER, activated

#: Fraction of worst residuals excluded by the trimmed fitness
#: (:class:`~repro.core.gp.engine.GeneticProgrammer` re-exports this as
#: ``TRIM_FRACTION`` for back-compat).
TRIM_FRACTION = 0.08


class MaesRequest:
    """One pending fitness evaluation: ``matrix`` rows against ``y``.

    ``matrix`` is the (P, N) float array of per-program predictions,
    ``y`` the shared (N,) target.  ``linear_scaling``/``trim_fraction``
    travel with the request because merged passes may only combine
    requests that agree on them (they change the math, not just the
    shape).
    """

    __slots__ = ("matrix", "y", "linear_scaling", "trim_fraction")

    def __init__(
        self,
        matrix: np.ndarray,
        y: np.ndarray,
        linear_scaling: bool,
        trim_fraction: float = TRIM_FRACTION,
    ) -> None:
        self.matrix = matrix
        self.y = y
        self.linear_scaling = linear_scaling
        self.trim_fraction = trim_fraction

    @property
    def group_key(self) -> Tuple[int, bool, float]:
        """Requests sharing this key may be answered by one merged pass."""
        return (int(self.y.shape[-1]), self.linear_scaling, self.trim_fraction)

    def evaluate(self) -> np.ndarray:
        """Answer this request alone — the serial path's exact math."""
        return batched_maes(self.matrix, self.y, self.linear_scaling, self.trim_fraction)


def drive(gen):
    """Run an evaluation-step generator to completion in-process.

    Each yielded :class:`MaesRequest` is answered immediately by
    :meth:`MaesRequest.evaluate` — the identical call chain the pre-
    generator code inlined — so driving a generator this way produces
    bit-identical results to the old non-generator methods.
    """
    try:
        request = next(gen)
        while True:
            request = gen.send(request.evaluate())
    except StopIteration as stop:
        return stop.value


class BatchEvaluator:
    """Advance many evaluation-step generators in lock step.

    Each round collects the one pending :class:`MaesRequest` per live
    generator, groups requests by :attr:`MaesRequest.group_key`, and
    answers every multi-member group with a single merged
    :func:`batched_maes` pass over the vertically stacked matrices (the
    target becomes one row per stacked row).  Singleton groups take the
    plain per-request path, so a batch of one is literally the serial
    code.

    Generators are advanced under the disabled tracer: span stacks are
    per-thread and interleaved coroutines would otherwise unwind each
    other's nesting.  Callers that want telemetry wrap the whole batch in
    one span instead.
    """

    def run(self, generators: Iterable) -> List:
        generators = list(generators)
        results: List = [None] * len(generators)
        pending = {}

        def _advance(index: int, value) -> None:
            try:
                pending[index] = generators[index].send(value)
            except StopIteration as stop:
                results[index] = stop.value

        with activated(NULL_TRACER):
            for index, gen in enumerate(generators):
                try:
                    pending[index] = next(gen)
                except StopIteration as stop:
                    results[index] = stop.value
            while pending:
                current, pending = pending, {}
                groups: dict = {}
                for index, request in current.items():
                    groups.setdefault(request.group_key, []).append((index, request))
                answers = {}
                for members in groups.values():
                    if len(members) == 1:
                        index, request = members[0]
                        answers[index] = request.evaluate()
                        continue
                    for index, rows in zip(
                        (i for i, __ in members),
                        self._merged_pass([r for __, r in members]),
                    ):
                        answers[index] = rows
                for index, value in answers.items():
                    _advance(index, value)
        return results

    @staticmethod
    def _merged_pass(requests: List[MaesRequest]) -> List[np.ndarray]:
        """One stacked evaluation answering every request in the group."""
        n = requests[0].y.shape[-1]
        total = sum(r.matrix.shape[0] for r in requests)
        F = np.empty((total, n))
        Y = np.empty((total, n))
        offset = 0
        for request in requests:
            rows = request.matrix.shape[0]
            F[offset : offset + rows] = request.matrix
            Y[offset : offset + rows] = request.y  # broadcast across rows
            offset += rows
        merged = batched_maes(
            F, Y, requests[0].linear_scaling, requests[0].trim_fraction
        )
        out: List[np.ndarray] = []
        offset = 0
        for request in requests:
            rows = request.matrix.shape[0]
            out.append(merged[offset : offset + rows])
            offset += rows
        return out


# ------------------------------------------------------------ fitness math


def batched_maes(
    F: np.ndarray,
    y: np.ndarray,
    linear_scaling: bool,
    trim_fraction: float = TRIM_FRACTION,
) -> np.ndarray:
    """The per-tree fitness math, vectorised over population rows.

    Fitness is the mean absolute error after the tree's optimal linear
    scaling ``a*f(X)+b`` (Keijzer 2003; off with ``linear_scaling=False``)
    with the worst ``trim_fraction`` of residuals excluded, first from a
    refit of the scaling and then from the mean, so OCR outliers that
    survived the §3.3 filter cannot reward clip-shaped trees.  Element-wise
    steps run in a fixed order, order-sensitive reductions (means, sorts)
    use numpy's per-row kernels, and the two least-squares dot products go
    through one 1-D BLAS call per row — so each row's fitness is bit-equal
    to a one-row call on that row alone (asserted by the equivalence test
    suite).

    ``y`` is the shared (N,) target for a one-ESV pass, or a (P, N)
    per-row target matrix for a merged cross-ESV pass; each row's result
    is bit-equal either way (per-row reductions over contiguous rows run
    the same kernels as their 1-D counterparts).
    """
    n = F.shape[1]
    per_row = y.ndim == 2
    n_trim = int(np.ceil(n * trim_fraction)) if n >= 10 else 0
    keep = n - n_trim
    with np.errstate(all="ignore"):
        finite_rows = np.isfinite(F).all(axis=1)
        if not linear_scaling:
            E = np.abs(F - y)
            valid = finite_rows & np.isfinite(E).all(axis=1)
            if n_trim:
                E.sort(axis=1)
                maes = np.ascontiguousarray(E[:, :keep]).mean(axis=1)
            else:
                maes = E.mean(axis=1)
            maes[~valid] = np.inf
            return maes

        if per_row:
            y_mean = y.mean(axis=1)
            y_centred = y - y_mean[:, None]
        else:
            y_mean = y.mean()
            y_centred = y - y_mean
        a, b = batched_linear_fit(F, y_centred, y_mean, finite_rows)
        # In-place chain, same operation order as the per-tree
        # ``abs(a*f + b - y)`` expression.
        E1 = a[:, None] * F
        E1 += b[:, None]
        E1 -= y
        np.abs(E1, out=E1)
        valid = finite_rows & np.isfinite(E1).all(axis=1)
        if not n_trim:
            maes = E1.mean(axis=1)
            maes[~valid] = np.inf
            return maes

        inliers = np.argsort(E1, axis=1)[:, :keep]
        f_fit = np.take_along_axis(F, inliers, axis=1)
        y_fit = np.take_along_axis(y, inliers, axis=1) if per_row else y[inliers]
        y_mean2 = y_fit.mean(axis=1)
        y_centred2 = y_fit - y_mean2[:, None]
        a2, b2 = batched_linear_fit(f_fit, y_centred2, y_mean2, valid)
        E2 = a2[:, None] * F
        E2 += b2[:, None]
        E2 -= y
        np.abs(E2, out=E2)
        refit_ok = np.isfinite(E2).all(axis=1)
        E = np.where(refit_ok[:, None], E2, E1)
        E.sort(axis=1)
        maes = np.ascontiguousarray(E[:, :keep]).mean(axis=1)
        maes[~valid] = np.inf
        return maes


def batched_linear_fit(
    f_fit: np.ndarray,
    y_centred: np.ndarray,
    y_mean,
    rows_mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise ``a*f+b`` least squares, dot products via 1-D BLAS.

    ``y_centred`` is shared (1-D) for the one-ESV full-dataset fit and
    per-row (2-D) for the inlier refit and merged cross-ESV passes;
    ``y_mean`` likewise scalar or vector.  A row where the variance
    vanishes gets ``a=0, b=y_mean`` — exactly the constant-tree branch of
    the scalar path, since ``|0*f + y_mean - y|`` equals ``|y_mean - y|``.
    """
    f_mean = f_fit.mean(axis=1)
    centred = f_fit - f_mean[:, None]
    shared = y_centred.ndim == 1
    dot = np.dot
    nan = np.nan
    variance_rows: List[float] = []
    a_num_rows: List[float] = []
    append_var = variance_rows.append
    append_num = a_num_rows.append
    if shared:
        for row, ok in zip(centred, rows_mask.tolist()):
            if ok:
                append_var(dot(row, row))
                append_num(dot(row, y_centred))
            else:  # row already doomed to inf; skip the BLAS calls
                append_var(nan)
                append_num(nan)
    else:
        for row, y_row, ok in zip(centred, y_centred, rows_mask.tolist()):
            if ok:
                append_var(dot(row, row))
                append_num(dot(row, y_row))
            else:
                append_var(nan)
                append_num(nan)
    variance = np.array(variance_rows)
    a_num = np.array(a_num_rows)
    const = variance < 1e-12  # NaN compares False: stays on the a-path
    a = np.where(const, 0.0, a_num / np.where(const, 1.0, variance))
    b = y_mean - a * f_mean
    return a, b
