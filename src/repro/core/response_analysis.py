"""Response-message analysis (§3.5): dataset construction, Tab. 2 scaling,
and formula inference via genetic programming.

Three steps, mirroring the paper:

1. **Pairing** — every raw ESV observation is paired with the UI value
   whose timestamp is nearest (``time_traffic`` ↔ ``time_ui``).
2. **Pre/post-scaling (Tab. 2)** — GP behaves best when inputs and targets
   lie in roughly [1, 10); both X and Y are rescaled by powers of ten
   before evolution and the factors are folded back into the reported
   formula afterwards.  X values, being raw integers ≥ 1, are only ever
   reduced.
3. **GP inference** — evolution over the 14-function set; for UDS values
   wider than one byte two interpretations are tried (one big-endian
   integer vs one variable per byte — the paper's Car R engine speed shows
   manufacturers use both) and the better fit wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..formulas import Formula
from ..observability.trace import get_active
from .fields import EsvObservation
from .gp import (
    FitnessCache,
    GeneticProgrammer,
    GpConfig,
    GpResult,
    Node,
    fold_constants,
    tree_from_tokens,
    tree_to_tokens,
)
from .pairing import nearest_pairs
from .screenshot import UiSeries


@dataclass
class PairedDataset:
    """Time-aligned (X, Y) samples for one ESV."""

    x_rows: List[Tuple[float, ...]]
    y_values: List[float]

    def __len__(self) -> int:
        return len(self.x_rows)

    @property
    def n_variables(self) -> int:
        return len(self.x_rows[0]) if self.x_rows else 0


def build_dataset(
    observations: Sequence[EsvObservation],
    series: UiSeries,
    interpretation: str = "auto",
    max_gap_s: float = 1.5,
    adaptive_gap: bool = True,
) -> PairedDataset:
    """Pair raw observations with nearest-in-time UI values.

    ``interpretation`` selects how multi-byte UDS values become variables:
    ``"int"`` (one big-endian integer), ``"bytes"`` (one variable per
    byte), or KWP's fixed two-variable layout.  ``"auto"`` resolves to
    ``"int"`` here; :func:`infer_formula` tries both.

    ``adaptive_gap`` enables DP-Reverser's pairing guard (skip observations
    whose frame was filtered away instead of mispairing with a neighbour);
    disable it to reproduce the paper's plain nearest-timestamp pairing,
    whose residual mispairing noise is what the §4.4 baselines choke on.
    """
    samples = series.numeric_samples
    x_rows: List[Tuple[float, ...]] = []
    y_values: List[float] = []
    if not samples:
        return PairedDataset(x_rows, y_values)
    times = np.array([s.timestamp for s in samples], dtype=float)
    # Pair only when a frame genuinely belongs to the observation: tighter
    # than half the typical frame spacing, so an observation whose frame was
    # filtered out is skipped rather than paired with a neighbouring frame
    # showing a different value.
    if adaptive_gap and len(samples) >= 3:
        gaps = np.sort(np.diff(times))
        median_gap = float(gaps[len(gaps) // 2])
        max_gap_s = min(max_gap_s, 0.6 * median_gap) if median_gap > 0 else max_gap_s
    ix, iy = nearest_pairs([o.timestamp for o in observations], times, max_gap_s)
    for i, j in zip(ix.tolist(), iy.tolist()):
        obs = observations[i]
        if obs.protocol == "kwp" or interpretation == "bytes":
            xs = tuple(float(v) for v in obs.variables())
        else:
            xs = (float(obs.as_int()),)
        x_rows.append(xs)
        y_values.append(samples[j].value)
    # A corrupted capture can yield a minority of observations with a
    # different byte count for the same ESV; keep only the dominant arity
    # so the dataset stays rectangular for scaling and GP.
    arities = {len(xs) for xs in x_rows}
    if len(arities) > 1:
        counts = Counter(len(xs) for xs in x_rows)
        dominant = counts.most_common(1)[0][0]
        kept = [
            (xs, y) for xs, y in zip(x_rows, y_values) if len(xs) == dominant
        ]
        x_rows = [xs for xs, __ in kept]
        y_values = [y for __, y in kept]
    return PairedDataset(x_rows, y_values)


# --------------------------------------------------------------- Tab. 2 scale


def table2_factor(magnitude: float, allow_enlarge: bool) -> float:
    """The Tab. 2 rescaling factor for a typical absolute value.

    Returns the multiplier applied to the data (e.g. values in 10^3..10^4
    are multiplied by 10^-3).  X values are integers ≥ 1, so they are only
    ever reduced (``allow_enlarge=False``).
    """
    if magnitude > 1e4:
        return 1e-4
    if magnitude > 1e3:
        return 1e-3
    if magnitude > 1e2:
        return 1e-2
    if magnitude > 10.0:
        return 1e-1
    if not allow_enlarge:
        return 1.0
    if magnitude >= 1.0:
        return 1.0
    if magnitude >= 0.1:
        return 10.0
    if magnitude >= 1e-2:
        return 1e2
    if magnitude >= 1e-3:
        return 1e3
    return 1e4


def _median_magnitude(values: Sequence[float]) -> float:
    magnitudes = sorted(abs(v) for v in values)
    if not magnitudes:
        return 1.0
    return magnitudes[len(magnitudes) // 2]


@dataclass
class ScaledDataset:
    """Dataset after Tab. 2 pre-processing, with the applied factors."""

    x_rows: List[Tuple[float, ...]]
    y_values: List[float]
    x_factors: Tuple[float, ...]
    y_factor: float


def prescale(dataset: PairedDataset) -> ScaledDataset:
    """Apply the Tab. 2 pre-processing to a paired dataset."""
    n_vars = dataset.n_variables
    x_factors = []
    for index in range(n_vars):
        column = [row[index] for row in dataset.x_rows]
        x_factors.append(table2_factor(_median_magnitude(column), allow_enlarge=False))
    y_factor = table2_factor(_median_magnitude(dataset.y_values), allow_enlarge=True)
    x_rows = [
        tuple(value * factor for value, factor in zip(row, x_factors))
        for row in dataset.x_rows
    ]
    y_values = [y * y_factor for y in dataset.y_values]
    return ScaledDataset(x_rows, y_values, tuple(x_factors), y_factor)


# ------------------------------------------------------------------ inference


@dataclass
class InferredFormula:
    """A recovered raw→physical formula with provenance."""

    formula: Formula  # maps *raw* variables to the displayed value
    description: str
    fitness: float  # MAE on the scaled training data
    interpretation: str  # "int" | "bytes" | "kwp"
    n_samples: int
    generations: int
    #: The inference engine that produced the math: ``"gp"`` or
    #: ``"linear"`` (a hybrid run tags each formula with whichever engine
    #: actually solved it).  Reports serialise this only when != "gp", so
    #: pure-GP output stays byte-identical to the pre-backend pipeline.
    backend: str = "gp"
    #: Ensemble agreement: the fraction of paired training samples this
    #: formula reproduces within the paper's §4.2 equivalence tolerance
    #: (:func:`repro.core.inference.sample_agreement`).  Stays at the 1.0
    #: default — and out of serialised reports — on the pure-GP path.
    confidence: float = 1.0

    def __call__(self, xs: Sequence[float]) -> float:
        return self.formula(xs)


class ScaledTreeFormula(Formula):
    """A recovered formula: constant-folded GP tree plus the Tab. 2 factors.

    Evaluates ``Y = f(X * xf) / yf`` through the tree's scalar fast path —
    exactly the operations the closure this class replaced applied, in the
    same order, so reports are byte-identical to the pre-class pipeline.
    A plain class (no closure) because recovered formulas now have to
    cross process boundaries (the process GP backend pickles them back to
    the parent) and run boundaries (the on-disk formula memo stores them
    as JSON via :meth:`to_payload`/:meth:`from_payload`).
    """

    def __init__(
        self,
        tree: Node,
        x_factors: Sequence[float],
        y_factor: float,
        unit: str = "",
    ) -> None:
        self.tree = tree  # already constant-folded
        self.x_factors = tuple(x_factors)
        self.y_factor = y_factor
        self.arity = len(self.x_factors)
        self.unit = unit

    def __call__(self, xs: Sequence[float]) -> float:
        scaled_xs = [x * factor for x, factor in zip(xs, self.x_factors)]
        return self.tree.evaluate_point(scaled_xs) / self.y_factor

    def describe(self) -> str:
        inner = self.tree.to_infix()
        for index, factor in enumerate(self.x_factors):
            if factor != 1.0:
                inner = inner.replace(f"X{index}", f"(X{index} * {factor:g})")
        if self.y_factor != 1.0:
            return f"Y = ({inner}) / {self.y_factor:g}"
        return f"Y = ({inner})"

    def to_payload(self) -> dict:
        """JSON-able form; exact round trip via :meth:`from_payload`."""
        return {
            "tree": tree_to_tokens(self.tree),
            "x_factors": list(self.x_factors),
            "y_factor": self.y_factor,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ScaledTreeFormula":
        return cls(
            tree=tree_from_tokens(payload["tree"]),
            x_factors=[float(f) for f in payload["x_factors"]],
            y_factor=float(payload["y_factor"]),
        )


def _wrap_scaled_tree(tree, scaled: ScaledDataset, interpretation: str) -> Formula:
    """Fold the Tab. 2 factors back: Y = f(X*xf) / yf  (post-processing)."""
    return ScaledTreeFormula(fold_constants(tree), scaled.x_factors, scaled.y_factor)


def infer_formula(
    observations: Sequence[EsvObservation],
    series: UiSeries,
    config: Optional[GpConfig] = None,
    max_gap_s: float = 1.5,
    backend: str = "gp",
) -> Optional[InferredFormula]:
    """Full §3.5 inference for one ESV: pairing → scaling → solver.

    ``backend`` selects the inference engine (``"gp"`` | ``"linear"`` |
    ``"hybrid"``, see :mod:`repro.core.inference`); the default GP path
    evolves both interpretations for UDS values wider than one byte (one
    big-endian integer vs one variable per byte) and returns the better
    fit.  Returns ``None`` when too few samples pair up.

    Dispatches to :func:`repro.core.inference.get_backend` for non-GP
    backends; the import is deferred because :mod:`repro.core.inference`
    imports this module for the GP path.
    """
    if backend != "gp":
        from .inference import get_backend

        return get_backend(backend).infer(observations, series, config, max_gap_s)
    return gp_infer(observations, series, config, max_gap_s)


def gp_infer(
    observations: Sequence[EsvObservation],
    series: UiSeries,
    config: Optional[GpConfig] = None,
    max_gap_s: float = 1.5,
) -> Optional[InferredFormula]:
    """The genetic-programming inference of one ESV.

    Runs all restart attempts, both interpretations and the
    trim-and-refit round.  Interpretations and restarts stay strictly
    sequential: a later attempt only runs if the earlier one's fitness
    says so.
    """
    base_config = config or GpConfig()
    protocol = observations[0].protocol if observations else "uds"
    interpretations: List[str]
    if protocol == "kwp":
        interpretations = ["kwp"]
    elif observations and len(observations[0].raw_bytes) > 1:
        interpretations = ["int", "bytes"]
    else:
        interpretations = ["int"]

    best: Optional[InferredFormula] = None
    for interpretation in interpretations:
        mode = "bytes" if interpretation in ("bytes", "kwp") else "int"
        dataset = build_dataset(observations, series, mode, max_gap_s)
        if len(dataset) < 6:
            continue
        inferred = _fit_robust(dataset, base_config, interpretation)
        if best is None or inferred.fitness < best.fitness:
            best = inferred
    return best


#: Restart evolution with a new seed while the best fitness stays above
#: this (scaled-space) error; the values in play are ~[1, 10].
RESTART_FITNESS = 0.02
MAX_RESTARTS = 3


def _evolve_with_restarts(config: GpConfig, scaled: "ScaledDataset") -> GpResult:
    from dataclasses import replace as _replace

    # One fitness cache spans every restart attempt: the dataset is the
    # same, only the seed changes, and restart populations re-derive the
    # same seeded shapes and small trees — immediate hits.
    cache = FitnessCache() if config.fitness_cache else None
    tracer = get_active()
    best = None
    for attempt in range(MAX_RESTARTS):
        attempt_config = _replace(config, seed=config.seed + 7919 * attempt)
        with tracer.span("gp_restart", attempt=attempt) as span:
            result = GeneticProgrammer(attempt_config, cache=cache).fit(
                scaled.x_rows, scaled.y_values
            )
            span.set(
                fitness=round(result.fitness, 6),
                generations=result.generations_run,
            )
        if best is None or result.fitness < best.fitness:
            best = result
        if best.fitness <= RESTART_FITNESS:
            break
    return best


def _fit_robust(
    dataset: PairedDataset, config: GpConfig, interpretation: str
) -> InferredFormula:
    """GP fit with one trim-and-refit round.

    OCR errors that survive the §3.3 filter (small digit confusions on
    fast-moving signals) show up as isolated large residuals against the
    first fit; trimming them and evolving once more is the robust-regression
    counterpart of the outlier tolerance the paper attributes to GP (§4.4).

    When a run converges to a visibly poor optimum, evolution restarts with
    a fresh seed (up to :data:`MAX_RESTARTS` times) and the best result
    wins — the multi-run equivalent of the paper's larger 1000x30 budget.
    """
    scaled = prescale(dataset)
    result = _evolve_with_restarts(config, scaled)

    # One vectorised evaluation; the tree primitives are bit-identical to
    # the scalar path, so the residuals match a per-sample loop exactly.
    x_matrix = np.asarray(scaled.x_rows, dtype=float)
    columns = [np.ascontiguousarray(x_matrix[:, i]) for i in range(x_matrix.shape[1])]
    predictions = result.tree.evaluate(columns)
    residuals = list(np.abs(predictions - np.asarray(scaled.y_values)))
    sorted_residuals = sorted(residuals)
    mad = sorted_residuals[len(sorted_residuals) // 2]
    threshold = max(6.0 * 1.4826 * mad, 1e-6)
    keep = [i for i, r in enumerate(residuals) if r <= threshold]
    if len(keep) >= 6 and len(keep) < len(residuals):
        trimmed = PairedDataset(
            [dataset.x_rows[i] for i in keep], [dataset.y_values[i] for i in keep]
        )
        scaled = prescale(trimmed)
        result = _evolve_with_restarts(config, scaled)

    formula = _wrap_scaled_tree(result.tree, scaled, interpretation)
    return InferredFormula(
        formula=formula,
        description=formula.describe(),
        fitness=result.fitness,
        interpretation=interpretation,
        n_samples=len(dataset),
        generations=result.generations_run,
    )
