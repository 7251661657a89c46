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
from .fields import EsvColumns
from .gp import FitnessCache, GeneticProgrammer, GpConfig, GpResult
from .gp.program import Program, execute, fold, from_tokens, infix, to_tokens
from .pairing import nearest_pairs
from .screenshot import UiSeries


@dataclass(eq=False)
class PairedDataset:
    """Time-aligned (X, Y) samples for one ESV: ``x`` holds one row per
    sample and one column per variable, ``y`` the paired UI values.

    Both are coerced to float arrays, so rows given as a list of tuples
    work too (a flat list is one variable); an empty dataset has no
    variables.
    """

    x: np.ndarray  # (n, n_variables) float
    y: np.ndarray  # (n,) float

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        self.x = (x.reshape(-1, 1) if x.ndim == 1 else x) if len(self.y) else np.zeros((0, 0))

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_variables(self) -> int:
        return self.x.shape[1]


def build_dataset(
    observations: EsvColumns,
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
    times = series.numeric_times
    if not len(times):
        return PairedDataset(np.zeros((0, 0)), np.zeros(0))
    # Pair only when a frame genuinely belongs to the observation: tighter
    # than half the typical frame spacing, so an observation whose frame was
    # filtered out is skipped rather than paired with a neighbouring frame
    # showing a different value.
    if adaptive_gap and len(times) >= 3:
        gaps = np.sort(np.diff(times))
        median_gap = float(gaps[len(gaps) // 2])
        max_gap_s = min(max_gap_s, 0.6 * median_gap) if median_gap > 0 else max_gap_s
    ix, iy = nearest_pairs(observations.times, times, max_gap_s)
    if not len(ix):
        return PairedDataset(np.zeros((0, 0)), np.zeros(0))
    if observations.protocol != "kwp" and interpretation != "bytes":
        x = observations.int_features()[ix].reshape(-1, 1)
    elif not observations.ragged:
        x = observations.raw[ix].astype(float)
    else:
        # A corrupted capture can yield a minority of observations with a
        # different byte count for the same ESV; keep only the dominant
        # arity (the first seen of equally common ones) so the dataset
        # stays rectangular for scaling and GP.
        raw = observations.raw
        widths = np.array([len(raw[i]) for i in ix.tolist()])
        dominant = Counter(widths.tolist()).most_common(1)[0][0]
        keep = widths == dominant
        ix, iy = ix[keep], iy[keep]
        values = b"".join(raw[i] for i in ix.tolist())
        x = np.frombuffer(values, dtype=np.uint8).reshape(len(ix), dominant).astype(float)
    return PairedDataset(x, series.numeric_values[iy])


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


def _median_magnitude(values: np.ndarray) -> float:
    """The upper middle of the sorted absolute values; 1.0 for none."""
    if not len(values):
        return 1.0
    return float(np.sort(np.abs(values))[len(values) // 2])


@dataclass(eq=False)
class ScaledDataset:
    """Dataset after Tab. 2 pre-processing, with the applied factors."""

    x: np.ndarray  # (n, n_variables) float
    y: np.ndarray  # (n,) float
    x_factors: Tuple[float, ...]
    y_factor: float


def prescale(dataset: PairedDataset) -> ScaledDataset:
    """Apply the Tab. 2 pre-processing to a paired dataset."""
    x_factors = tuple(
        table2_factor(_median_magnitude(column), allow_enlarge=False)
        for column in dataset.x.T
    )
    y_factor = table2_factor(_median_magnitude(dataset.y), allow_enlarge=True)
    x = dataset.x * np.array(x_factors)
    return ScaledDataset(x, dataset.y * y_factor, x_factors, y_factor)


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
    """A recovered formula: a constant-folded GP program plus the Tab. 2
    factors.

    Evaluates ``Y = f(X * xf) / yf`` over columns: each raw column times
    its factor, the program executed over them, the result divided by the
    y factor.  A plain class (no closure) because recovered formulas cross
    process boundaries (the process GP backend pickles them back to the
    parent) and run boundaries (the on-disk formula memo stores them as
    JSON via :meth:`to_payload`/:meth:`from_payload`).
    """

    def __init__(
        self,
        program: Program,
        x_factors: Sequence[float],
        y_factor: float,
        unit: str = "",
    ) -> None:
        self.program = program  # already constant-folded
        self.x_factors = tuple(x_factors)
        self.y_factor = y_factor
        self.arity = len(self.x_factors)
        self.unit = unit

    def evaluate_rows(self, x_rows: Sequence[Sequence[float]]) -> np.ndarray:
        """The formula at every row of raw values."""
        matrix = np.asarray(x_rows, dtype=float)
        columns = [matrix[:, i] * factor for i, factor in enumerate(self.x_factors)]
        with np.errstate(all="ignore"):
            return execute(self.program, columns, {}) / self.y_factor

    def __call__(self, xs: Sequence[float]) -> float:
        return float(self.evaluate_rows([xs])[0])

    def describe(self) -> str:
        inner = infix(self.program)
        for index, factor in enumerate(self.x_factors):
            if factor != 1.0:
                inner = inner.replace(f"X{index}", f"(X{index} * {factor:g})")
        if self.y_factor != 1.0:
            return f"Y = ({inner}) / {self.y_factor:g}"
        return f"Y = ({inner})"

    def to_payload(self) -> dict:
        """JSON-able form; exact round trip via :meth:`from_payload`."""
        return {
            "tree": to_tokens(self.program),
            "x_factors": list(self.x_factors),
            "y_factor": self.y_factor,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ScaledTreeFormula":
        x_factors = [float(f) for f in payload["x_factors"]]
        return cls(
            program=from_tokens(payload["tree"], len(x_factors)),
            x_factors=x_factors,
            y_factor=float(payload["y_factor"]),
        )


def interpretations(observations: EsvColumns) -> List[str]:
    """The interpretations inference tries for an ESV: KWP's two-variable
    layout; for UDS values wider than one byte one big-endian integer and
    one variable per byte; else one integer."""
    if observations.protocol == "kwp":
        return ["kwp"]
    if len(observations) and observations.width() > 1:
        return ["int", "bytes"]
    return ["int"]


def infer_formula(
    observations: EsvColumns,
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
    observations: EsvColumns,
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
    best: Optional[InferredFormula] = None
    for interpretation in interpretations(observations):
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
    # same seeded shapes and small programs — immediate hits.
    cache = FitnessCache()
    tracer = get_active()
    best = None
    for attempt in range(MAX_RESTARTS):
        attempt_config = _replace(config, seed=config.seed + 7919 * attempt)
        with tracer.span("gp_restart", attempt=attempt) as span:
            result = GeneticProgrammer(attempt_config, cache=cache).fit(scaled.x, scaled.y)
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

    columns = [np.ascontiguousarray(column) for column in scaled.x.T]
    with np.errstate(all="ignore"):
        predictions = execute(result.program, columns, {})
    residuals = np.abs(predictions - scaled.y)
    # Python's sort, not numpy's: the two order a NaN residual differently.
    mad = sorted(residuals.tolist())[len(residuals) // 2]
    threshold = max(6.0 * 1.4826 * mad, 1e-6)
    keep = residuals <= threshold
    if 6 <= int(keep.sum()) < len(residuals):
        scaled = prescale(PairedDataset(dataset.x[keep], dataset.y[keep]))
        result = _evolve_with_restarts(config, scaled)

    # Fold the Tab. 2 factors back: Y = f(X*xf) / yf  (post-processing).
    formula = ScaledTreeFormula(fold(result.program), scaled.x_factors, scaled.y_factor)
    return InferredFormula(
        formula=formula,
        description=formula.describe(),
        fitness=result.fitness,
        interpretation=interpretation,
        n_samples=len(dataset),
        generations=result.generations_run,
    )
