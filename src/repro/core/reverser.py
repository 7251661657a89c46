"""The DP-Reverser facade: capture in, reverse-engineering report out.

Pipeline (Fig. 6a):

1. diagnostic-frames analysis — screening, payload assembly, field
   extraction (:mod:`screening`, :mod:`assembly`, :mod:`fields`);
2. screenshot analysis — OCR the UI video, build per-label series, filter
   OCR errors (:mod:`screenshot`);
3. alignment — correct the camera-vs-sniffer clock offset via the OBD-II
   anchor when present (:mod:`alignment`);
4. request-message analysis — associate DIDs/local-ids with UI semantics
   (:mod:`request_analysis`);
5. response-message analysis — infer proprietary formulas with GP
   (:mod:`response_analysis`);
6. ECR analysis — recover the three-message control procedures
   (:mod:`ecr_analysis`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..can.noise import FaultCounts, NoiseProfile, apply_noise
from ..cps.collector import Capture
from ..cps.ocr import OcrEngine
from ..observability.trace import NULL_TRACER, Tracer, activated, get_active
from .alignment import estimate_offset_via_obd, shift_series
from .assembly import AssembledMessage, DecodeDiagnostics, assemble_with_diagnostics
from .ecr_analysis import EcrProcedure, attach_semantics, extract_procedures
from .fields import EsvObservation, ExtractedFields, extract_fields
from .formula_memo import FormulaMemo, dataset_key
from .gp import GpConfig
from .pairing import nearest_pairs
from .request_analysis import ColumnView, SemanticMatch
from .response_analysis import InferredFormula, infer_formula
from .screenshot import FilterReport, UiSeries, extract_ui_series, filter_ui_series

#: Execution backends for per-ESV formula inference (*where* it runs).
_GP_BACKENDS = frozenset({"auto", "serial", "process"})

#: Inference backends for per-ESV formula inference (*which engine* runs);
#: see :mod:`repro.core.inference`.
_FORMULA_BACKENDS = frozenset({"gp", "linear", "hybrid"})


@dataclass(frozen=True)
class ReverserConfig:
    """Every knob of the reverse-engineering pipeline in one place.

    The single constructor path of :class:`DPReverser` (the legacy
    positional-``GpConfig``/kwargs shims were removed after a deprecation
    cycle).
    """

    #: GP search parameters for formula inference (default: paper settings).
    gp_config: Optional[GpConfig] = None
    #: Seed of the simulated OCR engine reading the tool's UI video.
    ocr_seed: int = 23
    #: Estimate and correct the camera-vs-sniffer clock offset (§3.3).
    estimate_alignment: bool = True
    #: Worker count for per-ESV formula inference (1 = serial in-process).
    gp_workers: int = 1
    #: Execution backend for per-ESV formula inference.  ``"serial"`` runs
    #: every ESV in-process; ``"process"`` submits one task per ESV to a
    #: persistent pool of ``gp_workers`` worker processes, shared by every
    #: reverser with the same worker/memo/trace configuration
    #: (:mod:`repro.core.gp.pool`; the GP hot path is pure Python, so only
    #: processes escape the GIL); ``"auto"`` picks ``"process"`` when
    #: ``gp_workers > 1`` and a pass has more than one ESV, ``"serial"``
    #: otherwise.  Every backend produces byte-identical reports; only
    #: wall-clock differs.
    gp_backend: str = "auto"
    #: *Inference* backend for formula recovery — which engine turns a
    #: paired dataset into a formula, orthogonal to :attr:`gp_backend`
    #: (which only picks where inference executes).  ``"gp"`` evolves
    #: every formula (the paper's path, byte-identical to before this
    #: knob existed); ``"linear"`` solves a closed-form feature
    #: dictionary and returns only exact fits; ``"hybrid"`` tries linear
    #: first and falls back to GP for the hard tail
    #: (:mod:`repro.core.inference`).
    formula_backend: str = "gp"
    #: Ignored: nothing reads it.  It remains only because the pipeline
    #: benchmark's worker still passes ``gp_batch=True``; it is deleted
    #: together with that argument.
    gp_batch: bool = False
    #: Directory of the cross-run formula memo store
    #: (:class:`~repro.core.formula_memo.FormulaMemo`).  Empty string
    #: disables memoisation.
    gp_memo_dir: str = ""
    #: Fault injection applied to the capture before payload assembly —
    #: models a lossy OBD sniffer on a healthy bus.  ``None`` (the
    #: default) leaves the capture byte-identical to the clean pipeline.
    noise: Optional[NoiseProfile] = None
    #: Tracer recording a hierarchical span per pipeline stage, GP task,
    #: restart and memo lookup (:mod:`repro.observability.trace`) — the
    #: pipeline's only timer.  ``None`` (the default) uses the shared
    #: disabled tracer: zero overhead, and the report stays byte-identical
    #: either way.
    trace: Optional[Tracer] = None


@dataclass
class ReversedEsv:
    """One reverse-engineered ECU signal value."""

    identifier: str  # e.g. "uds:F400" / "kwp:01/0" / "obd2:0C"
    protocol: str
    label: str  # semantic meaning recovered from the UI
    formula: Optional[InferredFormula]
    is_enum: bool
    enum_states: Dict[int, str] = field(default_factory=dict)
    samples: List[Tuple[float, ...]] = field(default_factory=list)
    match_score: float = 0.0
    formula_type: int = 0  # KWP formula-type byte

    @property
    def request_format(self) -> str:
        """The request message that reads this ESV."""
        kind, __, rest = self.identifier.partition(":")
        if kind == "uds":
            return f"22 {rest[:2]} {rest[2:]}"
        if kind == "kwp":
            local_id = rest.split("/")[0]
            return f"21 {local_id}"
        return f"01 {rest}"


@dataclass
class ReverseReport:
    """Everything DP-Reverser recovered from one capture."""

    model: str
    tool_name: str
    transport: str
    esvs: List[ReversedEsv]
    ecrs: List[EcrProcedure]
    camera_offset_estimate: Optional[float]
    filter_reports: Dict[str, FilterReport]
    n_messages: int
    n_frames: int
    #: Capture-quality accounting from payload assembly (``None`` for
    #: pre-assembled message paths such as K-Line byte logs).
    diagnostics: Optional[DecodeDiagnostics] = None
    #: Fault-injection totals when the pipeline ran with a noise profile.
    noise_counts: Optional[FaultCounts] = None
    #: The *requested* inference backend (``gp``/``linear``/``hybrid``);
    #: individual formulas carry the engine that actually solved them in
    #: :attr:`~repro.core.response_analysis.InferredFormula.backend`.
    formula_backend: str = "gp"

    @property
    def formula_esvs(self) -> List[ReversedEsv]:
        return [e for e in self.esvs if not e.is_enum and e.formula is not None]

    @property
    def enum_esvs(self) -> List[ReversedEsv]:
        return [e for e in self.esvs if e.is_enum]

    def esv_by_label(self, label: str) -> Optional[ReversedEsv]:
        for esv in self.esvs:
            if esv.label == label:
                return esv
        return None

    def recovery_by_ecu(self) -> Dict[str, Dict[str, int]]:
        """Recovered-vs-lost message counts per conversation (CAN id).

        Empty when the capture carried no decode diagnostics (pre-assembled
        message paths).  ``lost`` counts multi-frame messages abandoned by
        a decoder resync; ``errors`` counts discarded malformed frames.
        """
        if self.diagnostics is None:
            return {}
        return {
            f"{can_id:#x}": {
                "recovered": stats.payloads,
                "lost": stats.messages_lost,
                "errors": stats.errors,
            }
            for can_id, stats in sorted(self.diagnostics.streams.items())
        }

    def to_dict(self) -> dict:
        """JSON-serialisable form of the report (for tooling pipelines).

        The ``capture_quality`` key appears only when decoding was not
        perfectly clean, keeping clean-run output (and everything hashed
        from it) byte-identical to the pre-noise pipeline.  The same
        gating applies to the inference-backend fields: the top-level
        ``formula_backend`` key appears only for non-GP runs, and a
        per-ESV ``backend``/``confidence`` pair only on formulas the
        linear engine produced — so a pure-GP report is byte-identical to
        the pre-backend pipeline, and a hybrid run's GP-tail ESV entries
        are byte-identical to a pure-GP run's.
        """
        quality = None
        if self.diagnostics is not None and not self.diagnostics.clean:
            quality = {
                "decode": self.diagnostics.to_dict(),
                "recovery_by_ecu": self.recovery_by_ecu(),
            }
            if self.noise_counts is not None:
                quality["noise"] = self.noise_counts.to_dict()
        return {
            **({"capture_quality": quality} if quality else {}),
            **(
                {"formula_backend": self.formula_backend}
                if self.formula_backend != "gp"
                else {}
            ),
            "model": self.model,
            "tool_name": self.tool_name,
            "transport": self.transport,
            "n_frames": self.n_frames,
            "n_messages": self.n_messages,
            "camera_offset_estimate": self.camera_offset_estimate,
            "esvs": [
                {
                    "identifier": esv.identifier,
                    "protocol": esv.protocol,
                    "request": esv.request_format,
                    "label": esv.label,
                    "is_enum": esv.is_enum,
                    "formula": esv.formula.description if esv.formula else None,
                    **(
                        {
                            "backend": esv.formula.backend,
                            "confidence": round(esv.formula.confidence, 4),
                        }
                        if esv.formula is not None and esv.formula.backend != "gp"
                        else {}
                    ),
                    "enum_states": {
                        str(raw): text for raw, text in esv.enum_states.items()
                    },
                    "n_samples": len(esv.samples),
                    "match_score": round(esv.match_score, 4),
                }
                for esv in self.esvs
            ],
            "ecrs": [
                {
                    "service": f"{ecr.service:02X}",
                    "identifier": f"{ecr.identifier:04X}",
                    "label": ecr.label,
                    "control_state": ecr.control_state.hex(" ").upper(),
                    "procedure": ecr.request_pattern,
                    "complete": ecr.complete,
                }
                for ecr in self.ecrs
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def to_markdown(self) -> str:
        """Human-readable report (the artefact a pentester files)."""
        lines = [
            f"# Reverse-engineering report: {self.model}",
            "",
            f"- Tool: {self.tool_name}",
            f"- Transport: {self.transport}",
            f"- Capture: {self.n_frames} frames, {self.n_messages} messages",
            "",
            "## ECU signal values",
            "",
            "| Request | Meaning | Formula / states |",
            "|---|---|---|",
        ]
        for esv in self.esvs:
            if esv.is_enum:
                states = ", ".join(
                    f"{raw}={text}" for raw, text in sorted(esv.enum_states.items())
                )
                detail = f"enum: {states}" if states else "enum"
            else:
                detail = esv.formula.description if esv.formula else "?"
            lines.append(f"| `{esv.request_format}` | {esv.label} | `{detail}` |")
        lines += ["", "## Control procedures", ""]
        if not self.ecrs:
            lines.append("(none observed)")
        for ecr in self.ecrs:
            lines.append(f"- **{ecr.label or hex(ecr.identifier)}**: `{ecr.request_pattern}`")
        return "\n".join(lines)

    def summary(self) -> str:
        lines = [
            f"Model: {self.model} (tool: {self.tool_name}, transport: {self.transport})",
            f"Frames: {self.n_frames}, assembled messages: {self.n_messages}",
            f"ESVs reversed: {len(self.esvs)} "
            f"({len(self.formula_esvs)} with formulas, {len(self.enum_esvs)} enum)",
            f"Control procedures: {len(self.ecrs)}",
        ]
        if self.diagnostics is not None and not self.diagnostics.clean:
            stats = self.diagnostics.stats
            lines.append(
                f"Capture quality: {stats.errors} decode errors, "
                f"{stats.resyncs} resyncs, {stats.messages_lost} messages lost"
            )
        for esv in self.esvs:
            if esv.formula is not None:
                lines.append(
                    f"  [{esv.request_format}] {esv.label}: {esv.formula.description}"
                )
            else:
                lines.append(f"  [{esv.request_format}] {esv.label}: enum")
        for ecr in self.ecrs:
            lines.append(f"  [ECR] {ecr.label or '?'}: {ecr.request_pattern}")
        return "\n".join(lines)


@dataclass
class _FormulaTask:
    """One pending GP inference, lean enough to cross a process boundary.

    Carries only what :func:`infer_formula` needs — the paired dataset,
    the per-ESV seeded :class:`GpConfig` and the identity scalars for the
    resulting :class:`ReversedEsv`.  Never the reverser, capture or bus
    objects: the pickled payload stays a few kilobytes per ESV.

    ``slot`` is the ESV's position in the report, fixed at plan time so the
    output order is identical whether the tasks run serially or fan out
    over the process pool.
    """

    slot: int
    identifier: str
    label: str
    match_score: float
    observations: List[EsvObservation]
    series: UiSeries
    config: GpConfig
    protocol: str
    formula_type: int
    #: Requested inference backend (``gp``/``linear``/``hybrid``); rides
    #: in the pickled payload so pool workers run the same engine — and
    #: key the memo the same way — as the serial path.
    backend: str = "gp"


@dataclass
class _TaskOutcome:
    """What one executed formula task sends back to the planner."""

    slot: int
    esv: ReversedEsv
    memo_hit: Optional[bool]  # None when memoisation was off
    #: Spans recorded inside a pool worker (exported dict form) — a
    #: worker's tracer cannot cross the process boundary, so the parent
    #: grafts them into its own tracer during the deterministic slot-order
    #: merge.  Empty unless tracing is on.
    spans: List[dict] = field(default_factory=list)


def _esv_from_task(
    task: _FormulaTask, inferred: Optional[InferredFormula]
) -> ReversedEsv:
    """The report entry for one executed (or recalled) formula task."""
    return ReversedEsv(
        identifier=task.identifier,
        protocol=task.protocol,
        label=task.label,
        formula=inferred,
        is_enum=False,
        samples=[tuple(o.variables()) for o in task.observations],
        match_score=task.match_score,
        formula_type=task.formula_type,
    )


def _execute_formula_task(
    task: _FormulaTask, memo: Optional[FormulaMemo]
) -> Tuple[ReversedEsv, Optional[bool]]:
    """Run (or recall) one ESV's inference.  Shared by every backend."""
    memo_hit: Optional[bool] = None
    if memo is not None:
        with get_active().span("memo_lookup", esv=task.identifier) as span:
            key = dataset_key(
                task.observations, task.series, task.config, backend=task.backend
            )
            memo_hit, inferred = memo.get(key)
            span.set(hit=memo_hit)
        if not memo_hit:
            inferred = infer_formula(
                task.observations, task.series, task.config, backend=task.backend
            )
            memo.put(key, inferred)
    else:
        inferred = infer_formula(
            task.observations, task.series, task.config, backend=task.backend
        )
    return _esv_from_task(task, inferred), memo_hit


#: Per-process state for the ``process`` GP backend, installed once per pool
#: worker by :func:`_gp_worker_init`.  Module-level because a
#: process pool only ships module-level callables.
_WORKER_MEMO: Optional[FormulaMemo] = None
_WORKER_TRACE: bool = False


def _gp_worker_init(memo_dir: str, trace: bool = False) -> None:
    """Set up one pool worker: the memo handle and the trace flag.

    Runs inside the child process right after it starts (spawn-safe — it
    touches only module-level state), so every task submitted afterwards
    finds a single memo handle instead of reopening the store per task.
    ``trace`` mirrors the parent tracer's enabled flag: workers record
    spans into a per-task tracer and ship them back in the
    :class:`_TaskOutcome`.
    """
    global _WORKER_MEMO, _WORKER_TRACE
    _WORKER_MEMO = FormulaMemo(memo_dir) if memo_dir else None
    _WORKER_TRACE = trace


def _run_formula_task(task: _FormulaTask) -> _TaskOutcome:
    """Process-pool entry point: execute one task against worker state."""
    if _WORKER_TRACE:
        tracer = Tracer()
        with activated(tracer):
            with tracer.span("gp_formula", esv=task.identifier, backend=task.backend):
                esv, memo_hit = _execute_formula_task(task, _WORKER_MEMO)
        return _TaskOutcome(task.slot, esv, memo_hit, tracer.export_payload())
    esv, memo_hit = _execute_formula_task(task, _WORKER_MEMO)
    return _TaskOutcome(task.slot, esv, memo_hit)


@dataclass
class AnalysisContext:
    """Intermediate pipeline state, exposed so benches can reuse the exact
    same datasets with alternative inference algorithms (Tab. 10)."""

    capture: Capture
    transport: str
    messages: List[AssembledMessage]
    fields: ExtractedFields
    grouped: Dict[str, List[EsvObservation]]
    series: Dict[str, UiSeries]  # filtered, alignment-corrected
    series_raw: Dict[str, UiSeries]  # unfiltered (for robustness ablations)
    filter_reports: Dict[str, FilterReport]
    matches: List[SemanticMatch]
    offset: Optional[float]
    #: Capture-quality accounting from payload assembly (``None`` when the
    #: caller supplied pre-assembled messages).
    diagnostics: Optional[DecodeDiagnostics] = None
    #: Fault-injection totals when the capture passed through a noise
    #: profile before assembly.
    noise_counts: Optional[FaultCounts] = None


class DPReverser:
    """The reverse-engineering pipeline.

    Configured with a single :class:`ReverserConfig`::

        reverser = DPReverser(ReverserConfig(gp_config=GpConfig(seed=2)))

    The legacy call shapes (a bare :class:`GpConfig` as the first
    argument; loose keyword arguments) were removed after a deprecation
    cycle and now raise :class:`TypeError`.
    """

    def __init__(self, config: Optional[ReverserConfig] = None) -> None:
        if config is not None and not isinstance(config, ReverserConfig):
            raise TypeError(
                "DPReverser takes a ReverserConfig; the legacy "
                "positional-GpConfig form was removed — use "
                f"ReverserConfig(gp_config=...), got {type(config).__name__}"
            )
        self.config = config or ReverserConfig()
        if self.config.gp_workers < 1:
            raise ValueError(
                f"need at least one GP worker, got {self.config.gp_workers}"
            )
        if self.config.gp_backend not in _GP_BACKENDS:
            raise ValueError(
                f"unknown gp_backend {self.config.gp_backend!r}; "
                f"choose one of {sorted(_GP_BACKENDS)}"
            )
        if self.config.formula_backend not in _FORMULA_BACKENDS:
            raise ValueError(
                f"unknown formula_backend {self.config.formula_backend!r}; "
                f"choose one of {sorted(_FORMULA_BACKENDS)}"
            )
        # Resolved attribute surface; existing call sites read these.
        self.gp_config = self.config.gp_config or GpConfig()
        self.ocr_seed = self.config.ocr_seed
        self.estimate_alignment = self.config.estimate_alignment
        #: Worker count for per-ESV formula inference.  Each ESV's GP run
        #: is independently seeded (:func:`_stable_seed`) and outcomes
        #: merge back in slot order, so parallel execution changes
        #: wall-clock only, never the report.  The GP hot path is breeding
        #: and the program interpreter loop: Python bytecode dispatching
        #: numpy calls on arrays of a few dozen samples, so the GIL is held
        #: nearly the whole time and threads would serialise on it.  Speedup
        #: needs the ``process`` backend, which ``"auto"`` selects whenever
        #: ``gp_workers > 1``.
        self.gp_workers = self.config.gp_workers
        self.gp_backend = self.config.gp_backend
        self.formula_backend = self.config.formula_backend
        self.gp_memo_dir = str(self.config.gp_memo_dir or "")
        #: Formula-memo traffic accumulated across :meth:`infer` calls;
        #: stays all-zero while memoisation is off.  Besides the aggregate
        #: ``hits``/``misses`` pair, per-backend counts appear lazily as
        #: flat ``"<backend>.hits"``/``"<backend>.misses"`` keys (flat so
        #: the service can merge reverser stats by plain summation).
        self.memo_stats = {"hits": 0, "misses": 0}
        #: Per-inference-engine accounting accumulated across
        #: :meth:`infer` calls: ``"<engine>.formulas"`` counts formulas by
        #: the engine that produced them, ``"<backend>.none"`` inferences
        #: that found no formula, and ``"hybrid.fallbacks"`` the hybrid
        #: ESVs that needed the GP tail.  Exported under the
        #: ``inference.`` metrics prefix.
        self.inference_stats: Dict[str, int] = {}
        noise = self.config.noise
        self.noise = noise if noise is not None and not noise.is_null else None
        #: Tracer for hierarchical stage/GP/memo spans; the shared disabled
        #: tracer when the config carries none, so every stage can open its
        #: span unconditionally.
        self.tracer = self.config.trace or NULL_TRACER

    # -------------------------------------------------------------- stages 1-4

    def analyze(
        self,
        capture: Capture,
        messages: Optional[List[AssembledMessage]] = None,
        transport: str = "",
    ) -> AnalysisContext:
        """Run every stage up to (not including) formula inference.

        ``messages`` may be supplied pre-assembled for captures that did
        not travel over CAN — e.g. K-Line byte logs de-framed by
        :func:`repro.transport.kline.parse_capture`.
        """
        with activated(self.tracer):
            return self._analyze(capture, messages, transport)

    def _analyze(
        self,
        capture: Capture,
        messages: Optional[List[AssembledMessage]],
        transport: str,
    ) -> AnalysisContext:
        diagnostics: Optional[DecodeDiagnostics] = None
        noise_counts: Optional[FaultCounts] = None
        if messages is None:
            frames = list(capture.can_log)
            if self.noise is not None:
                noise_counts = FaultCounts()
                with self.tracer.span("noise"):
                    frames = apply_noise(frames, self.noise, noise_counts)
            with self.tracer.span("assemble"):
                messages, diagnostics = assemble_with_diagnostics(frames, transport)
            transport = diagnostics.transport
        else:
            transport = transport or "kline"
            messages = sorted(messages, key=lambda m: m.t_last)
        return self._analyze_assembled(
            capture, messages, transport, diagnostics, noise_counts
        )

    def analyze_assembled(
        self,
        capture: Capture,
        messages: List[AssembledMessage],
        transport: str,
        diagnostics: Optional[DecodeDiagnostics] = None,
        noise_counts: Optional[FaultCounts] = None,
    ) -> AnalysisContext:
        """Resume the pipeline after payload assembly already happened.

        The entry point for incremental front-ends: the streaming service
        decodes frames as they arrive through
        :class:`~repro.core.assembly.StreamAssembler` and hands the
        finished ``(messages, diagnostics)`` pair here, re-joining the
        exact batch code path from field extraction onward — which is what
        makes a streamed report byte-identical to :meth:`reverse_engineer`
        on the same capture.  ``messages`` must be sorted by ``t_last``,
        the order assembly emits.
        """
        with activated(self.tracer):
            return self._analyze_assembled(
                capture, messages, transport, diagnostics, noise_counts
            )

    def _analyze_assembled(
        self,
        capture: Capture,
        messages: List[AssembledMessage],
        transport: str,
        diagnostics: Optional[DecodeDiagnostics],
        noise_counts: Optional[FaultCounts],
    ) -> AnalysisContext:
        with self.tracer.span("extract_fields"):
            fields = extract_fields(messages)
        grouped = fields.by_identifier()

        with self.tracer.span("screenshot"):
            # One OCR read feeds both the filtered and the unfiltered series.
            ocr = OcrEngine(capture.tool_error_rate, seed=self.ocr_seed)
            series_raw = extract_ui_series(ocr.read_video(list(capture.video)))
            series, reports = filter_ui_series(series_raw)

        offset: Optional[float] = None
        if self.estimate_alignment:
            with self.tracer.span("alignment"):
                offset = estimate_offset_via_obd(fields.observations, series)
            if offset is not None and abs(offset) > 1e-6:
                series = shift_series(series, offset)
                series_raw = shift_series(series_raw, offset)

        with self.tracer.span("match"):
            matches = self._match(grouped, series, capture)
        return AnalysisContext(
            capture=capture,
            transport=transport,
            messages=messages,
            fields=fields,
            grouped=grouped,
            series=series,
            series_raw=series_raw,
            filter_reports=reports,
            matches=matches,
            offset=offset,
            diagnostics=diagnostics,
            noise_counts=noise_counts,
        )

    def _match(
        self,
        grouped: Dict[str, List[EsvObservation]],
        series: Dict[str, UiSeries],
        capture: Capture,
    ) -> List[SemanticMatch]:
        """Semantic matching, per live segment when the click log has them.

        The column view is built once; each segment's window slices it.
        """
        columns = ColumnView(grouped, series)
        live_segments = [s for s in capture.segments if s.kind == "live"]
        if not live_segments:
            return columns.match()
        matches: List[SemanticMatch] = []
        matched_ids: set = set()
        matched_labels: set = set()
        for segment in live_segments:
            window = (segment.t_start - 1.0, segment.t_end + 1.0)
            for match in columns.match(
                window, skip_identifiers=matched_ids, skip_labels=matched_labels
            ):
                matches.append(match)
                matched_ids.add(match.identifier)
                matched_labels.add(match.label)
        return matches

    # ----------------------------------------------------------------- stage 5

    def reverse_engineer(self, capture: Capture) -> ReverseReport:
        """Run the full pipeline on a capture."""
        context = self.analyze(capture)
        return self.infer(context)

    def infer(self, context: AnalysisContext) -> ReverseReport:
        """Formula inference + ECR analysis over an analysis context."""
        with activated(self.tracer):
            return self._infer(context)

    def _infer(self, context: AnalysisContext) -> ReverseReport:
        with self.tracer.span("infer_formulas"):
            esvs = self._infer_esvs(context)
        with self.tracer.span("ecr"):
            procedures = extract_procedures(context.fields.io_events)
            attach_semantics(procedures, context.capture.segments)
        return ReverseReport(
            model=context.capture.model,
            tool_name=context.capture.tool_name,
            transport=context.transport,
            esvs=esvs,
            ecrs=procedures,
            camera_offset_estimate=context.offset,
            filter_reports=context.filter_reports,
            n_messages=len(context.messages),
            n_frames=len(context.capture.can_log),
            diagnostics=context.diagnostics,
            noise_counts=context.noise_counts,
            formula_backend=self.formula_backend,
        )

    def _infer_esvs(self, context: AnalysisContext) -> List[ReversedEsv]:
        """Plan, then execute, formula inference for every matched ESV.

        Enum ESVs resolve during planning (cheap); formula ESVs become
        lean, picklable :class:`_FormulaTask`\\ s that run on the
        configured backend (:attr:`gp_backend` / :attr:`gp_workers`).
        Each task's GP config carries a seed derived from the ESV
        identifier alone, and outcomes merge back in slot order, so every
        backend produces byte-identical reports.
        """
        esvs: List[Optional[ReversedEsv]] = []
        tasks: List[_FormulaTask] = []
        for match in context.matches:
            observations = context.grouped[match.identifier]
            series = context.series.get(match.label)
            if series is None:
                continue
            protocol = observations[0].protocol
            formula_type = observations[0].formula_type
            if match.method == "change-times" or not series.is_numeric:
                esvs.append(
                    ReversedEsv(
                        identifier=match.identifier,
                        protocol=protocol,
                        label=match.label,
                        formula=None,
                        is_enum=True,
                        enum_states=_enum_states(observations, series),
                        samples=[tuple(o.variables()) for o in observations],
                        match_score=match.score,
                        formula_type=formula_type,
                    )
                )
                continue
            config = replace(
                self.gp_config, seed=_stable_seed(match.identifier, self.gp_config.seed)
            )
            tasks.append(
                _FormulaTask(
                    slot=len(esvs),
                    identifier=match.identifier,
                    label=match.label,
                    match_score=match.score,
                    observations=observations,
                    series=series,
                    config=config,
                    protocol=protocol,
                    formula_type=formula_type,
                    backend=self.formula_backend,
                )
            )
            esvs.append(None)  # placeholder filled by the execution pass
        parent = self.tracer.current()
        for outcome in sorted(self._execute_tasks(tasks), key=lambda o: o.slot):
            esvs[outcome.slot] = outcome.esv
            if outcome.memo_hit is not None:
                verdict = "hits" if outcome.memo_hit else "misses"
                self.memo_stats[verdict] += 1
                tagged = f"{self.formula_backend}.{verdict}"
                self.memo_stats[tagged] = self.memo_stats.get(tagged, 0) + 1
            self._record_inference(outcome.esv)
            if outcome.spans:
                self.tracer.absorb(
                    outcome.spans,
                    parent_id=parent.span_id if parent else None,
                )
        return esvs  # type: ignore[return-value]  # every slot is filled

    def _record_inference(self, esv: ReversedEsv) -> None:
        """Accumulate :attr:`inference_stats` for one inference outcome
        (memo recalls included — the entry remembers its engine)."""

        def bump(name: str) -> None:
            self.inference_stats[name] = self.inference_stats.get(name, 0) + 1

        if esv.formula is None:
            bump(f"{self.formula_backend}.none")
            return
        engine = esv.formula.backend
        bump(f"{engine}.formulas")
        if self.formula_backend == "hybrid" and engine == "gp":
            bump("hybrid.fallbacks")

    def _resolve_backend(self, n_tasks: int) -> str:
        """The backend one inference pass actually uses.

        An explicitly requested ``"process"`` backend always uses the
        pool — it is shared across :meth:`infer` calls, so even a one-task
        pass runs on already-warm workers.  ``"auto"`` uses it only when
        there are several workers and several tasks to spread over them;
        otherwise the pass runs serially in-process.
        """
        if self.gp_backend == "process":
            return "process"
        if self.gp_backend == "auto" and self.gp_workers > 1 and n_tasks > 1:
            return "process"
        return "serial"

    def _execute_tasks(self, tasks: List[_FormulaTask]) -> List[_TaskOutcome]:
        """Run every planned task on the resolved backend.

        Inference raises on bugs rather than degrading, and the pool
        re-raises the first task exception out of ``result()`` — the
        process backend keeps serial mode's exception behaviour.
        """
        if not tasks:
            return []
        if self._resolve_backend(len(tasks)) == "process":
            return self._run_tasks_process(tasks)
        memo = FormulaMemo(self.gp_memo_dir) if self.gp_memo_dir else None
        return [self._run_one(task, memo) for task in tasks]

    def _run_one(
        self, task: _FormulaTask, memo: Optional[FormulaMemo]
    ) -> _TaskOutcome:
        """Serial task execution under one ``gp_formula`` span."""
        with self.tracer.span("gp_formula", esv=task.identifier, backend=task.backend):
            esv, memo_hit = _execute_formula_task(task, memo)
        return _TaskOutcome(task.slot, esv, memo_hit)

    def _run_tasks_process(self, tasks: List[_FormulaTask]) -> List[_TaskOutcome]:
        """Process backend: one task per ESV on the shared persistent pool.

        The pool outlives this call (and this reverser — it is cached at
        module level by :func:`~repro.core.gp.pool.shared_pool` and reused
        by every reverser with the same worker/memo/trace configuration),
        so repeated :meth:`infer` calls pay process spawn and worker
        warm-up (:func:`_gp_worker_init`) once per process, not once per
        capture.  Workers receive only pickled :class:`_FormulaTask`
        payloads; results carry the memo flags and spans back because
        neither the parent memo handle nor the tracer can cross the
        process boundary.
        """
        from .gp.pool import shared_pool

        pool = shared_pool(self.gp_workers, self.gp_memo_dir, self.tracer.enabled)
        return pool.run(_run_formula_task, tasks)


def _stable_seed(identifier: str, base: int) -> int:
    return (zlib.crc32(identifier.encode()) ^ base) & 0x7FFFFFFF


def _enum_states(
    observations: Sequence[EsvObservation], series: UiSeries
) -> Dict[int, str]:
    """Map each raw state value to the text most often shown with it."""
    votes: Dict[int, Dict[str, int]] = {}
    samples = series.samples
    ix, iy = nearest_pairs(
        [o.timestamp for o in observations], [s.timestamp for s in samples], 1.5
    )
    for i, j in zip(ix.tolist(), iy.tolist()):
        texts = votes.setdefault(observations[i].as_int(), {})
        text = samples[j].text
        texts[text] = texts.get(text, 0) + 1
    return {
        raw: max(texts.items(), key=lambda item: item[1])[0]
        for raw, texts in votes.items()
    }
