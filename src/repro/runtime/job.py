"""Fleet jobs: one vehicle's collect→reverse pipeline as a unit of work.

A :class:`JobSpec` is a frozen, picklable description of one car's run —
everything that determines the outcome (car key, seeds, capture duration,
GP overrides) and nothing that doesn't.  Its :attr:`~JobSpec.job_id` is a
deterministic function of those inputs, which is what makes checkpoint
resume sound: a half-finished fleet sweep restarted with the same
parameters maps onto the same ids and skips the cars already done, while a
sweep restarted with, say, a different seed maps onto fresh ids and redoes
everything.

:func:`run_job` is the worker entry point.  It is a module-level function
(so :class:`concurrent.futures.ProcessPoolExecutor` can pickle it) and is
pure with respect to its spec: the same :class:`JobSpec` always produces
the same ESV/ECR payload, byte for byte, which the scheduler's
serial-vs-parallel equivalence guarantee builds on.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

class InjectedFault(RuntimeError):
    """Fault raised by test/benchmark fault injectors inside a worker."""


@dataclass(frozen=True)
class JobSpec:
    """Deterministic description of one car's collect+reverse run."""

    car_key: str
    seed: int = 2
    read_duration_s: float = 30.0
    ocr_seed: int = 23
    #: Optional :class:`~repro.core.GpConfig` field overrides, as a sorted
    #: tuple of ``(name, value)`` pairs so the spec stays hashable and its
    #: job id stays stable under dict-ordering differences.
    gp_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Real seconds of bus-wait latency to emulate during collection.  On
    #: real hardware the capture rig idles for hours while the tool reads
    #: the live bus; :class:`~repro.simtime.SimClock` compresses that to
    #: nothing, which would make scheduler-scaling benchmarks meaningless.
    #: Setting this re-introduces the wait as wall-clock idle time that
    #: parallel workers overlap.  Does not affect the result payload, so it
    #: is excluded from :attr:`job_id`.
    live_latency_s: float = 0.0
    #: Workers for per-ESV GP inference inside this job (see
    #: :attr:`repro.core.reverser.DPReverser.gp_workers`).  Each ESV's GP
    #: run is independently seeded, so parallelism changes wall-clock only,
    #: never the payload — excluded from :attr:`job_id` like
    #: :attr:`live_latency_s`.
    gp_workers: int = 1
    #: Per-ESV inference backend (``"auto"``/``"serial"``/``"process"``,
    #: see :attr:`repro.core.reverser.ReverserConfig.gp_backend`).  Every
    #: backend produces byte-identical payloads, so this is execution
    #: policy like :attr:`gp_workers` — excluded from :attr:`job_id`.
    gp_backend: str = "auto"
    #: Directory of the cross-run formula memo store (empty = off).  Memo
    #: hits replay the exact stored result, so the payload is unchanged —
    #: excluded from :attr:`job_id`.
    gp_memo_dir: str = ""
    #: Formula-*inference* backend (``"gp"``/``"linear"``/``"hybrid"`` —
    #: *what solver* recovers each formula), as opposed to
    #: :attr:`gp_backend`, which is *where* GP evaluations run.  Excluded
    #: from :attr:`job_id`: ``hybrid`` recovers the identical ESV set with
    #: mathematically equivalent formulas as pure GP (an invariant the
    #: backend benchmark asserts fleet-wide), so a checkpointed sweep
    #: resumed under a different inference backend legitimately reuses the
    #: finished cars rather than redoing them.
    formula_backend: str = "gp"
    #: Capture-noise profile in :meth:`~repro.can.NoiseProfile.parse` form
    #: (e.g. ``"default"`` or ``"drop=0.02,dup=0.01"``).  Empty string =
    #: clean capture.  Changes the outcome, so it contributes to
    #: :attr:`job_id` — but only when set, keeping clean-run ids (and
    #: checkpoints/digests) identical to the pre-noise format.
    noise_spec: str = ""
    #: Base seed for fault injection; each car derives an independent
    #: stream from it (see :meth:`noise_profile`).
    noise_seed: int = 0
    #: Return this job's span tree in :attr:`JobResult.spans` (see
    #: :mod:`repro.observability`).  Every job records spans for its stage
    #: timings; this only decides whether the tree itself travels back.
    #: Tracing only observes — the payload is byte-identical either way —
    #: so this is execution policy, excluded from :attr:`job_id` like
    #: :attr:`gp_workers`.
    trace: bool = False

    def __post_init__(self) -> None:
        """Reject overrides :class:`~repro.core.GpConfig` cannot take.

        A bad name would otherwise fail only inside the worker, after the
        capture, and the scheduler would retry a config error that can
        never succeed.  ``seed`` comes from :attr:`seed`.
        """
        from dataclasses import fields

        from ..core.gp import GpConfig

        allowed = {field.name for field in fields(GpConfig)} - {"seed"}
        unknown = sorted(str(name) for name, __ in self.gp_overrides if name not in allowed)
        if unknown:
            raise ValueError(f"gp_overrides names no GpConfig field: {', '.join(unknown)}")

    @property
    def job_id(self) -> str:
        """Stable id derived from every outcome-determining field."""
        blob = (
            f"{self.car_key}|seed={self.seed}|dur={self.read_duration_s:g}"
            f"|ocr={self.ocr_seed}|gp={sorted(self.gp_overrides)!r}"
        )
        if self.noise_spec:
            blob += f"|noise={self.noise_spec}|nseed={self.noise_seed}"
        return f"car-{self.car_key.lower()}-{zlib.crc32(blob.encode()) & 0xFFFFFFFF:08x}"

    def noise_profile(self):
        """The per-car :class:`~repro.can.NoiseProfile`, or ``None``.

        The profile's seed mixes :attr:`noise_seed` with the car key so
        every vehicle in a sweep sees an independent fault stream while the
        whole sweep stays reproducible from one integer.
        """
        if not self.noise_spec:
            return None
        from ..can import NoiseProfile

        derived = (zlib.crc32(self.car_key.encode()) ^ self.noise_seed) & 0x7FFFFFFF
        return NoiseProfile.parse(self.noise_spec, seed=derived)

    def to_dict(self) -> dict:
        return {
            "car_key": self.car_key,
            "seed": self.seed,
            "read_duration_s": self.read_duration_s,
            "ocr_seed": self.ocr_seed,
            "gp_overrides": [list(pair) for pair in self.gp_overrides],
            "live_latency_s": self.live_latency_s,
            "gp_workers": self.gp_workers,
            "gp_backend": self.gp_backend,
            "gp_memo_dir": self.gp_memo_dir,
            "formula_backend": self.formula_backend,
            "noise_spec": self.noise_spec,
            "noise_seed": self.noise_seed,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        return cls(
            car_key=payload["car_key"],
            seed=payload["seed"],
            read_duration_s=payload["read_duration_s"],
            ocr_seed=payload["ocr_seed"],
            gp_overrides=tuple(
                (name, value) for name, value in payload.get("gp_overrides", [])
            ),
            live_latency_s=payload.get("live_latency_s", 0.0),
            gp_workers=payload.get("gp_workers", 1),
            gp_backend=payload.get("gp_backend", "auto"),
            gp_memo_dir=payload.get("gp_memo_dir", ""),
            formula_backend=payload.get("formula_backend", "gp"),
            noise_spec=payload.get("noise_spec", ""),
            noise_seed=payload.get("noise_seed", 0),
            trace=payload.get("trace", False),
        )


@dataclass
class JobResult:
    """Outcome of one job, split into deterministic payload and telemetry.

    The ESV/ECR rows and counts depend only on the spec; attempts, stage
    timings and wall-clock are telemetry that varies run to run.  Digest
    comparisons (serial vs parallel, resumed vs fresh) therefore go through
    :meth:`deterministic_payload`, never :meth:`to_dict`.
    """

    job_id: str
    car_key: str
    status: str  # "ok" | "failed" | "timeout"
    attempts: int = 1
    esvs: List[dict] = field(default_factory=list)
    ecrs: List[dict] = field(default_factory=list)
    n_formula_esvs: int = 0
    n_correct: int = 0
    n_enum_esvs: int = 0
    n_ecrs: int = 0
    #: Duration of every span below the job's ``job`` root, grouped by span
    #: name in completion order: one sample per stage (``collect``,
    #: ``assemble``, ``match``...), one per GP task (``gp_formula``), per
    #: restart (``gp_restart``) and per memo lookup.  Telemetry: excluded
    #: from the deterministic payload.
    stage_samples: Dict[str, List[float]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    error: str = ""
    #: Transport decode accounting for this job's capture (frames decoded,
    #: errors, resyncs, messages lost...).  Telemetry: a clean run reports
    #: zeros that digest comparisons must not depend on, so it is excluded
    #: from :meth:`deterministic_payload` like the timings are.
    transport_counts: Dict[str, int] = field(default_factory=dict)
    #: Exported span records for this job when the spec asked for tracing
    #: (:attr:`JobSpec.trace`); the scheduler grafts them into the run's
    #: tracer.  Telemetry — excluded from :meth:`deterministic_payload`
    #: and serialised only when non-empty, so checkpoints written by
    #: untraced runs carry no spans.
    spans: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def precision(self) -> float:
        return self.n_correct / self.n_formula_esvs if self.n_formula_esvs else 1.0

    def deterministic_payload(self) -> dict:
        """The spec-determined portion of the result (no timing/attempts)."""
        return {
            "job_id": self.job_id,
            "car_key": self.car_key,
            "status": self.status,
            "esvs": self.esvs,
            "ecrs": self.ecrs,
            "n_formula_esvs": self.n_formula_esvs,
            "n_correct": self.n_correct,
            "n_enum_esvs": self.n_enum_esvs,
            "n_ecrs": self.n_ecrs,
        }

    def to_dict(self) -> dict:
        payload = self.deterministic_payload()
        payload.update(
            {
                "attempts": self.attempts,
                "stage_samples": {
                    name: [round(value, 6) for value in samples]
                    for name, samples in sorted(self.stage_samples.items())
                },
                "wall_seconds": round(self.wall_seconds, 6),
                "error": self.error,
                "transport_counts": dict(sorted(self.transport_counts.items())),
            }
        )
        if self.spans:
            payload["spans"] = self.spans
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobResult":
        return cls(
            job_id=payload["job_id"],
            car_key=payload["car_key"],
            status=payload["status"],
            attempts=payload.get("attempts", 1),
            esvs=payload.get("esvs", []),
            ecrs=payload.get("ecrs", []),
            n_formula_esvs=payload.get("n_formula_esvs", 0),
            n_correct=payload.get("n_correct", 0),
            n_enum_esvs=payload.get("n_enum_esvs", 0),
            n_ecrs=payload.get("n_ecrs", 0),
            stage_samples=payload.get("stage_samples", {}),
            wall_seconds=payload.get("wall_seconds", 0.0),
            error=payload.get("error", ""),
            transport_counts=payload.get("transport_counts", {}),
            spans=payload.get("spans", []),
        )


def fleet_job_specs(
    keys: Optional[List[str]] = None,
    seed: int = 2,
    read_duration_s: float = 30.0,
    gp_overrides: Tuple[Tuple[str, object], ...] = (),
    gp_workers: int = 1,
    gp_backend: str = "auto",
    gp_memo_dir: str = "",
    formula_backend: str = "gp",
    noise_spec: str = "",
    noise_seed: int = 0,
    trace: bool = False,
) -> List[JobSpec]:
    """One :class:`JobSpec` per fleet car (all 18 when ``keys`` is None)."""
    from ..vehicle import CAR_SPECS

    keys = [key.upper() for key in (keys or sorted(CAR_SPECS))]
    unknown = [key for key in keys if key not in CAR_SPECS]
    if unknown:
        raise ValueError(f"unknown fleet keys: {', '.join(unknown)}")
    return [
        JobSpec(
            car_key=key,
            seed=seed,
            read_duration_s=read_duration_s,
            gp_overrides=gp_overrides,
            gp_workers=gp_workers,
            gp_backend=gp_backend,
            gp_memo_dir=gp_memo_dir,
            formula_backend=formula_backend,
            noise_spec=noise_spec,
            noise_seed=noise_seed,
            trace=trace,
        )
        for key in keys
    ]


def run_job(spec: JobSpec) -> JobResult:
    """Run one car's full collect→reverse→verify pipeline.

    Deterministic given ``spec``; raises on pipeline errors (the scheduler
    owns retry/timeout policy, not the worker).  Every job records into
    its own :class:`~repro.observability.trace.Tracer` — spans are the
    pipeline's only timer — and :attr:`JobResult.stage_samples` is read
    off that tree; the span payload itself is returned only when
    :attr:`JobSpec.trace` asks for it.
    """
    from ..core import DPReverser, GpConfig, ReverserConfig, check_formula
    from ..cps import DataCollector
    from ..observability.trace import Tracer
    from ..tools import make_tool_for_car
    from ..vehicle import build_car, ground_truth_formulas

    start = time.perf_counter()
    tracer = Tracer()

    # One root span per job: the per-stage spans the reverser opens (and
    # the gp_formula subtrees absorbed from pool workers) all nest under
    # it, so a fleet trace reads as one tree per car.
    with tracer.span("job", car=spec.car_key, job_id=spec.job_id) as root:
        car = build_car(spec.car_key)
        tool = make_tool_for_car(spec.car_key, car)
        with tracer.span("collect", car=spec.car_key):
            if spec.live_latency_s > 0:
                time.sleep(spec.live_latency_s)
            capture = DataCollector(
                tool, read_duration_s=spec.read_duration_s
            ).collect()

        reverser = DPReverser(
            ReverserConfig(
                gp_config=GpConfig(seed=spec.seed, **dict(spec.gp_overrides)),
                ocr_seed=spec.ocr_seed,
                gp_workers=spec.gp_workers,
                gp_backend=spec.gp_backend,
                gp_memo_dir=spec.gp_memo_dir,
                formula_backend=spec.formula_backend,
                noise=spec.noise_profile(),
                trace=tracer,
            )
        )
        report = reverser.reverse_engineer(capture)

    truth = ground_truth_formulas(car)
    report_dict = report.to_dict()
    esv_rows: List[dict] = []
    n_correct = 0
    for esv, row in zip(report.esvs, report_dict["esvs"]):
        row = dict(row)
        if not esv.is_enum and esv.formula is not None:
            # Under fault injection a corrupted frame can fabricate an
            # identifier with no ground truth; count it as incorrect.
            expected = truth.get(esv.identifier)
            correct = expected is not None and check_formula(
                esv.formula, expected, esv.samples
            )
            n_correct += int(correct)
            row["correct"] = bool(correct)
        esv_rows.append(row)

    transport_counts: Dict[str, int] = {}
    if report.diagnostics is not None:
        transport_counts = report.diagnostics.stats.to_dict()

    stage_samples: Dict[str, List[float]] = {}
    for span in tracer.spans:
        if span is not root:
            stage_samples.setdefault(span.name, []).append(span.duration)

    return JobResult(
        job_id=spec.job_id,
        car_key=spec.car_key,
        status="ok",
        esvs=esv_rows,
        ecrs=report_dict["ecrs"],
        n_formula_esvs=len(report.formula_esvs),
        n_correct=n_correct,
        n_enum_esvs=len(report.enum_esvs),
        n_ecrs=len(report.ecrs),
        stage_samples=stage_samples,
        wall_seconds=time.perf_counter() - start,
        transport_counts=transport_counts,
        spans=tracer.export_payload() if spec.trace else [],
    )
