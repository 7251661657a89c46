"""Fleet scheduler: fan jobs out over a worker pool, retry, checkpoint.

Three interchangeable execution backends:

``process``
    :class:`concurrent.futures.ProcessPoolExecutor` — the default for real
    fleet sweeps.  Formula inference is CPU-bound Python, so processes are
    the only backend that actually scales with cores.
``thread``
    :class:`concurrent.futures.ThreadPoolExecutor` — useful when the
    runner is monkeypatched (tests) or I/O-bound.
``serial``
    A plain in-process loop, used by determinism tests and as the
    always-works fallback.  Serial execution cannot preempt a running job,
    so per-job timeouts are only enforced by the pool backends.

Retry policy lives in the parent, not the workers: a failed attempt is
re-submitted after an exponential backoff (``backoff_base_s *
backoff_factor**(attempt-1)``), bounded by ``max_retries``.  Every
decision is emitted to the :class:`~repro.runtime.events.EventLog` and
counted in the :class:`~repro.runtime.metrics.MetricsRegistry`; completed
results are written to the :class:`~repro.runtime.checkpoint.CheckpointStore`
the moment they finish, so a killed run resumes without redoing them.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observability.trace import NULL_TRACER, Tracer
from .checkpoint import CheckpointStore
from .events import EventLog
from .job import JobResult, JobSpec, run_job
from .metrics import MetricsRegistry
from .report import RunReport

POOL_KINDS = ("serial", "thread", "process")

#: The per-process runner installed by :func:`_process_worker_init`.
#: Module-level because :class:`ProcessPoolExecutor` only ships
#: module-level callables to workers.
_WORKER_RUNNER: Optional[Callable[[JobSpec], JobResult]] = None


def _process_worker_init(runner: Callable[[JobSpec], JobResult]) -> None:
    """Set up one pool worker: install the runner, warm the hot paths.

    Runs once per worker process, so each job submission afterwards ships
    only its lean :class:`JobSpec` — the runner is never re-pickled per
    submit — and the first job in every worker no longer pays the lazy
    imports that :func:`run_job` would otherwise trigger (visible as
    first-job latency under ``spawn`` start methods, where workers do not
    inherit the parent's modules).
    """
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner
    # Touch the modules run_job imports lazily inside the worker.
    from .. import core, cps, tools, vehicle  # noqa: F401


def _invoke_worker_runner(spec: JobSpec) -> JobResult:
    """Process-pool submit target: run ``spec`` on the installed runner."""
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    return _WORKER_RUNNER(spec)


@dataclass
class SchedulerConfig:
    """Execution policy for one fleet run."""

    workers: int = 1
    pool: str = "serial"
    max_retries: int = 2  # extra attempts after the first
    timeout_s: Optional[float] = None  # per-attempt wall budget (pool modes)
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    #: Keep the executor alive across :meth:`Scheduler.run` calls instead
    #: of building and tearing down a pool per batch.  Repeated sweeps
    #: (benchmark sizings, the streaming service's periodic re-runs) then
    #: pay process spawn and worker warm-up once per scheduler lifetime —
    #: the same long-lived-worker model the ``process`` GP backend uses.
    #: Call :meth:`Scheduler.close` (or use the scheduler as a context
    #: manager) when done; timed-out attempts left running can occupy a
    #: persistent worker until they finish, exactly as they occupy an
    #: abandoned pool.
    persistent_pool: bool = False

    def __post_init__(self) -> None:
        if self.pool not in POOL_KINDS:
            raise ValueError(f"unknown pool kind {self.pool!r}; expected one of {POOL_KINDS}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative: {self.max_retries}")

    def backoff_s(self, attempt: int) -> float:
        """Delay before the retry that follows failed attempt ``attempt``."""
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


class Scheduler:
    """Runs a batch of :class:`JobSpec`\\ s to a :class:`RunReport`."""

    def __init__(
        self,
        config: Optional[SchedulerConfig] = None,
        checkpoint: Optional[CheckpointStore] = None,
        events: Optional[EventLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        runner: Callable[[JobSpec], JobResult] = run_job,
        sleep: Callable[[float], None] = time.sleep,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config or SchedulerConfig()
        self.checkpoint = checkpoint
        self.events = events if events is not None else EventLog()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.runner = runner
        self.sleep = sleep
        #: Run-level tracer; per-job span payloads riding back in
        #: :attr:`JobResult.spans` are grafted into it as they finish, one
        #: Chrome-trace "thread" lane per car.
        self.tracer = tracer or NULL_TRACER
        self._trace_lanes: Dict[str, int] = {}
        self._executor = None  # persistent-pool executor, kept across runs
        self._submit_target: Optional[Callable] = None

    def close(self) -> None:
        """Shut down a persistent pool (no-op otherwise)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self._submit_target = None

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ run

    def run(self, specs: Sequence[JobSpec]) -> RunReport:
        specs = list(specs)
        ids = [spec.job_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in fleet run")

        start = time.perf_counter()
        self.events.emit(
            "run_started",
            n_jobs=len(specs),
            pool=self.config.pool,
            workers=self.config.workers,
        )
        with self.tracer.span(
            "fleet_run",
            n_jobs=len(specs),
            pool=self.config.pool,
            workers=self.config.workers,
        ):
            return self._run(specs, start)

    def _run(self, specs: List[JobSpec], start: float) -> RunReport:

        results: Dict[str, JobResult] = {}
        skipped: List[str] = []
        pending_specs: List[JobSpec] = []
        if self.checkpoint is not None:
            cached = self.checkpoint.load_all()
            for spec in specs:
                prior = cached.get(spec.job_id)
                if prior is not None and prior.ok:
                    results[spec.job_id] = prior
                    skipped.append(spec.job_id)
                    self.metrics.counter("jobs_skipped").inc()
                    self.events.emit(
                        "job_skipped", job_id=spec.job_id, car_key=spec.car_key
                    )
                else:
                    pending_specs.append(spec)
        else:
            pending_specs = specs

        if self.config.pool == "serial":
            for spec in pending_specs:
                results[spec.job_id] = self._run_serial(spec)
        else:
            results.update(self._run_pool(pending_specs))

        wall = time.perf_counter() - start
        n_ok = sum(1 for result in results.values() if result.ok)
        self.events.emit(
            "run_finished",
            n_ok=n_ok,
            n_failed=len(results) - n_ok,
            n_skipped=len(skipped),
            wall_seconds=round(wall, 6),
        )
        return RunReport(
            results=list(results.values()),
            skipped=skipped,
            pool=self.config.pool,
            workers=self.config.workers,
            wall_seconds=wall,
            metrics=self.metrics.to_dict(),
        )

    # --------------------------------------------------------------- serial

    def _run_serial(self, spec: JobSpec) -> JobResult:
        attempt = 0
        while True:
            attempt += 1
            self.events.emit("job_started", job_id=spec.job_id, attempt=attempt)
            attempt_start = time.perf_counter()
            try:
                result = self.runner(spec)
            except Exception as error:  # noqa: BLE001 — isolate per-job faults
                wall = time.perf_counter() - attempt_start
                if self._maybe_retry(spec, attempt, error):
                    continue
                return self._finalize(
                    JobResult(
                        job_id=spec.job_id,
                        car_key=spec.car_key,
                        status="failed",
                        attempts=attempt,
                        wall_seconds=wall,
                        error=repr(error),
                    )
                )
            result.attempts = attempt
            return self._finalize(result)

    # ----------------------------------------------------------------- pool

    def _build_executor(self) -> Tuple[object, Callable]:
        if self.config.pool == "thread":
            return ThreadPoolExecutor(max_workers=self.config.workers), self.runner
        # Persistent warmed workers: the runner crosses the process
        # boundary once (at pool start), and each submission afterwards
        # pickles only the JobSpec.
        executor = ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_process_worker_init,
            initargs=(self.runner,),
        )
        return executor, _invoke_worker_runner

    def _run_pool(self, specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
        if self._executor is not None and getattr(self._executor, "_broken", False):
            self.close()  # a crashed persistent pool is rebuilt transparently
        if self._executor is None:
            self._executor, self._submit_target = self._build_executor()
        executor, submit_target = self._executor, self._submit_target
        results: Dict[str, JobResult] = {}
        pending: Dict[Future, Tuple[JobSpec, int, float]] = {}

        def submit(spec: JobSpec, attempt: int) -> None:
            self.events.emit("job_started", job_id=spec.job_id, attempt=attempt)
            pending[executor.submit(submit_target, spec)] = (spec, attempt, time.perf_counter())

        try:
            for spec in specs:
                submit(spec, 1)
            while pending:
                slack = None
                if self.config.timeout_s is not None:
                    now = time.perf_counter()
                    slack = max(
                        0.0,
                        min(
                            t0 + self.config.timeout_s - now
                            for (__, __, t0) in pending.values()
                        ),
                    )
                done, __ = wait(list(pending), timeout=slack, return_when=FIRST_COMPLETED)
                for future in done:
                    spec, attempt, t0 = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        result = future.result()
                        result.attempts = attempt
                        results[spec.job_id] = self._finalize(result)
                    elif self._maybe_retry(spec, attempt, error):
                        submit(spec, attempt + 1)
                    else:
                        results[spec.job_id] = self._finalize(
                            JobResult(
                                job_id=spec.job_id,
                                car_key=spec.car_key,
                                status="failed",
                                attempts=attempt,
                                wall_seconds=time.perf_counter() - t0,
                                error=repr(error),
                            )
                        )
                if self.config.timeout_s is None:
                    continue
                now = time.perf_counter()
                for future, (spec, attempt, t0) in list(pending.items()):
                    if now - t0 < self.config.timeout_s:
                        continue
                    # A future past its deadline is cancelled if still
                    # queued and abandoned if already running (threads and
                    # processes cannot be preempted safely).
                    future.cancel()
                    pending.pop(future)
                    self.metrics.counter("attempts_timed_out").inc()
                    self.events.emit(
                        "job_timeout",
                        job_id=spec.job_id,
                        attempt=attempt,
                        timeout_s=self.config.timeout_s,
                    )
                    if self._maybe_retry(spec, attempt, None):
                        submit(spec, attempt + 1)
                    else:
                        results[spec.job_id] = self._finalize(
                            JobResult(
                                job_id=spec.job_id,
                                car_key=spec.car_key,
                                status="timeout",
                                attempts=attempt,
                                wall_seconds=now - t0,
                                error=f"timed out after {self.config.timeout_s} s",
                            )
                        )
        finally:
            if not self.config.persistent_pool:
                # Don't block on abandoned (timed-out) workers.
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                self._submit_target = None
        return results

    # -------------------------------------------------------------- helpers

    def _maybe_retry(
        self, spec: JobSpec, attempt: int, error: Optional[BaseException]
    ) -> bool:
        """Record a failed attempt; True if the job should be retried."""
        will_retry = attempt <= self.config.max_retries
        if error is not None:
            self.metrics.counter("attempts_failed").inc()
            self.events.emit(
                "job_attempt_failed",
                job_id=spec.job_id,
                attempt=attempt,
                error=repr(error),
                will_retry=will_retry,
            )
        if not will_retry:
            return False
        delay = self.config.backoff_s(attempt)
        self.metrics.counter("jobs_retried").inc()
        self.events.emit(
            "job_retry", job_id=spec.job_id, attempt=attempt + 1, delay_s=round(delay, 6)
        )
        self.sleep(delay)
        return True

    def _finalize(self, result: JobResult) -> JobResult:
        if result.ok:
            self.metrics.counter("jobs_completed").inc()
            self.metrics.histogram("job_wall_seconds").observe(result.wall_seconds)
            for stage, samples in result.stage_samples.items():
                self.metrics.histogram(f"stage.{stage}_seconds").observe(
                    math.fsum(samples)
                )
                # Per-call distributions only add information for stages
                # that fire more than once per job (per-formula GP timing);
                # for the rest they would just duplicate the totals above.
                if len(samples) > 1:
                    self.metrics.histogram(f"stage.{stage}_call_seconds").extend(samples)
            for name, value in result.transport_counts.items():
                # Fleet-wide capture-quality counters (transport.errors,
                # transport.resyncs, ...): summed across jobs so a sweep's
                # report shows how much of every capture survived decoding.
                if value:
                    self.metrics.counter(f"transport.{name}").inc(value)
            if result.spans and self.tracer.enabled:
                # Graft the job's span tree into the run tracer, one trace
                # lane ("thread") per car so Perfetto shows the fleet as
                # parallel swimlanes under the fleet_run root.
                parent = self.tracer.current()
                lane = self._trace_lanes.setdefault(
                    result.car_key, len(self._trace_lanes) + 1
                )
                self.tracer.absorb(
                    result.spans,
                    parent_id=parent.span_id if parent else None,
                    tid=lane,
                )
            if self.checkpoint is not None:
                self.checkpoint.record(result)
        elif result.status == "timeout":
            self.metrics.counter("jobs_timeout").inc()
        else:
            self.metrics.counter("jobs_failed").inc()
        self.events.emit(
            "job_finished",
            job_id=result.job_id,
            status=result.status,
            attempts=result.attempts,
            wall_seconds=round(result.wall_seconds, 6),
        )
        return result
