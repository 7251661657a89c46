"""Fleet-scale job orchestration.

The runtime subsystem turns the per-car collect→reverse pipeline into
schedulable jobs and runs them at fleet scale:

- :mod:`~repro.runtime.job` — :class:`JobSpec`/:class:`JobResult` and the
  picklable :func:`run_job` worker;
- :mod:`~repro.runtime.scheduler` — worker pools (process/thread/serial),
  bounded retries with exponential backoff, per-job timeouts;
- :mod:`~repro.runtime.checkpoint` — completed results persisted as JSON
  so interrupted sweeps resume;
- :mod:`~repro.runtime.metrics` / :mod:`~repro.runtime.events` — counters,
  per-stage wall-clock histograms and a JSONL event log;
- :mod:`~repro.runtime.report` — the :class:`RunReport` summary with a
  deterministic results digest.

Entry points: ``repro fleet-run`` on the command line, or::

    from repro.runtime import Scheduler, SchedulerConfig, fleet_job_specs

    report = Scheduler(SchedulerConfig(pool="process", workers=4)).run(
        fleet_job_specs(["A", "K", "R"])
    )
    print(report.summary())
"""

from .checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointStore
from .events import EventLog, read_events
from .job import InjectedFault, JobResult, JobSpec, fleet_job_specs, run_job
from .metrics import Counter, Histogram, MetricsRegistry
from .report import RunReport
from .scheduler import POOL_KINDS, Scheduler, SchedulerConfig

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointStore",
    "EventLog",
    "read_events",
    "InjectedFault",
    "JobResult",
    "JobSpec",
    "fleet_job_specs",
    "run_job",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RunReport",
    "POOL_KINDS",
    "Scheduler",
    "SchedulerConfig",
]
