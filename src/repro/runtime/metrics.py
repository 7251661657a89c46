"""Run metrics: counters and wall-clock histograms.

Deliberately tiny and dependency-free — the registry is a plain in-memory
object the scheduler owns for the duration of one fleet run, snapshotted
into the :class:`~repro.runtime.report.RunReport` at the end.  Nothing here
reads a clock: callers observe durations they measured themselves (span
durations and :func:`time.perf_counter` wall-clock), so the layer stays
deterministic under any clock.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount
        return self.value


class Histogram:
    """Exact-sample histogram of observed durations (seconds).

    Fleet runs observe at most a few thousand values (jobs × stages), so
    keeping the raw samples is cheaper than maintaining bucket boundaries
    and gives exact percentiles.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        """Observe a batch of samples (e.g. per-formula GP timings)."""
        self._values.extend(float(value) for value in values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        return self.total / len(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "total_s": round(self.total, 6),
            "mean_s": round(self.mean, 6),
            "min_s": round(min(self._values), 6),
            "p50_s": round(self.percentile(50), 6),
            "p95_s": round(self.percentile(95), 6),
            "max_s": round(max(self._values), 6),
        }


class MetricsRegistry:
    """Named counters + histograms for one fleet run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name in self._histograms:
            raise ValueError(
                f"metric {name!r} is already registered as a histogram; "
                "one name cannot carry both types"
            )
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name in self._counters:
            raise ValueError(
                f"metric {name!r} is already registered as a counter; "
                "one name cannot carry both types"
            )
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def to_dict(self) -> dict:
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def export_state(self) -> dict:
        """Everything needed to merge this registry into another.

        Unlike :meth:`to_dict`, histograms export their *raw samples*, so
        a cross-process merge (shard workers → supervisor) yields exact
        percentiles — summing per-shard p95 summaries cannot.
        """
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: list(histogram._values)
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` payload into this registry."""
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, values in state.get("histograms", {}).items():
            self.histogram(name).extend(values)
