"""Unified metrics snapshot: one place where every counter in the system
meets, and two serialisations of it.

The pipeline accumulates metrics in several layers that grew one PR at a
time — :class:`~repro.runtime.metrics.MetricsRegistry` (scheduler counters
and stage histograms), :class:`~repro.transport.base.DecoderStats`
(transport decode accounting), :class:`~repro.can.noise.FaultCounts`
(injected faults), the formula-memo hit/miss dict, the per-backend
formula-inference counters (``inference.*``), and span aggregates
from the :class:`~repro.observability.trace.Tracer`.  :func:`build_snapshot`
folds any subset of those into one canonical dict, and the exporters turn
that dict into:

* **canonical JSON** (:func:`snapshot_json`) — sorted keys, the machine
  artifact CI diffing and dashboards consume;
* **Prometheus text exposition format** (:func:`prometheus_text`) — for
  scraping into a real metrics stack; label values are escaped per the
  format spec (backslash, double-quote, newline).

Metric naming scheme (documented in DESIGN.md): dot-separated logical
names (``transport.errors``, ``stage.gp_formula_seconds``, ``memo.hits``);
the Prometheus exporter maps dots to underscores and prefixes ``repro_``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Optional

from .trace import Span, Tracer

SNAPSHOT_SCHEMA_VERSION = 1

#: :class:`~repro.transport.base.DecoderStats` fields exported under the
#: ``transport.anomaly.`` prefix instead of plain ``transport.``.  Kept as
#: a literal copy of :data:`repro.transport.base.ANOMALY_FIELDS` — importing
#: it would cycle observability → transport → can → bus → observability.
_ANOMALY_FIELDS = (
    "fc_violations",
    "stale_stream_evictions",
    "sequence_poisonings",
    "suspected_starvation",
)


def _merge_counters(target: Dict[str, int], source: Mapping[str, int], prefix: str) -> None:
    for name, value in source.items():
        target[f"{prefix}{name}"] = target.get(f"{prefix}{name}", 0) + int(value)


def build_snapshot(
    registry=None,
    diagnostics=None,
    fault_counts=None,
    memo_stats: Optional[Mapping[str, int]] = None,
    inference_stats: Optional[Mapping[str, int]] = None,
    tracer: Optional[Tracer] = None,
    extra_counters: Optional[Mapping[str, int]] = None,
    gauges: Optional[Mapping[str, float]] = None,
) -> dict:
    """Fold every metrics source the caller has into one canonical dict.

    All parameters are optional so a bare ``reverse`` run (no scheduler, no
    noise) and a full fleet sweep produce the same shape with different
    coverage.  ``registry`` is a
    :class:`~repro.runtime.metrics.MetricsRegistry`, ``diagnostics`` a
    :class:`~repro.core.assembly.DecodeDiagnostics`, ``fault_counts`` a
    :class:`~repro.can.noise.FaultCounts`.  ``gauges`` carries
    point-in-time levels (``service.sessions_active``) that, unlike
    counters, can go down — the Prometheus exporter types them ``gauge``.
    """
    counters: Dict[str, int] = {}
    histograms: Dict[str, dict] = {}

    if registry is not None:
        registry_dict = registry.to_dict()
        _merge_counters(counters, registry_dict["counters"], "")
        histograms.update(registry_dict["histograms"])
    if diagnostics is not None:
        stats = diagnostics.stats.to_dict()
        anomalies = {
            name: stats.pop(name) for name in _ANOMALY_FIELDS if name in stats
        }
        _merge_counters(counters, stats, "transport.")
        _merge_counters(counters, anomalies, "transport.anomaly.")
    if fault_counts is not None:
        _merge_counters(counters, fault_counts.to_dict(), "noise.")
    if memo_stats is not None:
        _merge_counters(counters, memo_stats, "memo.")
    if inference_stats is not None:
        _merge_counters(counters, inference_stats, "inference.")
    if extra_counters is not None:
        _merge_counters(counters, extra_counters, "")

    spans: Dict[str, dict] = {}
    if tracer is not None and tracer.enabled:
        for name, group in sorted(tracer.by_name().items()):
            spans[name] = {
                "count": len(group),
                "total_s": round(sum(span.duration for span in group), 6),
            }

    snapshot = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "counters": dict(sorted(counters.items())),
        "histograms": dict(sorted(histograms.items())),
        "spans": spans,
    }
    if gauges is not None:
        snapshot["gauges"] = {name: gauges[name] for name in sorted(gauges)}
    return snapshot


def snapshot_json(snapshot: dict, indent: int = 2) -> str:
    """Canonical (sorted-key) JSON form of a snapshot."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


# --------------------------------------------------------------- prometheus

#: Characters legal in a Prometheus metric name.
_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def metric_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted logical name onto a legal Prometheus metric name."""
    mapped = "".join(c if c in _NAME_OK else "_" for c in name.replace(".", "_"))
    if mapped and mapped[0].isdigit():
        mapped = f"_{mapped}"
    return f"{prefix}_{mapped}" if prefix else mapped


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: ``\\``, ``"``
    and newline must be backslash-escaped."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters become ``counter`` samples; histogram summaries become a
    ``summary``-style family (``_count``/``_sum`` plus ``quantile``
    labels); span aggregates become two labelled families keyed by the
    span name (which is where label-value escaping earns its keep).
    """
    lines = []
    for name, value in snapshot.get("counters", {}).items():
        metric = metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        metric = metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {summary.get('count', 0)}")
        lines.append(f"{metric}_sum {_format_value(summary.get('total_s', 0.0))}")
        for quantile, key in (("0.5", "p50_s"), ("0.95", "p95_s"), ("1", "max_s")):
            if key in summary:
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} {_format_value(summary[key])}'
                )
    span_families = snapshot.get("spans", {})
    if span_families:
        count_metric = metric_name("span_count", prefix)
        total_metric = metric_name("span_seconds_total", prefix)
        lines.append(f"# TYPE {count_metric} counter")
        lines.append(f"# TYPE {total_metric} counter")
        for name, aggregate in span_families.items():
            label = escape_label_value(str(name))
            lines.append(f'{count_metric}{{span="{label}"}} {aggregate["count"]}')
            lines.append(
                f'{total_metric}{{span="{label}"}} {_format_value(aggregate["total_s"])}'
            )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ profile


def _self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap (spans absorbed from parallel workers), so the
    covered part is the union of their intervals, clipped to the parent's.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    self_times: Dict[int, float] = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_times[span.span_id] = span.duration - covered
    return self_times


def profile_table(tracer: Tracer, top: int = 0) -> str:
    """Human-readable per-span-name profile (the ``--profile`` output).

    Aggregates finished spans by name: call count, total (inclusive) and
    self time, total as a percentage of the root spans' summed duration,
    and mean and max duration, sorted by total descending.  A root span is
    one whose parent was not recorded; ``reverse`` records each stage as a
    root, so there ``%root`` is the stage's share of the run.
    """
    groups = tracer.by_name()
    spans = [span for group in groups.values() for span in group]
    span_ids = {span.span_id for span in spans}
    self_times = _self_times(spans)
    root_total = sum(span.duration for span in spans if span.parent_id not in span_ids)
    rows = []
    for name, group in groups.items():
        durations = [span.duration for span in group]
        total = sum(durations)
        self_total = sum(self_times[span.span_id] for span in group)
        rows.append((total, name, len(durations), self_total, max(durations)))
    rows.sort(key=lambda row: (-row[0], row[1]))
    if top:
        rows = rows[:top]
    lines = [
        f"{'span':<28}{'count':>7}{'total_s':>10}{'self_s':>10}{'%root':>8}"
        f"{'mean_s':>10}{'max_s':>10}"
    ]
    for total, name, count, self_total, peak in rows:
        share = 100.0 * total / root_total if root_total > 0 else 0.0
        lines.append(
            f"{name:<28}{count:>7}{total:>10.4f}{self_total:>10.4f}{share:>8.1f}"
            f"{total / count:>10.4f}{peak:>10.4f}"
        )
    if len(lines) == 1:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
