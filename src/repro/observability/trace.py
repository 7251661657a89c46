"""Hierarchical tracing for the reverse-engineering pipeline.

A :class:`Tracer` records :class:`Span`\\ s — named, timed intervals with
attributes and parent/child links — around every pipeline stage, GP
restart, memo lookup and fleet job.  Design constraints, in order:

* **zero overhead when disabled** — a disabled tracer's :meth:`Tracer.span`
  returns one shared null context manager; no span object, no clock read,
  no list append.  The hot paths (per-ESV inference, per-generation GP
  work) pay a single attribute check;
* **determinism-neutral** — tracing only ever *observes*; it never feeds
  back into the pipeline, so a report produced with tracing on is
  byte-identical to one produced with it off (asserted by the test suite);
* **process-boundary friendly** — spans recorded inside a pool worker ride
  back to the parent as plain JSON-able dicts (in the GP task's
  ``_TaskOutcome`` or the fleet job's ``JobResult``) and are grafted into
  the parent's tree by :meth:`Tracer.absorb`.

Export targets: JSONL (one span object per line) and the Chrome trace
event format, which ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_ open directly.

The *active tracer* (:func:`get_active` / :func:`activated`) is how deep
pipeline code — GP restarts in :mod:`repro.core.response_analysis`,
per-stream decoding in :mod:`repro.core.assembly` — reaches the tracer
without threading it through every signature.  It is kept per thread and
defaults to the shared disabled :data:`NULL_TRACER`, so unconfigured code
paths stay free.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

TRACE_FORMAT_VERSION = 1

#: Required keys of every exported span record (and of every Chrome trace
#: event we emit) — shared with the validity tests.
SPAN_KEYS = ("span_id", "parent_id", "name", "start_s", "duration_s", "tid", "attrs")
CHROME_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid", "args")


class Span:
    """One named, timed interval in the trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "tid", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        tid: int = 0,
        attrs: Optional[dict] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, **attrs: object) -> "Span":
        """Attach attributes after entry (e.g. a memo hit known at exit)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start, 9),
            "duration_s": round(self.duration, 9),
            "tid": self.tid,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The span a disabled tracer hands out: every operation is a no-op."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self


class _NullSpanContext:
    """Shared reusable context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager that opens a span on entry and closes it on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects a tree of spans for one run.

    Thread-safe: spans opened from worker threads nest under whatever span
    that thread opened last (each thread keeps its own stack), and every
    finished span lands in one shared, completion-ordered list.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.clock = clock or time.perf_counter
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._tids: Dict[int, int] = {}  # thread ident -> small stable tid

    # ----------------------------------------------------------------- record

    def span(self, name: str, **attrs: object) -> Union[_SpanContext, _NullSpanContext]:
        """Context manager recording one span (shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            tid = self._tids.setdefault(threading.get_ident(), len(self._tids))
        parent_id = stack[-1].span_id if stack else None
        span = Span(span_id, parent_id, name, self.clock(), tid=tid, attrs=attrs)
        stack.append(span)
        return span

    def _close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def current(self) -> Optional[Span]:
        """The innermost span open on the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # ---------------------------------------------------------- cross-process

    def export_payload(self) -> List[dict]:
        """Spans as JSON-able dicts, the form that rides across processes."""
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def absorb(
        self,
        payload: Iterable[dict],
        parent_id: Optional[int] = None,
        tid: Optional[int] = None,
    ) -> int:
        """Graft spans exported elsewhere into this tracer's tree.

        Span ids are re-allocated (worker ids collide across workers), root
        spans of the payload are re-parented under ``parent_id``, and
        timestamps are shifted so the absorbed subtree *ends* at this
        tracer's current clock reading — a payload arrives when its work
        has just finished, worker clocks have their own epoch, and only
        *relative* time inside the subtree is meaningful.  Ending at "now"
        keeps a grafted subtree inside the parent span that was open while
        the work ran.  Returns the number of spans absorbed.
        """
        records = list(payload)
        if not records or not self.enabled:
            return 0
        end = max(record["start_s"] + record["duration_s"] for record in records)
        shift = self.clock() - end
        id_map: Dict[int, int] = {}
        absorbed: List[Span] = []
        with self._lock:
            for record in records:
                id_map[record["span_id"]] = self._next_id
                self._next_id += 1
            for record in records:
                old_parent = record["parent_id"]
                span = Span(
                    span_id=id_map[record["span_id"]],
                    parent_id=(
                        id_map[old_parent] if old_parent in id_map else parent_id
                    ),
                    name=record["name"],
                    start=record["start_s"] + shift,
                    tid=record["tid"] if tid is None else tid,
                    attrs=dict(record["attrs"]),
                )
                span.end = span.start + record["duration_s"]
                absorbed.append(span)
            self.spans.extend(absorbed)
        return len(absorbed)

    # ---------------------------------------------------------------- queries

    def by_name(self) -> Dict[str, List[Span]]:
        """Finished spans grouped by name (insertion order preserved)."""
        grouped: Dict[str, List[Span]] = {}
        with self._lock:
            for span in self.spans:
                grouped.setdefault(span.name, []).append(span)
        return grouped

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        with self._lock:
            return [span for span in self.spans if span.parent_id == span_id]

    # ---------------------------------------------------------------- exports

    def to_jsonl(self) -> str:
        """One JSON object per span, completion order — the raw artifact."""
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.export_payload()
        )

    def to_chrome(self, pid: int = 0) -> dict:
        """The Chrome trace event format (open in Perfetto / chrome://tracing).

        Every span becomes one complete (``"ph": "X"``) event; timestamps
        are microseconds relative to the earliest span, so the viewer's
        timeline starts at zero regardless of the clock's epoch.
        """
        with self._lock:
            spans = list(self.spans)
        base = min((span.start for span in spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": "pipeline",
                "ph": "X",
                "ts": round((span.start - base) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": span.tid,
                "args": dict(span.attrs, span_id=span.span_id),
            }
            for span in spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"format_version": TRACE_FORMAT_VERSION},
        }

    def save(self, directory: Union[str, Path]) -> Tuple[Path, Path]:
        """Write ``trace.json`` (Chrome format) + ``spans.jsonl`` to a dir."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        chrome_path = directory / "trace.json"
        chrome_path.write_text(json.dumps(self.to_chrome(), sort_keys=True) + "\n")
        jsonl_path = directory / "spans.jsonl"
        jsonl_path.write_text(self.to_jsonl() + "\n")
        return chrome_path, jsonl_path


#: The shared disabled tracer: safe to use from any thread, records nothing.
NULL_TRACER = Tracer(enabled=False)


class _ActiveTracer(threading.local):
    """The calling thread's active tracer.

    Per thread because jobs and service sessions finalize concurrently on
    thread pools: a shared slot would send one job's deep spans into
    another job's tracer and restore the wrong tracer on exit.  The class
    attribute is what a thread sees before it activates anything.
    """

    tracer: Tracer = NULL_TRACER


#: How deep pipeline code (GP restarts, per-stream decoding) reaches the
#: run's tracer without signature changes.
_ACTIVE = _ActiveTracer()


def get_active() -> Tracer:
    """The tracer deep instrumentation on this thread should record into
    (never None)."""
    return _ACTIVE.tracer


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as this thread's active tracer; returns the
    previous one."""
    previous = _ACTIVE.tracer
    _ACTIVE.tracer = tracer
    return previous


class activated:
    """Context manager scoping :func:`activate` to a block.

    Written as a class (not ``@contextmanager``) so entering with the
    disabled tracer costs two attribute writes and no generator frame.
    """

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = activate(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info: object) -> bool:
        activate(self._previous)
        return False
