"""Measure one workload in a fresh process and print the result as JSON.

Started by ``run.py``; not meant to be run by hand.  Module-level caches
of the program (instruction tables, OCR tables) therefore start cold for
every run, on every commit.

The program is driven only through its public API and CLI, and every
layer is timed by wrapping a call into that layer from this file.  The
program's own tracer is never switched on: ``ReverserConfig.trace`` stays
``None`` and ``repro serve`` runs without ``--trace-out``/``--metrics-out``,
because either would change the code path being measured (see README).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro import DPReverser, ReverserConfig  # noqa: E402
from repro.core import (  # noqa: E402
    analyze_video,
    assemble_with_diagnostics,
    check_formula,
    detect_transport,
    estimate_offset_via_obd,
    extract_fields,
    extract_procedures,
)
from repro.cps.ocr import OcrEngine  # noqa: E402
from repro.service import (  # noqa: E402
    MessageDecoder,
    VehicleSession,
    capture_to_wire,
    encode_message,
    stream_capture,
)
from repro.service.client import ServiceClientError  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    ProtocolError,
    click_from_wire,
    frame_from_wire,
    segment_from_wire,
    video_from_wire,
)

from timing import pin_to_one_cpu, start_server, stop_server, timed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CarInput,
    Workload,
    collect_inputs,
    inputs_digest,
    session_order,
)

#: Bytes per ``MessageDecoder.feed`` call in the traced service chain (one
#: socket read's worth).
READ_CHUNK = 64 * 1024

#: Share of recovered formulas that must match ground truth for a run to
#: count as correct (the paper's Tab. 6 precision is 98.3%).
EXACT_FLOOR = 0.95


def run_passes(seconds: float, fixed: int, one_pass: Callable[[int], None]) -> int:
    """Run ``one_pass(index)`` until ``seconds`` are spent, or ``fixed`` times.

    A further pass starts only when it is expected to end no more than half
    a pass past the budget, so the run length stays close to ``seconds``.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass(passes)
        passes += 1
        if fixed:
            if passes >= fixed:
                return passes
            continue
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes > seconds:
            return passes


def median_sum(samples: Dict[str, List[float]]) -> float:
    """Sum over cars of each car's median sample."""
    return sum(statistics.median(values) for values in samples.values() if values)


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Checker:
    """Failure and correctness bookkeeping shared by every measurement."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reports: Dict[str, str] = {}  # car -> first report JSON

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def same_report(self, key: str, text: str, what: str) -> None:
        """Record ``text`` as car ``key``'s report, or check it matches."""
        if self.reports.setdefault(key, text) != text:
            self.problems.append(f"{what}: report of car {key} differs")
            print(f"MISMATCH: {what}: report of car {key} differs", file=sys.stderr)


class Latencies:
    """Per-car samples of one timed operation, raw and speed-normalised."""

    def __init__(self, inputs: List[CarInput]) -> None:
        self.raw: Dict[str, List[float]] = {item.key: [] for item in inputs}
        self.norm: Dict[str, List[float]] = {item.key: [] for item in inputs}

    def add(self, key: str, raw: float, norm: float) -> None:
        self.raw[key].append(raw)
        self.norm[key].append(norm)

    @staticmethod
    def per_s(samples: Dict[str, List[float]]) -> float:
        """Cars over the sum of each car's median latency."""
        total = median_sum(samples)
        return len(samples) / total if total else 0.0


class Quality:
    """ESVs and ground-truth-exact formulas over one report per car."""

    def __init__(self) -> None:
        self.esvs = self.exact = self.formula_esvs = 0

    def add(self, item: CarInput, report) -> None:
        self.esvs += len(report.esvs)
        self.formula_esvs += len(report.formula_esvs)
        for esv in report.formula_esvs:
            truth = item.truth.get(esv.identifier)
            if truth is not None and _exact(esv, truth):
                self.exact += 1

    def metrics(self, check: Checker) -> Dict[str, int]:
        if self.exact < EXACT_FLOOR * self.formula_esvs:
            check.problems.append(
                f"only {self.exact} of {self.formula_esvs} formulas are exact"
            )
        return {"esvs_recovered": self.esvs, "formulas_exact": self.exact}


def _exact(esv, truth) -> bool:
    try:
        return check_formula(esv.formula, truth, esv.samples)
    except IndexError:
        # A bit error can shorten an ESV's samples below the true formula's
        # arity; check_formula then indexes past the tuple.  Not exact.
        return False


def _finish(latencies: Latencies, rss: float, quality: Dict[str, int]) -> dict:
    return {
        "metrics": {
            "captures_per_s": latencies.per_s(latencies.norm),
            "peak_rss_mib": rss,
            **quality,
        },
        "raw": {"captures_per_s_raw": latencies.per_s(latencies.raw)},
    }


# --------------------------------------------------------------- offline


def measure_offline(
    workload: Workload, inputs: List[CarInput], seconds: float, passes: int, check: Checker
) -> dict:
    config = ReverserConfig(formula_backend=workload.formula_backend)
    latencies = Latencies(inputs)
    quality = Quality()

    def one_pass(index: int) -> None:
        for item in inputs:
            check.attempted += 1
            reverser = DPReverser(config)
            try:
                report, raw, norm = timed(reverser.reverse_engineer, item.capture)
            except Exception:  # the run goes on; the failure is counted
                traceback.print_exc()
                check.fail(f"reverse_engineer car {item.key} pass {index}")
                continue
            latencies.add(item.key, raw, norm)
            if item.key not in check.reports:
                quality.add(item, report)
            check.same_report(item.key, report.to_json(), f"pass {index}")

    n_passes = run_passes(seconds, passes, one_pass)
    rss = peak_rss_mib(resource.RUSAGE_SELF)
    return {"passes": n_passes, **_finish(latencies, rss, quality.metrics(check))}


# ----------------------------------------------------------------- serve


def measure_serve(
    workload: Workload,
    inputs: List[CarInput],
    seed: int,
    seconds: float,
    passes: int,
    check: Checker,
) -> dict:
    """Closed loop of one client: each session replays one capture and the
    next starts when its report has arrived.  Latency runs from connection
    open to report received; a round replays every car once, in an order
    shuffled from the seed."""
    by_key = {item.key: item for item in inputs}
    latencies = Latencies(inputs)
    served: Dict[str, List[str]] = {item.key: [] for item in inputs}

    proc, port = start_server(ROOT)
    try:

        def one_round(index: int) -> None:
            for key in session_order(list(by_key), seed, index):
                check.attempted += 1
                try:
                    result, raw, norm = timed(
                        stream_capture, "127.0.0.1", port, by_key[key].capture, f"car-{key}"
                    )
                except (ServiceClientError, ProtocolError, OSError) as error:
                    check.fail(f"session car {key}: {error}")
                    continue
                latencies.add(key, raw, norm)
                served[key].append(result.report_json)

        rounds = run_passes(seconds, passes, one_round)
        # Let the server finish closing the last connection: a signal that
        # lands mid-close makes asyncio print a spurious traceback.
        time.sleep(0.2)
    finally:
        stop_server(proc)
    rss = peak_rss_mib(resource.RUSAGE_CHILDREN)  # the server, reaped above

    # A session also fails when its report differs from the offline batch
    # report of the same capture.
    config = ReverserConfig(formula_backend=workload.formula_backend)
    quality = Quality()
    for item in inputs:
        report = DPReverser(config).reverse_engineer(item.capture)
        quality.add(item, report)
        batch = report.to_json()
        for text in served[item.key]:
            if text != batch:
                check.fail(f"served report of car {item.key} differs from batch")
    sessions = sum(len(v) for v in served.values())
    result = {"passes": rounds, "sessions": sessions}
    result.update(_finish(latencies, rss, quality.metrics(check)))
    return result


# ---------------------------------------------------------------- traced


class LayerClock:
    """Per-layer time samples (one list per car) and summed counts."""

    def __init__(self) -> None:
        self.times: Dict[str, Dict[str, List[float]]] = {}
        self.counts: Dict[str, float] = {}

    def record(self, layer: str, key: str, seconds: float) -> None:
        self.times.setdefault(layer, {}).setdefault(key, []).append(seconds)

    def time(self, layer: str, key: str, fn: Callable, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.record(layer, key, time.perf_counter() - start)
        return result

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def seconds(self, layer: str) -> float:
        return median_sum(self.times.get(layer, {}))

    def rate(self, count: str, layer: str) -> float:
        busy = self.seconds(layer)
        return self.counts.get(count, 0) / busy if busy else 0.0


def _decomposed(config: ReverserConfig, item: CarInput, clock: LayerClock, counting: bool):
    """``reverse_engineer`` as three public calls, each timed.

    Returns only the report: like ``reverse_engineer``, it frees the
    analysis context before returning, so both forms pay its teardown.
    """
    key = item.key
    capture = item.capture
    reverser = DPReverser(config)

    def screen():
        frames = list(capture.can_log)
        return frames, detect_transport(frames)

    frames, transport = clock.time("screening.s", key, screen)
    start = time.perf_counter()
    messages, diagnostics = assemble_with_diagnostics(frames, transport)
    elapsed = time.perf_counter() - start
    clock.record("assembly.s", key, elapsed)
    clock.record(f"assembly.s.{transport}", key, elapsed)
    context = clock.time(
        "analyze.s",
        key,
        reverser.analyze_assembled,
        capture,
        messages,
        transport,
        diagnostics,
    )
    report = clock.time("infer.s", key, reverser.infer, context)
    if counting:
        stats = diagnostics.stats
        clock.add("input.frames", len(frames))
        clock.add("input.video_frames", len(capture.video))
        clock.add(f"frames.{transport}", len(frames))
        clock.add("assembly.messages", len(messages))
        clock.add("assembly.decode_errors", stats.errors)
        clock.add("assembly.messages_lost", stats.messages_lost)
        clock.add("match.matched", len(context.matches))
        for esv in report.esvs:
            if esv.is_enum:
                continue
            if esv.formula is None:
                clock.add("infer.unsolved", 1)
            elif esv.formula.backend == "gp":
                clock.add("infer.gp_formulas", 1)
            else:
                clock.add("infer.linear_formulas", 1)
    return report


def _probes(config: ReverserConfig, item: CarInput, clock: LayerClock, counting: bool):
    """Standalone calls of the layers ``analyze_assembled`` and ``infer`` run."""
    key = item.key
    capture = item.capture
    messages, _ = assemble_with_diagnostics(capture.can_log)
    fields = clock.time("fields.s", key, extract_fields, messages)
    ocr = OcrEngine(capture.tool_error_rate, seed=config.ocr_seed)
    series, filters = clock.time("screenshot.s", key, analyze_video, capture.video, ocr)
    clock.time("alignment.s", key, estimate_offset_via_obd, fields.observations, series)
    procedures = clock.time("ecr.s", key, extract_procedures, fields.io_events)
    if counting:
        clock.add("fields.observations", len(fields.observations))
        clock.add(
            "screenshot.ocr_rejected",
            sum(f.removed_range + f.removed_outlier for f in filters.values()),
        )
        clock.add("ecr.procedures", len(procedures))


def _service_chain(config: ReverserConfig, item: CarInput, clock: LayerClock, counting: bool):
    """The server's path for one session, driven in-process: client encode,
    wire decode, session ingest, finalize."""
    key = item.key

    def encode():
        return [
            encode_message(m)
            for m in capture_to_wire(item.capture, tenant=f"car-{key}")
        ]

    stream = b"".join(clock.time("client.encode_s", key, encode))

    def decode():
        decoder = MessageDecoder()
        messages = []
        for offset in range(0, len(stream), READ_CHUNK):
            messages.extend(decoder.feed(stream[offset : offset + READ_CHUNK]))
        return messages

    messages = clock.time("protocol.decode_s", key, decode)
    hello = messages[0]
    session = VehicleSession(
        0, tenant=hello["tenant"], transport=hello["transport"], meta=hello["meta"]
    )

    def ingest():
        frames = 0
        for message in messages[1:-1]:  # between hello and finish
            kind = message["type"]
            if kind == "frame":
                session.ingest_frame(frame_from_wire(message))
                frames += 1
            elif kind == "video":
                session.ingest_video(video_from_wire(message))
            elif kind == "click":
                session.ingest_click(click_from_wire(message))
            elif kind == "segment":
                session.ingest_segment(segment_from_wire(message))
            else:
                raise ProtocolError(f"unexpected message {kind!r}")
        return frames

    frames = clock.time("session.ingest_s", key, ingest)
    report = clock.time("session.finalize_s", key, session.finalize, DPReverser(config))
    if counting:
        clock.add("protocol.wire_bytes", len(stream))
        clock.add("protocol.messages", len(messages))
        clock.add("session.frames", frames)
    return report


_COUNTS = (
    "input.frames", "input.video_frames", "assembly.messages",
    "assembly.decode_errors", "assembly.messages_lost", "fields.observations",
    "screenshot.ocr_rejected", "match.matched", "infer.linear_formulas",
    "infer.gp_formulas", "infer.unsolved", "ecr.procedures",
    "protocol.wire_bytes", "protocol.messages",
)
_LAYERS = (
    "screening.s", "assembly.s", "fields.s", "screenshot.s", "alignment.s",
    "analyze.s", "infer.s", "ecr.s", "client.encode_s", "protocol.decode_s",
    "session.ingest_s", "session.finalize_s",
)


def measure_traced(
    workload: Workload, inputs: List[CarInput], seconds: float, passes: int, check: Checker
) -> dict:
    config = ReverserConfig(formula_backend=workload.formula_backend)
    # The serve workload's sessions finalize the way `repro serve` builds
    # its reverser from SERVE_FLAGS and the ServiceConfig defaults.
    service_config = (
        ReverserConfig(
            formula_backend=workload.formula_backend, gp_backend="serial", gp_batch=True
        )
        if workload.serve
        else config
    )
    clock = LayerClock()
    whole = Latencies(inputs)
    split = Latencies(inputs)

    def run_whole(item: CarInput):
        report, raw, norm = timed(DPReverser(config).reverse_engineer, item.capture)
        whole.add(item.key, raw, norm)
        return report

    def run_split(item: CarInput, counting: bool):
        report, raw, norm = timed(_decomposed, config, item, clock, counting)
        split.add(item.key, raw, norm)
        return report

    def one_pass(index: int) -> None:
        counting = index == 0
        for item in inputs:
            check.attempted += 1
            try:
                # Whole, split, whole: a drift in host speed across the
                # three calls cancels out of the comparison.
                reference = run_whole(item)
                report = run_split(item, counting)
                run_whole(item)
                _probes(config, item, clock, counting)
                streamed = _service_chain(service_config, item, clock, counting)
            except Exception:  # the run goes on; the failure is counted
                traceback.print_exc()
                check.fail(f"traced car {item.key} pass {index}")
                continue
            check.same_report(item.key, reference.to_json(), "reverse_engineer")
            check.same_report(item.key, report.to_json(), "decomposition")
            check.same_report(item.key, streamed.to_json(), "service finalize")

    n_passes = run_passes(seconds, passes, one_pass)
    metrics = {name: clock.counts.get(name, 0) for name in _COUNTS}
    metrics.update({layer: clock.seconds(layer) for layer in _LAYERS})
    metrics["assembly.frames_per_s"] = clock.rate("input.frames", "assembly.s")
    for transport in ("isotp", "vwtp", "bmw"):
        metrics[f"assembly.frames_per_s.{transport}"] = clock.rate(
            f"frames.{transport}", f"assembly.s.{transport}"
        )
    metrics["screenshot.video_frames_per_s"] = clock.rate(
        "input.video_frames", "screenshot.s"
    )
    metrics["session.ingest_frames_per_s"] = clock.rate("session.frames", "session.ingest_s")
    metrics["analyze.unattributed_s"] = metrics["analyze.s"] - (
        metrics["fields.s"] + metrics["screenshot.s"] + metrics["alignment.s"]
    )
    # Median over cars, so one car caught in a slow spell does not decide it.
    ratios = [
        statistics.median(split.norm[key]) / statistics.median(whole.norm[key])
        for key in whole.norm
        if whole.norm[key] and split.norm[key]
    ]
    metrics["trace.overhead_ratio"] = statistics.median(ratios) - 1 if ratios else 0.0
    return {"passes": n_passes, "metrics": metrics}


# ------------------------------------------------------------------ main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cars", type=int, default=0)
    parser.add_argument("--passes", type=int, default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    inputs = collect_inputs(workload, args.seed, args.cars)
    collect_s = time.perf_counter() - start
    digest = inputs_digest(workload, inputs, args.seed)
    # The inputs of every car stay alive for the whole run.  Left tracked,
    # they would make each full collection inside a timed call cost time
    # in proportion to the benchmark's heap, not the program's.
    gc.collect()
    gc.freeze()

    check = Checker()
    if args.trace:
        result = measure_traced(workload, inputs, args.seconds, args.passes, check)
        result["metrics"]["input.collect_s"] = collect_s
    elif workload.serve:
        result = measure_serve(
            workload, inputs, args.seed, args.seconds, args.passes, check
        )
    else:
        result = measure_offline(workload, inputs, args.seconds, args.passes, check)

    result.update(
        {
            "correct": not check.problems,
            "attempted": check.attempted,
            "failed": check.failed,
            "problems": check.problems[:20],
            "inputs_digest": digest,
            "cars": [item.key for item in inputs],
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
