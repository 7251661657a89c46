"""Command-line interface.

The separable workflow a downstream user runs::

    python -m repro list-cars
    python -m repro collect --car D --out capture_d
    python -m repro reverse capture_d --report report_d.txt
    python -m repro fleet --cars A K R
    python -m repro attack --car D
    python -m repro apps

``collect`` and ``reverse`` round-trip through the on-disk capture format
of :mod:`repro.persistence`, so externally recorded candump + video data in
the same layout can be analysed too.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def _add_formula_backend_arg(parser: argparse.ArgumentParser) -> None:
    """The shared ``--formula-backend`` flag.

    Deliberately distinct from ``--gp-backend``: this picks *what solver*
    recovers each formula (GP search, closed-form least squares, or
    linear-first-GP-fallback), while ``--gp-backend`` picks *where* GP
    fitness evaluations execute (serial/process).
    """
    parser.add_argument(
        "--formula-backend",
        choices=("gp", "linear", "hybrid"),
        default="gp",
        help="formula-inference backend: 'gp' is the paper's genetic "
        "search, 'linear' a closed-form least-squares dictionary (exact "
        "fits only), 'hybrid' tries linear first and falls back to GP "
        "for the hard tail (same formulas as gp, much faster); distinct "
        "from --gp-backend, which picks where GP evaluations *execute*",
    )


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace-out`` / ``--metrics-out`` / ``--profile`` flags."""
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default="",
        help="record a span trace and write trace.json (Chrome trace "
        "format — open in Perfetto) plus spans.jsonl to this directory",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default="",
        help="write the unified metrics snapshot to this file: Prometheus "
        "text format when the name ends in .prom, canonical JSON otherwise",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage wall-clock profile table after the run",
    )


def _observability_requested(args: argparse.Namespace) -> bool:
    return bool(args.trace_out or args.metrics_out or args.profile)


def _emit_observability(args: argparse.Namespace, tracer, snapshot: dict) -> None:
    """Write the trace/metrics artifacts the flags asked for.

    Everything goes to stderr: stdout may be carrying the report itself
    (``reverse --format json``) and must stay machine-parseable.
    """
    from .observability import profile_table, prometheus_text, snapshot_json

    if args.trace_out:
        chrome_path, jsonl_path = tracer.save(args.trace_out)
        print(f"trace written to {chrome_path} (+ {jsonl_path.name})", file=sys.stderr)
    if args.metrics_out:
        path = Path(args.metrics_out)
        if path.suffix == ".prom":
            path.write_text(prometheus_text(snapshot))
        else:
            path.write_text(snapshot_json(snapshot) + "\n")
        print(f"metrics written to {path}", file=sys.stderr)
    if args.profile:
        print(profile_table(tracer), file=sys.stderr)


def _cmd_list_cars(args: argparse.Namespace) -> int:
    from .vehicle import CAR_SPECS

    print(f"{'Key':<5}{'Model':<24}{'Protocol':<10}{'Tool':<14}{'#ESV':>6}{'#Enum':>7}{'#ECR':>6}")
    for spec in CAR_SPECS.values():
        print(
            f"{spec.key:<5}{spec.model:<24}{spec.protocol.name:<10}"
            f"{spec.tool:<14}{spec.formula_esvs:>6}{spec.enum_esvs:>7}{spec.ecrs:>6}"
        )
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    from .cps import DataCollector
    from .persistence import save_capture
    from .tools import make_tool_for_car
    from .vehicle import CAR_SPECS, build_car

    key = args.car.upper()
    if key not in CAR_SPECS:
        print(f"unknown car {key!r}; see `list-cars`", file=sys.stderr)
        return 2
    car = build_car(key)
    tool = make_tool_for_car(key, car)
    collector = DataCollector(
        tool, read_duration_s=args.duration, camera_offset_s=args.camera_offset
    )
    capture = collector.collect()
    directory = save_capture(capture, args.out)
    print(
        f"collected {len(capture.can_log)} CAN frames, {len(capture.video)} "
        f"video frames, {len(capture.clicks)} clicks -> {directory}"
    )
    return 0


def _cmd_reverse(args: argparse.Namespace) -> int:
    from .can import NoiseProfile
    from .core import DPReverser, GpConfig, ReverserConfig
    from .observability import Tracer, build_snapshot
    from .persistence import load_capture

    try:
        noise = NoiseProfile.parse(args.noise_profile, seed=args.noise_seed)
    except ValueError as error:
        print(f"bad --noise-profile: {error}", file=sys.stderr)
        return 2
    capture = load_capture(args.capture)
    tracer = Tracer() if _observability_requested(args) else None
    start = time.perf_counter()
    config = ReverserConfig(
        gp_config=GpConfig(seed=args.seed),
        gp_workers=args.gp_workers,
        gp_backend=args.gp_backend,
        gp_memo_dir=args.gp_memo,
        formula_backend=args.formula_backend,
        noise=noise,
        trace=tracer,
    )
    reverser = DPReverser(config)
    report = reverser.reverse_engineer(capture)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        snapshot = build_snapshot(
            diagnostics=report.diagnostics,
            fault_counts=report.noise_counts,
            memo_stats=reverser.memo_stats if args.gp_memo else None,
            inference_stats=reverser.inference_stats or None,
            tracer=tracer,
        )
        _emit_observability(args, tracer, snapshot)
    if args.format == "json":
        text = report.to_json()
    elif args.format == "markdown":
        text = report.to_markdown()
    else:
        text = report.summary() + f"\n\nReverse engineering took {elapsed:.1f} s"
        if args.gp_memo:
            stats = reverser.memo_stats
            text += (
                f" (formula memo: {stats['hits']} hit(s), "
                f"{stats['misses']} miss(es))"
            )
    if args.report:
        Path(args.report).write_text(text + "\n")
        print(f"report written to {args.report}")
    else:
        print(text)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .scanner import scan_vehicle
    from .vehicle import CAR_SPECS, build_car

    key = args.car.upper()
    if key not in CAR_SPECS:
        print(f"unknown car {key!r}", file=sys.stderr)
        return 2
    car = build_car(key)
    reports = scan_vehicle(car)
    for ecu_name, report in reports.items():
        identifiers = ", ".join(
            f"{h.identifier:04X}" for h in report.hits[: args.limit]
        )
        suffix = " ..." if len(report.hits) > args.limit else ""
        print(
            f"{ecu_name}: {len(report.hits)} identifiers "
            f"({report.probes_sent} probes): {identifiers}{suffix}"
        )
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    from .core import DPReverser, GpConfig, ReverserConfig, check_formula
    from .cps import DataCollector
    from .tools import make_tool_for_car
    from .vehicle import CAR_SPECS, build_car, ground_truth_formulas

    keys = [k.upper() for k in (args.cars or sorted(CAR_SPECS))]
    total = correct_total = 0
    print(f"{'Car':<5}{'Model':<24}{'#ESV':>6}{'Correct':>9}{'Prec':>8}{'sec':>7}")
    for key in keys:
        start = time.perf_counter()
        car = build_car(key)
        tool = make_tool_for_car(key, car)
        capture = DataCollector(tool, read_duration_s=args.duration).collect()
        reverser = DPReverser(ReverserConfig(gp_config=GpConfig(seed=args.seed)))
        report = reverser.reverse_engineer(capture)
        truth = ground_truth_formulas(car)
        correct = sum(
            esv.identifier in truth
            and check_formula(esv.formula, truth[esv.identifier], esv.samples)
            for esv in report.formula_esvs
        )
        n = len(report.formula_esvs)
        total += n
        correct_total += correct
        print(
            f"{key:<5}{CAR_SPECS[key].model:<24}{n:>6}{correct:>9}"
            f"{correct / n if n else 1:>8.1%}{time.perf_counter() - start:>7.1f}"
        )
    if total:
        print(f"\nTotal precision: {correct_total}/{total} = {correct_total/total:.1%}")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from .can import NoiseProfile
    from .observability import Tracer, build_snapshot
    from .runtime import (
        CheckpointStore,
        EventLog,
        Scheduler,
        SchedulerConfig,
        fleet_job_specs,
    )

    noise_spec = args.noise_profile or ""
    try:
        # Normalise "off"/"none" to the empty spec so disabled noise keeps
        # job ids (and checkpoints) identical to a run without the flag.
        if noise_spec and NoiseProfile.parse(noise_spec) is None:
            noise_spec = ""
    except ValueError as error:
        print(f"bad --noise-profile: {error}", file=sys.stderr)
        return 2
    tracer = Tracer() if _observability_requested(args) else None
    try:
        specs = fleet_job_specs(
            args.cars,
            seed=args.seed,
            read_duration_s=args.duration,
            gp_workers=args.gp_workers,
            gp_backend=args.gp_backend,
            gp_memo_dir=args.gp_memo,
            formula_backend=args.formula_backend,
            noise_spec=noise_spec,
            noise_seed=args.noise_seed,
            trace=tracer is not None,
        )
    except ValueError as error:
        print(f"{error}; see `list-cars`", file=sys.stderr)
        return 2

    pool = args.pool or ("process" if args.workers > 1 else "serial")
    checkpoint = events = None
    resume_dir = None
    if args.resume:
        resume_dir = Path(args.resume)
        try:
            checkpoint = CheckpointStore(resume_dir)
        except OSError as error:
            print(f"cannot use {resume_dir} as checkpoint directory: {error}", file=sys.stderr)
            return 2
        events = EventLog(resume_dir / "events.jsonl")

    try:
        config = SchedulerConfig(
            workers=args.workers,
            pool=pool,
            max_retries=args.retries,
            timeout_s=args.timeout,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    scheduler = Scheduler(config, checkpoint=checkpoint, events=events, tracer=tracer)
    report = scheduler.run(specs)
    print(report.summary())
    if tracer is not None:
        snapshot = build_snapshot(registry=scheduler.metrics, tracer=tracer)
        _emit_observability(args, tracer, snapshot)
    if events is not None:
        events.close()
    if resume_dir is not None:
        path = report.save(resume_dir / "run_report.json")
        print(f"run report written to {path}")
    return 0 if not report.failed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .core import GpConfig
    from .service import DiagnosticServer, ServiceConfig

    # `kill <pid>` must drain like Ctrl-C: route SIGTERM through the same
    # KeyboardInterrupt path so shards stop cleanly and --metrics-out /
    # --trace-out still emit (the default handler would skip the finally).
    def _drain(_signo: int, _frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _drain)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        rate_limit=args.rate_limit,
        status_interval=args.status_interval,
        analysis_workers=args.analysis_workers,
        gp_config=GpConfig(seed=args.seed),
        gp_workers=args.gp_workers,
        gp_backend=args.gp_backend,
        gp_memo_dir=args.gp_memo,
        formula_backend=args.formula_backend,
        trace=_observability_requested(args),
        session_idle_timeout=args.idle_timeout,
    )

    if args.shards > 1:
        from .service.shards import ShardSupervisor

        supervisor = ShardSupervisor(config, args.shards)
        supervisor.start()
        print(
            f"listening on {config.host}:{supervisor.port} "
            f"({args.shards} shards)",
            flush=True,
        )
        try:
            if args.sessions > 0:
                supervisor.wait_for_sessions(args.sessions)
            else:
                while True:
                    time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            supervisor.stop()
        if _observability_requested(args):
            _emit_observability(args, supervisor.tracer, supervisor.merged_snapshot())
        return 0

    server = DiagnosticServer(config)

    async def _run() -> None:
        await server.start()
        print(f"listening on {config.host}:{server.port}", flush=True)
        try:
            if args.sessions > 0:
                while (
                    server.metrics.counter("service.sessions_completed").value
                    + server.metrics.counter("service.sessions_rejected").value
                    < args.sessions
                ):
                    await asyncio.sleep(0.05)
            else:
                await server.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    if _observability_requested(args):
        _emit_observability(args, server.tracer, server.snapshot())
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .attacks import run_table13
    from .vehicle import CAR_SPECS, build_car

    key = args.car.upper()
    if key not in CAR_SPECS:
        print(f"unknown car {key!r}", file=sys.stderr)
        return 2
    car = build_car(key)
    results = run_table13(car)
    for result in results:
        status = "OK" if result.success else "FAILED"
        print(f"[{status}] {result.description}: {result.messages[0]} -> {result.observed_effect}")
    print(f"\n{sum(r.success for r in results)}/{len(results)} attacks succeeded")
    return 0 if all(r.success for r in results) else 1


def _cmd_apps(args: argparse.Namespace) -> int:
    from .apps import analyze_corpus, build_corpus

    apps = build_corpus()
    analysis = analyze_corpus(apps)
    for name, counts in analysis.per_app.items():
        if counts:
            summary = ", ".join(f"{k}: {v}" for k, v in counts.items())
            print(f"{name:<32} {summary}")
    with_formulas = sum(1 for c in analysis.per_app.values() if c)
    print(f"\n{with_formulas} of {len(apps)} apps contain extractable formulas")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DP-Reverser reproduction toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-cars", help="show the 18-vehicle fleet").set_defaults(
        func=_cmd_list_cars
    )

    collect = commands.add_parser("collect", help="run a data-collection campaign")
    collect.add_argument("--car", required=True, help="fleet key A..R")
    collect.add_argument("--out", required=True, help="capture output directory")
    collect.add_argument("--duration", type=float, default=30.0, help="seconds per live read")
    collect.add_argument("--camera-offset", type=float, default=0.0, help="camera clock offset")
    collect.set_defaults(func=_cmd_collect)

    reverse = commands.add_parser("reverse", help="reverse engineer a saved capture")
    reverse.add_argument("capture", help="capture directory from `collect`")
    reverse.add_argument("--report", help="write the report to this file")
    reverse.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text"
    )
    reverse.add_argument("--seed", type=int, default=2)
    reverse.add_argument(
        "--gp-workers",
        type=int,
        default=1,
        help="workers for per-ESV formula inference (identical results)",
    )
    reverse.add_argument(
        "--gp-backend",
        choices=("auto", "serial", "process"),
        default="auto",
        help="per-ESV GP *execution* backend (where fitness evaluations "
        "run, not which solver — see --formula-backend): serial runs "
        "in-process, process submits one task per ESV to a persistent "
        "pool of --gp-workers processes, auto picks process when "
        "--gp-workers > 1 (results are identical on every backend)",
    )
    _add_formula_backend_arg(reverse)
    reverse.add_argument(
        "--gp-memo",
        metavar="DIR",
        default="",
        help="formula memo directory: runs over already-solved ESV "
        "datasets recall the stored formulas instead of re-running GP",
    )
    reverse.add_argument(
        "--noise-profile",
        default="",
        help="inject capture faults before analysis: 'default' or "
        "'drop=0.02,dup=0.01,bit=0.005,reorder=0.01,truncate=0.001,"
        "foreign=0.01' (off when omitted)",
    )
    reverse.add_argument(
        "--noise-seed",
        type=int,
        default=0,
        help="seed of the fault-injection stream (deterministic per seed)",
    )
    _add_observability_args(reverse)
    reverse.set_defaults(func=_cmd_reverse)

    scan = commands.add_parser("scan", help="actively enumerate a car's identifiers")
    scan.add_argument("--car", required=True)
    scan.add_argument("--limit", type=int, default=12, help="ids shown per ECU")
    scan.set_defaults(func=_cmd_scan)

    fleet = commands.add_parser("fleet", help="evaluate the whole fleet (Tab. 6)")
    fleet.add_argument("--cars", nargs="*", help="subset of fleet keys")
    fleet.add_argument("--duration", type=float, default=30.0)
    fleet.add_argument("--seed", type=int, default=2)
    fleet.set_defaults(func=_run_fleet)

    fleet_run = commands.add_parser(
        "fleet-run",
        help="orchestrated fleet sweep: worker pools, retries, checkpoint/resume",
    )
    fleet_run.add_argument("--cars", nargs="*", help="subset of fleet keys")
    fleet_run.add_argument("--workers", type=int, default=1, help="pool size")
    fleet_run.add_argument(
        "--pool",
        choices=("serial", "thread", "process"),
        help="worker backend (default: process when --workers > 1, else serial)",
    )
    fleet_run.add_argument(
        "--resume",
        metavar="DIR",
        help="checkpoint directory; completed cars found there are skipped "
        "and new results, events.jsonl and run_report.json are written to it",
    )
    fleet_run.add_argument("--retries", type=int, default=2, help="retries per job")
    fleet_run.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    fleet_run.add_argument("--duration", type=float, default=30.0)
    fleet_run.add_argument("--seed", type=int, default=2)
    fleet_run.add_argument(
        "--gp-workers",
        type=int,
        default=1,
        help="per-ESV inference workers inside each job (identical results)",
    )
    fleet_run.add_argument(
        "--gp-backend",
        choices=("auto", "serial", "process"),
        default="auto",
        help="per-ESV GP *execution* backend inside each job (where "
        "fitness evaluations run — see --formula-backend for the solver): "
        "serial runs in-process, process uses a persistent per-ESV pool "
        "of --gp-workers processes, auto picks process when "
        "--gp-workers > 1",
    )
    _add_formula_backend_arg(fleet_run)
    fleet_run.add_argument(
        "--gp-memo",
        metavar="DIR",
        default="",
        help="formula memo directory shared by every job: re-runs and "
        "resumed sweeps recall already-solved ESVs instead of re-running GP",
    )
    fleet_run.add_argument(
        "--noise-profile",
        default="",
        help="capture-fault profile applied inside every job (see `reverse "
        "--noise-profile`); changes job ids, so noisy sweeps checkpoint "
        "separately from clean ones",
    )
    fleet_run.add_argument(
        "--noise-seed",
        type=int,
        default=0,
        help="base fault seed; each car derives an independent stream",
    )
    _add_observability_args(fleet_run)
    fleet_run.set_defaults(func=_cmd_fleet_run)

    serve = commands.add_parser(
        "serve",
        help="run the streaming diagnostic server (live frame streams in, "
        "reverse reports out)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=1000,
        help="concurrent session cap; further connections are rejected",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-session ingest limit in records/second (0 = unlimited); "
        "enforced by stalling the reader, which flow-controls the client",
    )
    serve.add_argument(
        "--status-interval",
        type=int,
        default=0,
        help="push an interim status snapshot every N assembled messages "
        "(0 = only the final report)",
    )
    serve.add_argument(
        "--analysis-workers",
        type=int,
        default=2,
        help="worker threads the event loop offloads analysis onto",
    )
    serve.add_argument("--seed", type=int, default=2)
    serve.add_argument(
        "--gp-workers",
        type=int,
        default=1,
        help="workers for per-ESV formula inference (identical results)",
    )
    serve.add_argument(
        "--gp-backend",
        choices=("auto", "serial", "process"),
        default="auto",
        help="per-ESV GP *execution* backend for finalize (where fitness "
        "evaluations run — see --formula-backend for the solver); auto "
        "resolves to process (a persistent per-ESV pool of --gp-workers "
        "processes, shared by every session)",
    )
    _add_formula_backend_arg(serve)
    serve.add_argument(
        "--gp-memo",
        metavar="DIR",
        default="",
        help="formula memo directory shared across all sessions: tenants "
        "streaming the same model reuse each other's inferred formulas",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="pre-forked server processes sharing the port via SO_REUSEPORT "
        "(1 = single process); the parent supervises restarts and merges "
        "per-shard metrics/trace into the single observability artifacts",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=0,
        help="exit after this many sessions complete (0 = serve forever)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=0.0,
        help="evict sessions idle longer than this many seconds "
        "(slowloris defense; 0 = never)",
    )
    _add_observability_args(serve)
    serve.set_defaults(func=_cmd_serve)

    attack = commands.add_parser("attack", help="run the Tab. 13 attack set")
    attack.add_argument("--car", required=True)
    attack.set_defaults(func=_cmd_attack)

    commands.add_parser("apps", help="mine the telematics-app corpus (Tab. 12)").set_defaults(
        func=_cmd_apps
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
