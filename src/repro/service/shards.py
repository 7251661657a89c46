"""Pre-forked shard workers: one diagnostic server per core, one port.

``repro serve --shards N`` runs N :class:`~repro.service.server
.DiagnosticServer` processes all listening on the *same* TCP port via
``SO_REUSEPORT`` — the kernel load-balances incoming connections across
the listening sockets, so clients need no balancer and no shard
awareness.  Each shard owns a full event loop, analysis thread pool
and (when GP runs out of process) persistent GP worker pool; the shards
share nothing in memory and meet only at the on-disk
:class:`~repro.core.formula_memo.FormulaMemo` directory, which is
already multi-process safe.

The parent process never touches a connection.  It:

* **reserves the port** — binds (but does not listen on) a
  ``SO_REUSEPORT`` socket first, so an ephemeral ``port=0`` resolves once
  and every shard (including restarts) binds the same number; a
  bound-but-not-listening socket gets no traffic from the kernel's
  balancing;
* **supervises** — a monitor thread restarts any shard that dies
  (counted in ``service.shard_restarts``) without disturbing siblings'
  accepted connections;
* **drains** — SIGTERM forwards to every shard, each of which stops
  accepting, lets in-flight sessions finalize, then reports back;
* **merges observability** — every shard ships its metrics (raw
  histogram samples, so merged percentiles are exact), memo/inference
  stats and trace spans through its pipe on exit; the parent folds them
  into the single ``--metrics-out``/``--trace-out`` artifacts, one trace
  lane (tid) per shard.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import signal
import socket
import threading
import time
from typing import Dict, List, Optional

from ..observability.export import build_snapshot
from ..observability.trace import NULL_TRACER, Tracer
from ..runtime.metrics import MetricsRegistry
from .server import DiagnosticServer, ServiceConfig

#: Seconds a shard waits for in-flight sessions to finalize on SIGTERM
#: before giving up and exiting anyway (a wedged client must not hold the
#: whole deployment's shutdown hostage).
DRAIN_TIMEOUT_S = 30.0

#: Seconds the supervisor waits for a spawned shard's ``ready``.
READY_TIMEOUT_S = 60.0

#: Seconds between liveness/pipe polls in both supervisor and shard.
POLL_INTERVAL_S = 0.05


def _shard_snapshot_payload(server: DiagnosticServer) -> dict:
    """Everything a shard ships home for the supervisor's merge."""
    return {
        "metrics": server.metrics.export_state(),
        "memo": dict(server.memo_stats),
        "inference": dict(server.inference_stats),
        "spans": server.tracer.export_payload() if server.tracer.enabled else [],
    }


async def _shard_serve(config: ServiceConfig, index: int, pipe) -> None:
    server = DiagnosticServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    pipe.send(("ready", index, server.port))
    completed = server.metrics.counter("service.sessions_completed")
    rejected = server.metrics.counter("service.sessions_rejected")
    reported = -1
    while not stop.is_set():
        try:
            await asyncio.wait_for(stop.wait(), timeout=POLL_INTERVAL_S)
        except asyncio.TimeoutError:
            pass
        done = completed.value + rejected.value
        if done != reported:
            reported = done
            pipe.send(("progress", index, done))
    try:
        await asyncio.wait_for(server.drain(), timeout=DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    await server.stop()
    pipe.send(("progress", index, completed.value + rejected.value))
    pipe.send(("snapshot", index, _shard_snapshot_payload(server)))


def _shard_main(config: ServiceConfig, index: int, pipe) -> None:
    """Entry point of one shard process (module-level: spawn-picklable)."""
    try:
        asyncio.run(_shard_serve(config, index, pipe))
    finally:
        pipe.close()


class _ShardSlot:
    """One shard position: the live process plus its restart history."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.pipe = None
        self.progress = 0  # last report of the *current* process
        self.done_base = 0  # completed totals of dead predecessors
        self.snapshot: Optional[dict] = None


class ShardSupervisor:
    """Parent of a pre-forked shard fleet; see the module docstring."""

    def __init__(self, config: ServiceConfig, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.restarts = 0
        self.tracer = Tracer() if config.trace else NULL_TRACER
        self._base_config = config
        self._context = multiprocessing.get_context("spawn")
        self._reserved: Optional[socket.socket] = None
        self._port = 0
        self._slots: List[_ShardSlot] = [_ShardSlot(i) for i in range(shards)]
        self._monitor: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------ lifecycle

    @property
    def port(self) -> int:
        if not self._started:
            raise RuntimeError("supervisor is not running")
        return self._port

    @property
    def sessions_done(self) -> int:
        """Sessions completed or rejected across all shards and restarts."""
        with self._lock:
            return sum(slot.done_base + slot.progress for slot in self._slots)

    def _shard_config(self, index: int) -> ServiceConfig:
        return dataclasses.replace(
            self._base_config,
            port=self._port,
            reuse_port=True,
            shard_index=index,
        )

    def _spawn(self, slot: _ShardSlot) -> None:
        parent_pipe, child_pipe = self._context.Pipe()
        # Not daemonic: a shard spawns its own worker processes (the GP
        # worker pool), which daemonic processes are forbidden to do.
        process = self._context.Process(
            target=_shard_main,
            args=(self._shard_config(slot.index), slot.index, child_pipe),
        )
        process.start()
        child_pipe.close()
        slot.process = process
        slot.pipe = parent_pipe
        slot.progress = 0
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if parent_pipe.poll(POLL_INTERVAL_S):
                    kind, __, value = parent_pipe.recv()
                    if kind == "ready":
                        return
                    if kind == "progress":
                        slot.progress = value
                elif not process.is_alive():
                    break
            except (EOFError, OSError):
                break
        raise RuntimeError(f"shard {slot.index} failed to start")

    def start(self) -> None:
        """Reserve the port, spawn every shard, begin supervising."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._reserved = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._reserved.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._reserved.bind((self._base_config.host, self._base_config.port))
        self._port = self._reserved.getsockname()[1]
        self._started = True
        try:
            for slot in self._slots:
                self._spawn(slot)
        except Exception:
            self._started = False
            self._terminate_all()
            raise
        self._monitor = threading.Thread(target=self._supervise, daemon=True)
        self._monitor.start()

    def __enter__(self) -> "ShardSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------- supervise

    def _pump(self, slot: _ShardSlot) -> None:
        """Drain everything the shard's pipe currently holds."""
        try:
            while slot.pipe is not None and slot.pipe.poll(0):
                kind, __, value = slot.pipe.recv()
                if kind == "progress":
                    with self._lock:
                        slot.progress = value
                elif kind == "snapshot":
                    slot.snapshot = value
        except (EOFError, OSError):
            pass

    def _supervise(self) -> None:
        while not self._stopping:
            for slot in self._slots:
                self._pump(slot)
                process = slot.process
                if (
                    not self._stopping
                    and process is not None
                    and not process.is_alive()
                ):
                    # Crashed (clean exits only happen while stopping):
                    # fold its progress into the base and respawn.
                    with self._lock:
                        slot.done_base += slot.progress
                        slot.progress = 0
                        self.restarts += 1
                    if slot.pipe is not None:
                        slot.pipe.close()
                        slot.pipe = None
                    try:
                        self._spawn(slot)
                    except RuntimeError:
                        pass  # retried on the next sweep
            time.sleep(POLL_INTERVAL_S)

    def wait_for_sessions(self, sessions: int, timeout: float = 0.0) -> bool:
        """Block until N sessions completed fleet-wide (0/neg timeout = ∞)."""
        deadline = time.monotonic() + timeout if timeout > 0 else None
        while self.sessions_done < sessions:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(POLL_INTERVAL_S)
        return True

    # ---------------------------------------------------------------- stop

    def _terminate_all(self) -> None:
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                slot.process.terminate()

    def stop(self, timeout: float = DRAIN_TIMEOUT_S + 10.0) -> None:
        """SIGTERM every shard, wait for drains, collect final snapshots."""
        if not self._started:
            return
        self._stopping = True
        if self._monitor is not None:
            self._monitor.join()
            self._monitor = None
        self._terminate_all()
        deadline = time.monotonic() + timeout
        for slot in self._slots:
            process = slot.process
            # Keep pumping while joining: the final snapshot can exceed
            # the pipe buffer, in which case the child blocks in send()
            # until we read — joining without reading would deadlock.
            while (
                process is not None
                and process.is_alive()
                and time.monotonic() < deadline
            ):
                self._pump(slot)
                process.join(POLL_INTERVAL_S)
            self._pump(slot)
            if process is not None and process.is_alive():
                process.kill()
                process.join()
            with self._lock:
                slot.done_base += slot.progress
                slot.progress = 0
            if slot.pipe is not None:
                slot.pipe.close()
                slot.pipe = None
            slot.process = None
        if self._reserved is not None:
            self._reserved.close()
            self._reserved = None
        self._started = False

    # --------------------------------------------------------------- merge

    def merged_snapshot(self) -> dict:
        """One canonical snapshot for the whole fleet.

        Counters sum, histograms merge raw samples (exact percentiles),
        memo/inference stats sum, and each shard's spans land in their own
        trace lane.  Shards that died without reporting (crash, kill)
        contribute only what their restarts re-earned — the supervisor
        cannot conjure a dead process's unsent samples.
        """
        registry = MetricsRegistry()
        memo_stats: Dict[str, int] = {"hits": 0, "misses": 0}
        inference_stats: Dict[str, int] = {}
        for slot in self._slots:
            payload = slot.snapshot
            if payload is None:
                continue
            registry.merge_state(payload["metrics"])
            for key, value in payload["memo"].items():
                memo_stats[key] = memo_stats.get(key, 0) + value
            for key, value in payload["inference"].items():
                inference_stats[key] = inference_stats.get(key, 0) + value
            if payload["spans"] and self.tracer.enabled:
                self.tracer.absorb(payload["spans"], tid=slot.index + 1)
        return build_snapshot(
            registry=registry,
            memo_stats=memo_stats,
            inference_stats=inference_stats or None,
            tracer=self.tracer if self.tracer.enabled else None,
            extra_counters={
                "service.shards": self.shards,
                "service.shard_restarts": self.restarts,
            },
            gauges={"service.sessions_active": 0.0},
        )

