"""Measurement plumbing shared by the runner and the worker.

Speed-normalised time.  On a shared virtual machine each vCPU's speed
switches between regimes (about 1.5x apart) every few hundred
milliseconds, independently per vCPU, so raw wall-clock of the same work
varied 6-25% from run to run on the 2-vCPU host the baseline comes from.  Every benchmark process is therefore
pinned to one CPU, and each timed operation is bracketed by a short fixed
pure-Python loop (the *probe*).  The reported time is

    raw_seconds * REFERENCE_S / mean(probe before, probe after)

i.e. seconds as they would read while the probe takes ``REFERENCE_S``.
Raw seconds are reported next to it.  The probe runs in the measuring
process between operations, never concurrently with the program.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Tuple

#: Iterations of the probe loop.
PROBE_LOOP = 100_000

#: Probe duration that normalised times are scaled to (the probe's typical
#: duration on a 2-vCPU x86-64 cloud VM, Python 3.11).
REFERENCE_S = 0.005

#: ``repro serve`` flags of the serve workload and of its set-up time.
#: ``--gp-backend serial`` keeps finalize in the server process: the
#: default ``auto`` resolves to the island pool, which spawns a worker and
#: ships datasets through POSIX shared memory outside the checkout.
SERVE_FLAGS = ("--port", "0", "--formula-backend", "linear", "--gp-backend", "serial")


def pin_to_one_cpu() -> None:
    """Pin this process, and every process it starts later, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return time.perf_counter() - start


def timed(fn: Callable, *args) -> Tuple[object, float, float]:
    """``(fn(*args), raw seconds, speed-normalised seconds)``."""
    before = probe_s()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    after = probe_s()
    return result, raw, raw * REFERENCE_S * 2 / (before + after)


def start_server(root: Path) -> "Tuple[subprocess.Popen, int]":
    """Spawn ``repro serve`` from the checkout at ``root``; return it with
    its port once it prints its ``listening on`` line."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *SERVE_FLAGS],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("listening on "):
        stop_server(proc)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return proc, int(line.rsplit(":", 1)[1].split()[0])


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM drains ``repro serve``; kill it if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()
