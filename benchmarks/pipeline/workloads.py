"""Workload definitions and seeded input generation for the pipeline benchmark.

A workload is a car list, a capture length, a formula-inference backend and
an input treatment (clean, noisy, or replayed into ``repro serve``).  The
benchmark seed reaches the program only through the inputs built here:

* the collector's OCR seed is ``11 + seed``, so seed 0 reproduces the
  Tab. 6 captures exactly;
* each noisy car's fault stream comes from
  ``JobSpec(car, noise_spec="default", noise_seed=seed).noise_profile()``;
* the serve workload's session order is shuffled per round from the seed.

The GP seed (2) and the pipeline's OCR seed (23) stay at the program
defaults.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.can import CanLog, apply_noise
from repro.can.noise import FaultCounts
from repro.cps import Capture, DataCollector
from repro.runtime.job import JobSpec
from repro.tools import make_tool_for_car
from repro.vehicle import CAR_SPECS, build_car, ground_truth_formulas

#: Every car, ordered so that the first three (VW TP 2.0, BMW, ISO-TP) cover
#: all CAN transports: a run cut to three cars still exercises each decoder.
ALL_CARS: Tuple[str, ...] = ("C", "E", "I") + tuple(
    key for key in sorted(CAR_SPECS) if key not in "CEI"
)

#: The hybrid workload's cars: every car whose hybrid run falls back to GP,
#: minus the five with the costliest GP tails (A, B, H, J, K; about 22 s
#: per pass together), so that three passes fit one run even while the
#: host runs slow.  13 GP-fallback ESVs, about 5 s per pass, most of it in
#: GP.  Transport-covering order as above.
HYBRID_CARS: Tuple[str, ...] = ("C", "F", "D", "G", "L", "N", "O", "Q", "R")


@dataclass(frozen=True)
class Workload:
    name: str
    cars: Tuple[str, ...]
    read_duration_s: float
    formula_backend: str
    noisy: bool = False
    serve: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet-hybrid", HYBRID_CARS, 30.0, "hybrid"),
        Workload("fleet-long-linear", ALL_CARS, 45.0, "linear"),
        Workload("fleet-noisy", ALL_CARS, 30.0, "linear", noisy=True),
        Workload("serve-replay", ALL_CARS, 30.0, "linear", serve=True),
    )
}

#: Rounds of the serve schedule folded into the inputs digest.
DIGEST_ROUNDS = 4


@dataclass
class CarInput:
    key: str
    capture: Capture
    #: Ground-truth formulas keyed by report identifier.
    truth: Dict[str, object]
    #: Fault-injection accounting (``None`` on clean workloads).
    noise: Optional[FaultCounts] = None


def collect_car(workload: Workload, key: str, seed: int) -> CarInput:
    car = build_car(key)
    tool = make_tool_for_car(key, car)
    capture = DataCollector(
        tool, read_duration_s=workload.read_duration_s, ocr_seed=11 + seed
    ).collect()
    counts = None
    if workload.noisy:
        counts = FaultCounts()
        profile = JobSpec(key, noise_spec="default", noise_seed=seed).noise_profile()
        capture = replace(
            capture, can_log=CanLog(apply_noise(capture.can_log, profile, counts))
        )
    return CarInput(key, capture, ground_truth_formulas(car), counts)


def collect_inputs(workload: Workload, seed: int, n_cars: int = 0) -> List[CarInput]:
    cars = workload.cars[:n_cars] if n_cars else workload.cars
    return [collect_car(workload, key, seed) for key in cars]


def session_order(cars: List[str], seed: int, round_index: int) -> List[str]:
    """The serve workload's session order for one round of the fleet."""
    order = list(cars)
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order


def inputs_digest(workload: Workload, inputs: List[CarInput], seed: int) -> str:
    """sha256 over every frame, video text, click, segment and noise fault
    the program will see, plus the serve schedule's first rounds."""
    h = hashlib.sha256()
    for item in inputs:
        capture = item.capture
        h.update(f"car {item.key} {capture.model} {capture.tool_name}\n".encode())
        for f in capture.can_log:
            h.update(
                f"{f.can_id:x} {f.timestamp!r} {f.data.hex()} {int(f.extended)} "
                f"{f.channel}\n".encode()
            )
        for frame in capture.video:
            h.update(f"v {frame.timestamp!r} {frame.screen_name}\n".encode())
            h.update("\x1f".join(frame.texts()).encode())
        for record in list(capture.clicks) + list(capture.segments):
            h.update(repr(record).encode())
        if item.noise is not None:
            h.update(repr(sorted(item.noise.to_dict().items())).encode())
    if workload.serve:
        cars = [item.key for item in inputs]
        for index in range(DIGEST_ROUNDS):
            h.update(",".join(session_order(cars, seed, index)).encode())
    return h.hexdigest()
