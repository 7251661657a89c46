"""Deterministic bus fault injection: the sniffer's imperfect view.

Real OBD-port captures are lossy: the sniffer drops frames under load,
cheap interfaces duplicate receive interrupts, frames queued in the same
arbitration window come out of the driver reordered, electrical noise
flips payload bits, captures stop mid-message, and the diagnostic session
shares the wire with unrelated broadcast traffic.  The reverse-engineering
pipeline must degrade gracefully under all of it.

This module models that degradation as a seeded, reproducible transform:

* :class:`NoiseProfile` — the fault taxonomy, one probability per fault
  class plus a seed.  The same profile applied to the same frames always
  produces the byte-identical noisy capture.
* :class:`FaultInjector` — the stateful stream transform.  It can run
  offline over a recorded capture (:func:`apply_noise`) or inline on a
  :class:`~repro.can.bus.SimulatedCanBus` tap, where it corrupts only the
  *sniffer's* view: nodes keep receiving faithful frames, exactly like a
  lossy passive tap on a healthy bus.

Faults are applied per frame in a fixed order (drop → truncate → bit
error → duplicate → reorder → foreign interleave) from a single
``random.Random(seed)`` stream, so any two runs with the same profile and
input agree byte for byte — the property the determinism tests assert.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .frame import CanFrame

#: CAN ids used for interleaved foreign traffic: normal broadcast ids
#: (powertrain/chassis style) that never collide with diagnostic request or
#: response ids in the simulated fleet.
FOREIGN_IDS: Tuple[int, ...] = (0x0A8, 0x1D0, 0x3B4, 0x510)


@dataclass(frozen=True)
class NoiseProfile:
    """Seeded fault-injection rates for one capture.

    All probabilities are per captured frame.  The null profile (all rates
    zero, ``capture_fraction`` 1.0) is the default everywhere: fault
    injection is strictly opt-in and a null profile leaves a capture
    byte-identical to the clean one.
    """

    seed: int = 0
    #: Probability the sniffer misses a frame entirely.
    p_drop: float = 0.0
    #: Probability a frame appears twice in the capture.
    p_duplicate: float = 0.0
    #: Probability a frame swaps position with a neighbour inside the
    #: reorder window (driver queue reordering within an arbitration slot).
    p_reorder: float = 0.0
    #: Neighbourhood (in frames) inside which reordering may occur.
    reorder_window: int = 3
    #: Probability one random payload bit flips.
    p_bit_error: float = 0.0
    #: Probability the data field is cut short (truncated DMA transfer).
    p_truncate: float = 0.0
    #: Probability an unrelated broadcast frame is interleaved before the
    #: current frame.
    p_foreign: float = 0.0
    foreign_ids: Tuple[int, ...] = FOREIGN_IDS
    #: Keep only this leading fraction of the capture (1.0 = everything);
    #: models a capture that stops mid-session.
    capture_fraction: float = 1.0

    #: Rates of :meth:`default`, kept as a class attribute so callers and
    #: docs agree on what "the default noise profile" means.
    DEFAULT_RATES = {"p_drop": 0.02, "p_duplicate": 0.01, "p_bit_error": 0.005}

    def __post_init__(self) -> None:
        for name in (
            "p_drop",
            "p_duplicate",
            "p_reorder",
            "p_bit_error",
            "p_truncate",
            "p_foreign",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if not 0.0 < self.capture_fraction <= 1.0:
            raise ValueError(
                f"capture_fraction={self.capture_fraction} outside (0, 1]"
            )
        if self.reorder_window < 1:
            raise ValueError(f"reorder_window must be >= 1, got {self.reorder_window}")

    # ------------------------------------------------------------- factories

    @classmethod
    def default(cls, seed: int = 0) -> "NoiseProfile":
        """The paper-motivated default: 2% drop, 1% dup, 0.5% bit errors."""
        return cls(seed=seed, **cls.DEFAULT_RATES)

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> Optional["NoiseProfile"]:
        """Parse a CLI spec: ``off``, ``default``, or ``k=v[,k=v...]``.

        Recognised keys: ``drop``, ``dup``, ``reorder``, ``window``,
        ``bit``, ``truncate``, ``foreign``, ``fraction``, ``seed``.
        Example: ``drop=0.02,dup=0.01,bit=0.005,seed=7``.
        """
        spec = spec.strip().lower()
        if spec in ("", "off", "none", "0"):
            return None
        if spec == "default":
            return cls.default(seed=seed)
        aliases = {
            "drop": "p_drop",
            "dup": "p_duplicate",
            "duplicate": "p_duplicate",
            "reorder": "p_reorder",
            "window": "reorder_window",
            "bit": "p_bit_error",
            "truncate": "p_truncate",
            "foreign": "p_foreign",
            "fraction": "capture_fraction",
        }
        kwargs: Dict[str, object] = {"seed": seed}
        for item in spec.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"noise spec item {item!r} is not key=value")
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "window":
                kwargs["reorder_window"] = int(value)
            elif key in aliases:
                kwargs[aliases[key]] = float(value)
            else:
                raise ValueError(
                    f"unknown noise spec key {key!r}; expected one of "
                    f"{sorted(aliases) + ['seed']}"
                )
        return cls(**kwargs)  # type: ignore[arg-type]

    # -------------------------------------------------------------- queries

    @property
    def is_null(self) -> bool:
        """True when this profile cannot alter a capture."""
        return (
            self.p_drop == 0.0
            and self.p_duplicate == 0.0
            and self.p_reorder == 0.0
            and self.p_bit_error == 0.0
            and self.p_truncate == 0.0
            and self.p_foreign == 0.0
            and self.capture_fraction == 1.0
        )

    def scaled(self, factor: float) -> "NoiseProfile":
        """Scale every fault rate by ``factor`` (rates capped at 1.0).

        Used by the degradation benchmark to sweep a recovery-vs-noise
        curve off a single base profile.
        """
        if factor < 0:
            raise ValueError(f"noise scale factor must be >= 0, got {factor}")

        def cap(p: float) -> float:
            return min(1.0, p * factor)

        return replace(
            self,
            p_drop=cap(self.p_drop),
            p_duplicate=cap(self.p_duplicate),
            p_reorder=cap(self.p_reorder),
            p_bit_error=cap(self.p_bit_error),
            p_truncate=cap(self.p_truncate),
            p_foreign=cap(self.p_foreign),
        )

    def with_seed(self, seed: int) -> "NoiseProfile":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "p_drop": self.p_drop,
            "p_duplicate": self.p_duplicate,
            "p_reorder": self.p_reorder,
            "reorder_window": self.reorder_window,
            "p_bit_error": self.p_bit_error,
            "p_truncate": self.p_truncate,
            "p_foreign": self.p_foreign,
            "foreign_ids": list(self.foreign_ids),
            "capture_fraction": self.capture_fraction,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NoiseProfile":
        payload = dict(payload)
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - valid)
        if unknown:
            # A typo'd key silently ignored here would make an attack or
            # noise profile weaker than its author believes; fail loudly.
            raise ValueError(
                f"unknown noise profile key {unknown[0]!r}; "
                f"valid keys: {sorted(valid)}"
            )
        payload["foreign_ids"] = tuple(payload.get("foreign_ids", FOREIGN_IDS))
        return cls(**payload)


@dataclass
class FaultCounts:
    """What the injector actually did to one capture (accounting)."""

    frames_in: int = 0
    frames_out: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    bit_errors: int = 0
    truncated: int = 0
    foreign: int = 0

    def to_dict(self) -> dict:
        return {
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "bit_errors": self.bit_errors,
            "truncated": self.truncated,
            "foreign": self.foreign,
        }


class FaultInjector:
    """Stateful, seeded frame-stream corrupter.

    Feed clean frames in capture order; collect the noisy stream from the
    return values plus a final :meth:`flush` (the reorder stage buffers up
    to ``reorder_window`` frames).  Emitted frames always carry
    non-decreasing timestamps — reordering swaps frame *contents* across
    the window's timestamp slots, the way a timestamping capture card
    presents driver-queue reordering — so noisy streams still satisfy
    :class:`~repro.can.log.CanLog`'s monotonicity invariant.
    """

    def __init__(self, profile: NoiseProfile) -> None:
        self.profile = profile
        self.rng = random.Random(profile.seed)
        self.counts = FaultCounts()
        #: Reorder window: ``(timestamp_slot, frame)`` pairs.  Swaps exchange
        #: frames between slots while the slot timestamps keep arrival
        #: order, so emission is always monotonic in time.
        self._window: List[Tuple[float, CanFrame]] = []

    # ------------------------------------------------------------ per frame

    def feed(self, frame: CanFrame) -> List[CanFrame]:
        """Apply per-frame faults; return zero or more frames to emit now."""
        profile = self.profile
        rng = self.rng
        self.counts.frames_in += 1

        staged: List[CanFrame] = []
        if profile.p_foreign and rng.random() < profile.p_foreign:
            staged.append(self._foreign_frame(frame.timestamp, frame.channel))
            self.counts.foreign += 1

        if profile.p_drop and rng.random() < profile.p_drop:
            self.counts.dropped += 1
            return self._stage(staged)

        if profile.p_truncate and rng.random() < profile.p_truncate and frame.data:
            keep = rng.randrange(0, len(frame.data))
            frame = replace_data(frame, frame.data[:keep])
            self.counts.truncated += 1

        if profile.p_bit_error and rng.random() < profile.p_bit_error and frame.data:
            index = rng.randrange(len(frame.data))
            bit = 1 << rng.randrange(8)
            mutated = bytearray(frame.data)
            mutated[index] ^= bit
            frame = replace_data(frame, bytes(mutated))
            self.counts.bit_errors += 1

        staged.append(frame)
        if profile.p_duplicate and rng.random() < profile.p_duplicate:
            staged.append(frame)
            self.counts.duplicated += 1
        return self._stage(staged)

    def flush(self) -> List[CanFrame]:
        """Drain the reorder window at end of capture."""
        emitted = [self._emit_slot(slot) for slot in self._window]
        self._window = []
        return emitted

    # -------------------------------------------------------------- helpers

    def _stage(self, frames: List[CanFrame]) -> List[CanFrame]:
        """Push frames through the bounded reorder window."""
        profile = self.profile
        if not profile.p_reorder:
            self.counts.frames_out += len(frames)
            return frames
        self._window.extend((frame.timestamp, frame) for frame in frames)
        emitted: List[CanFrame] = []
        while len(self._window) > profile.reorder_window:
            if len(self._window) >= 2 and self.rng.random() < profile.p_reorder:
                swap = self.rng.randrange(
                    1, min(len(self._window), profile.reorder_window + 1)
                )
                stamp_a, frame_a = self._window[0]
                stamp_b, frame_b = self._window[swap]
                self._window[0] = (stamp_a, frame_b)
                self._window[swap] = (stamp_b, frame_a)
                self.counts.reordered += 1
            emitted.append(self._emit_slot(self._window.pop(0)))
        self.counts.frames_out += len(emitted)
        return emitted

    @staticmethod
    def _emit_slot(slot: Tuple[float, CanFrame]) -> CanFrame:
        stamp, frame = slot
        return frame if frame.timestamp == stamp else frame.with_timestamp(stamp)

    def _foreign_frame(self, timestamp: float, channel: str) -> CanFrame:
        can_id = self.rng.choice(self.profile.foreign_ids)
        data = bytes(self.rng.randrange(256) for __ in range(8))
        return CanFrame(can_id, data, timestamp=timestamp, channel=channel)


def replace_data(frame: CanFrame, data: bytes) -> CanFrame:
    """Copy ``frame`` with a different data field (frames are frozen)."""
    return CanFrame(
        can_id=frame.can_id,
        data=data,
        timestamp=frame.timestamp,
        extended=frame.extended,
        channel=frame.channel,
    )


def apply_noise(
    frames: Iterable[CanFrame],
    profile: Optional[NoiseProfile],
    counts: Optional[FaultCounts] = None,
) -> List[CanFrame]:
    """Apply ``profile`` to a recorded capture, offline.

    ``None`` or a null profile is the identity (the clean frames come back
    in a new list, untouched), so zero-noise pipelines stay byte-identical.
    Pass a :class:`FaultCounts` to receive the injection accounting.
    """
    frames = list(frames)
    if profile is None or profile.is_null:
        return frames
    if profile.capture_fraction < 1.0:
        frames = frames[: max(1, int(len(frames) * profile.capture_fraction))]
    injector = FaultInjector(profile)
    noisy: List[CanFrame] = []
    for frame in frames:
        noisy.extend(injector.feed(frame))
    noisy.extend(injector.flush())
    if counts is not None:
        injector.counts.frames_out = len(noisy)
        counts.__dict__.update(injector.counts.__dict__)
    return noisy
