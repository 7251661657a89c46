"""On-disk memo store for inferred formulas: solve each ESV dataset once.

Fleet sweeps re-run GP inference over datasets that have not changed —
a resumed run redoes every car the checkpoint missed, and repeated
evaluation runs (benchmarks, ablations with identical GP settings) redo
everything.  Per-ESV inference is a pure function of its dataset and its
:class:`~repro.core.gp.GpConfig`, so its result can be memoised on disk
and reused across runs and across processes.

Keying: SHA-256 over the canonical JSON of the ESV's raw observations
(protocol, formula-type byte, timestamps, wire bytes), the UI series'
numeric samples, the pairing gap, the requested inference backend
(``gp``/``linear``/``hybrid`` — different engines may legitimately
produce different formulas for the same dataset, so a warm recall must
never cross backends), and every field of the ``GpConfig`` (the per-ESV
derived seed included).  Anything that could change the inferred formula
changes the key; the ESV identifier itself is *not* part of the key
except through the derived seed, so byte-identical datasets share an
entry.

Entries are one JSON file per key, written with
:func:`repro.persistence.write_json_atomic` — concurrent writers (process
backend workers racing on the same ESV) atomically replace the file with
identical content, and a killed run never leaves a torn entry.  Corrupt
or version-mismatched entries are treated as misses and recomputed, never
trusted.

The stored formula is kind-tagged: GP results store the
:class:`~repro.core.response_analysis.ScaledTreeFormula` payload (the
folded program's tokens + Tab. 2 factors), linear results the
:class:`~repro.core.inference.LinearFormula` payload (dictionary terms +
coefficients).  Both round-trip exactly: a warm run's report is
byte-identical to the cold run's, an invariant the memo tests and the
perf bench assert.
"""

from __future__ import annotations

import threading
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Optional, Tuple, Union

from ..persistence import canonical_digest, read_json, write_json_atomic
from .fields import EsvColumns
from .gp import GpConfig
from .inference import LinearFormula
from .response_analysis import InferredFormula, ScaledTreeFormula
from .screenshot import UiSeries

#: Bumped 1 → 2 with the backend-tagged key and kind-tagged formula
#: payloads, 2 → 3 when GP formulas became the program's own pre-order
#: tokens.  The version sits inside the key material, so every older entry
#: simply stops being addressed (and reads as a miss if ever touched) — no
#: migration, no risk of decoding a foreign format.
MEMO_FORMAT_VERSION = 3
_PREFIX = "formula-"


def gp_config_fingerprint(config: GpConfig) -> dict:
    """Every field of the config as a JSON-able dict (order-independent)."""
    fingerprint = {}
    for field in dataclass_fields(config):
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            value = list(value)
        fingerprint[field.name] = value
    return fingerprint


def dataset_key(
    observations: EsvColumns,
    series: UiSeries,
    config: GpConfig,
    max_gap_s: float = 1.5,
    backend: str = "gp",
) -> str:
    """The memo key for one ESV inference task.

    ``backend`` is the *requested* inference backend, not the engine that
    ends up producing the formula — a hybrid run's GP-tail entries live
    under hybrid keys, so switching ``formula_backend`` between runs can
    never replay a recall from another backend's store.
    """
    return canonical_digest(
        {
            "memo_version": MEMO_FORMAT_VERSION,
            "backend": backend,
            "observations": [
                [observations.protocol, formula_type, timestamp, raw.hex()]
                for formula_type, timestamp, raw in zip(
                    observations.formula_types.tolist(),
                    observations.times.tolist(),
                    observations.raw_bytes(),
                )
            ],
            "samples": [
                [t, value]
                for t, value in zip(
                    series.numeric_times.tolist(), series.numeric_values.tolist()
                )
            ],
            "max_gap_s": max_gap_s,
            "gp_config": gp_config_fingerprint(config),
        }
    )


class FormulaMemo:
    """Directory of memoised per-ESV inference results."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalid = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{_PREFIX}{key}.json"

    # ------------------------------------------------------------------ lookup

    def get(self, key: str) -> Tuple[bool, Optional[InferredFormula]]:
        """``(hit, formula)`` — a stored "no formula" result hits with None."""
        path = self._path(key)
        if not path.exists():
            with self._lock:
                self.misses += 1
            return False, None
        try:
            entry = read_json(path)
            inferred = self._decode(entry)
        except (ValueError, KeyError, TypeError, OverflowError):
            # Torn, corrupt or foreign-format entries are recomputed, and
            # the fresh result overwrites the bad file.  (An integer past
            # the float range makes float() raise OverflowError.)
            with self._lock:
                self.invalid += 1
                self.misses += 1
            return False, None
        with self._lock:
            self.hits += 1
        return True, inferred

    @staticmethod
    def _decode(entry: object) -> Optional[InferredFormula]:
        if not isinstance(entry, dict):
            raise ValueError("memo entry is not an object")
        if entry.get("format_version") != MEMO_FORMAT_VERSION:
            raise ValueError(f"unsupported memo format {entry.get('format_version')!r}")
        if not entry["found"]:
            return None
        payload = entry["formula"]
        if not isinstance(payload, dict):
            raise ValueError("memo formula is not an object")
        kind = payload.get("kind", "tree")
        if kind == "tree":
            formula = ScaledTreeFormula.from_payload(payload)
        elif kind == "linear":
            formula = LinearFormula.from_payload(payload)
        else:
            raise ValueError(f"unknown formula kind {kind!r}")
        return InferredFormula(
            formula=formula,
            description=formula.describe(),
            fitness=float(entry["fitness"]),
            interpretation=entry["interpretation"],
            n_samples=int(entry["n_samples"]),
            generations=int(entry["generations"]),
            backend=str(entry.get("backend", "gp")),
            confidence=float(entry.get("confidence", 1.0)),
        )

    # ------------------------------------------------------------------- store

    def put(self, key: str, inferred: Optional[InferredFormula]) -> Path:
        """Record an inference outcome (``None`` = too few samples paired)."""
        entry: dict = {"format_version": MEMO_FORMAT_VERSION, "found": inferred is not None}
        if inferred is not None:
            if isinstance(inferred.formula, ScaledTreeFormula):
                payload = {"kind": "tree", **inferred.formula.to_payload()}
            elif isinstance(inferred.formula, LinearFormula):
                payload = {"kind": "linear", **inferred.formula.to_payload()}
            else:
                raise TypeError(
                    "only ScaledTreeFormula/LinearFormula results are "
                    f"memoisable, got {type(inferred.formula).__name__}"
                )
            entry.update(
                {
                    "interpretation": inferred.interpretation,
                    "fitness": inferred.fitness,
                    "n_samples": inferred.n_samples,
                    "generations": inferred.generations,
                    "backend": inferred.backend,
                    "confidence": inferred.confidence,
                    "formula": payload,
                }
            )
        path = write_json_atomic(self._path(key), entry)
        with self._lock:
            self.stores += 1
        return path

    # ------------------------------------------------------------------- misc

    def __len__(self) -> int:
        return sum(1 for __ in self.directory.glob(f"{_PREFIX}*.json"))

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "invalid": self.invalid,
            }
