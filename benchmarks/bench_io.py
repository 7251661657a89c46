"""Machine-readable benchmark artifacts.

Every bench module writes, next to its human-readable ``results/<name>.txt``
table, a structured ``results/BENCH_<name>.json`` artifact that CI uploads
and :mod:`scripts.bench_compare` diffs against the committed baselines in
``benchmarks/results/baseline/``.

Artifact schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "name": "gp_perf",                # bench name (module minus test_)
      "config": {...},                  # knobs that shaped the run
      "config_fingerprint": "9f3a...",  # sha256 of the canonical config
      "commit": "abc123",               # git commit of the producing tree
      "metrics": {"precision": 0.94, "wall_s": 12.3},
      "units": {"precision": "ratio", "wall_s": "s"}
    }

``metrics`` values are numbers (or NaN); ``units`` gives each metric's unit
string, which is also how the comparer classifies it — timing units
(``"s"``, ``"ms"``, ``"us"``, absolute rates in ``"1/s"`` and speedup
ratios in ``"x"``) regress with tolerance and warn by default, everything
else ("count", "ratio", ...) is an identity metric compared exactly and
failed hard on mismatch.

Every artifact's ``config`` carries the producing host's ``cpu_count``,
so artifacts from hosts with different core counts get different
fingerprints and the comparer flags them as not comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Union

BENCH_SCHEMA_VERSION = 1

#: Units the comparer treats as timing (tolerant, warn-only by default):
#: durations, absolute rates (``"1/s"``) and speedup ratios (``"x"``).
TIMING_UNITS = frozenset({"s", "ms", "us", "1/s", "x"})


def config_fingerprint(config: Mapping[str, object]) -> str:
    """Stable digest of the bench configuration knobs."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def current_commit() -> str:
    """The producing commit: ``$GITHUB_SHA`` in CI, ``git rev-parse`` locally,
    empty string when neither is available (artifact stays writable)."""
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            ).stdout.strip()
        )
    except OSError:
        return ""


def build_artifact(
    name: str,
    metrics: Mapping[str, float],
    units: Mapping[str, str],
    config: Optional[Mapping[str, object]] = None,
) -> dict:
    """Assemble one artifact dict (validated, not yet written)."""
    missing = sorted(set(metrics) - set(units))
    if missing:
        raise ValueError(f"metrics without units in bench {name!r}: {missing}")
    config = dict(config or {}, cpu_count=os.cpu_count())
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "commit": current_commit(),
        "metrics": {key: metrics[key] for key in sorted(metrics)},
        "units": {key: units[key] for key in sorted(units)},
    }


def write_bench(
    directory: Union[str, Path],
    name: str,
    metrics: Mapping[str, float],
    units: Mapping[str, str],
    config: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` into ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    artifact = build_artifact(name, metrics, units, config)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def read_bench(path: Union[str, Path]) -> dict:
    """Load and schema-check one artifact."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema {version!r}, expected {BENCH_SCHEMA_VERSION}"
        )
    for key in ("name", "metrics", "units"):
        if key not in payload:
            raise ValueError(f"{path}: artifact missing {key!r}")
    return payload


def load_artifact_dir(directory: Union[str, Path]) -> Dict[str, dict]:
    """Every ``BENCH_*.json`` under ``directory``, keyed by bench name."""
    artifacts: Dict[str, dict] = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        artifact = read_bench(path)
        artifacts[artifact["name"]] = artifact
    return artifacts


def writes_table(mode: Optional[str], table_mode: Optional[str]) -> bool:
    """Whether a bench run in ``mode`` rewrites its committed table.

    A bench with a reduced (quick or smoke) mode declares ``MODE``, the
    mode of the current run, and ``TABLE_MODE``, the mode its committed
    ``results/<name>.txt`` comes from; a run in the other mode leaves the
    table as committed, so a two-car quick run cannot replace an 18-car
    table.  A bench without modes declares neither and always writes.
    """
    if (mode is None) != (table_mode is None):
        raise ValueError("a bench declares both MODE and TABLE_MODE or neither")
    return mode == table_mode


def selects_whole_module(
    module: Union[str, Path],
    args: Iterable[str],
    invocation_dir: Union[str, Path],
    deselected: Iterable[Union[str, Path]],
) -> bool:
    """Whether a pytest run selected every test of the bench ``module``.

    A bench writes its ``results/<name>.txt`` table from the rows its
    selected tests record, so a run of part of the module (``-k total``,
    a ``path::test`` node id, ``--deselect``, ``--lf``) must leave the
    committed table alone.  ``args`` are pytest's command-line arguments,
    resolved against ``invocation_dir``; ``deselected`` holds the files
    of the tests pytest deselected.  False when an argument names tests
    of ``module`` by node id, or when a test of ``module`` was deselected.
    """
    module = Path(module).resolve()
    if any(Path(path).resolve() == module for path in deselected):
        return False
    for arg in args:
        path, node, __ = arg.partition("::")
        if node and (Path(invocation_dir) / path).resolve() == module:
            return False
    return True
