"""Fitness caching for the GP engine.

Tournament selection re-picks the fittest individuals as parents over and
over, elitism re-inserts the champion every generation, and point/constant
mutation frequently reproduces the parent verbatim — so across a run many
structurally identical trees are evaluated repeatedly.  Fitness depends
only on the tree's structure and the (fixed) dataset, so one evaluation
per distinct program suffices.

A :class:`FitnessCache` is bound to exactly one dataset: the engine
creates a fresh one per :meth:`~repro.core.gp.engine.GeneticProgrammer.fit`
call, and :mod:`repro.core.response_analysis` shares one across the
restart attempts of a single ESV (same scaled dataset, different seeds),
where the seeded initial shapes hit immediately.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

_MISSING = object()


class FitnessCache:
    """Memoises fitness per program (see :mod:`repro.core.gp.program`)."""

    def __init__(self, max_entries: int = 100_000) -> None:
        self._table: Dict[Tuple, float] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Materialised constant arrays, shared by program execution
        #: across every engine bound to this cache (same dataset length).
        self.const_arrays: dict = {}

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: Tuple) -> Optional[float]:
        value = self._table.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: Tuple, value: float) -> None:
        if len(self._table) >= self.max_entries:
            # Epoch eviction: dropping the whole table keeps put() O(1)
            # without an LRU list; at the default cap this triggers only
            # on pathological runs, costing re-evaluation, never wrong
            # results.
            self._table.clear()
            self.evictions += 1
        self._table[key] = value

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
        }
