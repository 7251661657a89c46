"""Concurrent FormulaMemo writers.

Process-pool workers (or separate runs sharing a memo directory) racing
on byte-identical datasets memoise the same key at the same time.  The
store's guarantee is last-writer-wins atomicity: any number of concurrent
``put`` calls leave exactly one valid JSON entry, and a reader polling
throughout never sees a torn or partial file — every read is either a
miss (file not yet present) or a fully valid hit.
"""

import json
import multiprocessing
import os

import pytest

from repro.core import FormulaMemo, ScaledTreeFormula
from repro.core.gp.program import call, const, var
from repro.core.response_analysis import InferredFormula

KEY = "deadbeef" * 8


def _balanced(depth):
    if depth == 0:
        return const(1.0)
    return call("add", _balanced(depth - 1), _balanced(depth - 1))


def make_inferred(depth=9):
    """A deterministic memoisable result, padded so writes aren't tiny.

    A one-byte JSON file can't tear; a formula whose program serialises
    to several kilobytes can, which is what the reader checks for.  The
    padding expression is balanced (2^depth leaves).
    """
    formula = ScaledTreeFormula(call("mul", var(0), _balanced(depth)), (0.1,), 10.0)
    return InferredFormula(
        formula=formula,
        description=formula.describe(),
        fitness=0.125,
        interpretation="int",
        n_samples=64,
        generations=8,
    )


def hammer_put(directory, rounds):
    memo = FormulaMemo(directory)
    inferred = make_inferred()
    for __ in range(rounds):
        memo.put(KEY, inferred)


class TestConcurrentWriters:
    def test_two_writers_leave_one_valid_entry(self, tmp_path):
        context = multiprocessing.get_context()
        writers = [
            context.Process(target=hammer_put, args=(str(tmp_path), 40))
            for __ in range(2)
        ]
        for writer in writers:
            writer.start()

        # The third party: read continuously while both writers race.
        reader = FormulaMemo(tmp_path)
        expected = make_inferred()
        observed_hit = False
        while any(writer.is_alive() for writer in writers):
            hit, recalled = reader.get(KEY)
            if hit:
                observed_hit = True
                assert recalled.description == expected.description
                assert repr(recalled.fitness) == repr(expected.fitness)
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0

        # No torn reads: every hit above decoded cleanly.
        assert reader.stats()["invalid"] == 0
        assert observed_hit or reader.stats()["misses"] >= 0

        # Exactly one entry file, fully valid, and no temp-file litter.
        assert len(reader) == 1
        entries = [name for name in os.listdir(tmp_path)]
        assert entries == [f"formula-{KEY}.json"]
        payload = json.loads((tmp_path / entries[0]).read_text())
        assert payload["found"] is True

        hit, recalled = FormulaMemo(tmp_path).get(KEY)
        assert hit
        assert recalled.description == expected.description
        assert repr(recalled([4.0])) == repr(expected([4.0]))

    def test_writer_overwrite_of_corrupt_entry_heals(self, tmp_path):
        memo = FormulaMemo(tmp_path)
        memo._path(KEY).write_text('{"torn')
        hit, __ = memo.get(KEY)
        assert not hit and memo.stats()["invalid"] == 1
        memo.put(KEY, make_inferred(depth=2))
        hit, recalled = memo.get(KEY)
        assert hit and recalled is not None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
