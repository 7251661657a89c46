"""The persistent worker pool behind the ``process`` GP backend.

The ``process`` backend of :class:`~repro.core.reverser.DPReverser`
submits one :class:`~repro.core.reverser._FormulaTask` per ESV to a
:class:`GpPool`.  The pool is not built per call: :func:`shared_pool`
caches one per (workers, memo_dir, trace) configuration at module level
and hands it to every :meth:`~repro.core.reverser.DPReverser.infer` call,
reverser and service session with that configuration.  Process spawn
and worker warm-up (imports, then
:func:`~repro.core.reverser._gp_worker_init`: the memo handle, the trace
flag) are therefore paid once per process lifetime, not once per capture.

One task per ESV, rather than one static slice of the ESVs per worker,
lets the pool balance itself: a worker that finishes a cheap ESV takes
the next queued one while another is still evolving a hard formula.  A
one-worker pool has nothing to balance and takes a pass's tasks in one
message.  Workers exchange nothing mid-evolution — each ESV's rng stream
must stay private for reports to be byte-identical across backends — so
the only channel between them is the shared on-disk formula memo.

Determinism: each task's evolution is driven by its own seeded
generator and the caller merges outcomes in slot order, so reports and
fleet digests are byte-identical to the serial backend whatever the
scheduling.

Lifecycle: a pool whose worker died is rebuilt on the next
:func:`shared_pool` call; every pool is shut down when its process exits
(through :mod:`multiprocessing`'s exit finalizers, which also run in pool
worker processes, where ``atexit`` does not); a forked child forgets the
parent's pools, whose management threads did not survive the fork.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util
from typing import Callable, Dict, List, Sequence, Tuple


def _noop(_item: object) -> None:
    """Warm-up task: forces a worker process to spawn and initialise."""


class GpPool:
    """Long-lived worker processes executing per-ESV formula tasks."""

    def __init__(self, workers: int, memo_dir: str = "", trace: bool = False) -> None:
        from ..reverser import _gp_worker_init

        self.workers = workers
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_gp_worker_init,
            initargs=(memo_dir, trace),
        )
        # Runs at process exit before multiprocessing joins the children
        # (a pool left running would block that join forever), or earlier
        # through shutdown(); either way exactly once.  The priority puts
        # it ahead of the task queue's own close finalizer (10), which
        # would otherwise stop the workers' shutdown sentinels.
        self._finalizer = util.Finalize(
            self,
            self._executor.shutdown,
            kwargs={"wait": True, "cancel_futures": True},
            exitpriority=100,
        )

    @property
    def broken(self) -> bool:
        """True after a worker died; the pool must be rebuilt."""
        return bool(getattr(self._executor, "_broken", False))

    def warm(self) -> "GpPool":
        """Spawn and initialise every worker now, off the timed path.

        ``workers`` no-op submits start the whole pool; waiting on them
        guarantees the initialisers have run.
        """
        self.run(_noop, [None] * self.workers)
        return self

    def run(self, fn: Callable, items: Sequence) -> List:
        """``[fn(item) for item in items]``, executed on the workers.

        One item per message lets several workers balance uneven items.
        A single worker gains nothing from that, so it receives every item
        in one message and skips a round trip per item.  The first failure
        propagates — the item's own exception, or ``BrokenProcessPool``
        when a worker died — and cancels the items not yet started, so a
        failed pass leaves no queued work behind in the shared pool.
        """
        chunksize = len(items) if self.workers == 1 else 1
        return list(self._executor.map(fn, items, chunksize=max(1, chunksize)))

    def shutdown(self) -> None:
        """Stop the workers; later calls (and the exit hook) do nothing."""
        self._finalizer()


#: Pools shared across reversers and service sessions, keyed by the
#: worker configuration that shaped their initialisers.
_SHARED_POOLS: Dict[Tuple[int, str, bool], GpPool] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(workers: int, memo_dir: str = "", trace: bool = False) -> GpPool:
    """The process-wide pool for a worker configuration, building it on
    first use and transparently replacing it after a worker crash.

    Thread-safe: the diagnostic service finalises sessions from several
    offload threads, any of which may be the one that builds the pool.
    """
    key = (max(1, int(workers)), str(memo_dir or ""), bool(trace))
    with _POOLS_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is not None and not pool.broken:
            return pool
        if pool is not None:
            pool.shutdown()
        pool = _SHARED_POOLS[key] = GpPool(*key)
        return pool


def shutdown_shared_pools() -> None:
    """Tear down every cached pool (tests; exit runs each pool's finalizer)."""
    with _POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown()


def _forget_parent_pools() -> None:
    """Fork hook: the parent's pools (and a lock it may have held) are
    unusable in the child, which builds its own on demand."""
    global _POOLS_LOCK
    _SHARED_POOLS.clear()
    _POOLS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_parent_pools)
