"""The worker pool: processes that attach one database and run whole
queries over it.

A :class:`WorkerPool` is bound to one database. Starting it ships that
database to the workers without copying it per dispatch
(:mod:`repro.parallel.shm`): a built database is flattened once into a
shared segment the workers attach; a store-backed one creates no segment
at all — the workers map the index file it was loaded from. After that a
dispatch is a :class:`~repro.parallel.worker.QueryBatchTask` (a few
parsed queries) going out and packed int64 solution matrices coming
back, streamed in fixed-size chunks through a queue when large. Nothing
per-dispatch scales with the index size.

Pools are cached per (database, pool size): the cache holds a strong
reference to the database (so the id-based key can never alias a
collected object) and each pool owns its shared segment, unlinking it on
``close`` — including the error path where a worker raised mid-batch
(the pool survives a task exception; the segment is only torn down with
the pool itself).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_mod
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.parallel.shm import StructureShm
from repro.parallel.worker import (
    QueryBatchTask,
    QueryOutcome,
    _init_worker,
    run_query_batch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.database import GraphDatabase

#: Default pool size of the scheduler.
DEFAULT_WORKERS = 2

#: Environment variable pinning the pool start method (``fork`` or
#: ``spawn``). Unset or unrecognized values fall back to the platform
#: default (fork where available). The CI ``store`` job forces
#: ``spawn`` to prove the transport works without copy-on-write
#: inheritance.
ENV_START_METHOD = "REPRO_PARALLEL_START_METHOD"

#: Seconds to wait for an announced-but-missing streamed chunk before
#: declaring the pool wedged. Generous: chunks are announced only after
#: they were put on the queue, so this only fires on a dead worker.
CHUNK_TIMEOUT = 120.0


def forced_start_method() -> str | None:
    """Start method forced via the environment, or ``None``."""
    raw = os.environ.get(ENV_START_METHOD, "").strip().lower()
    return raw if raw in ("fork", "spawn") else None


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------
class WorkerPool:
    """A lazily started multiprocessing pool bound to one database.

    Starting the pool flattens the database into a shared-memory
    segment (:class:`StructureShm`) unless it is store-backed; workers
    attach the carrier in their initializer, so the per-dispatch payload
    is a descriptor, never an index. The pool also owns the queue large
    results stream back on — both are torn down together in
    :meth:`close`.
    """

    def __init__(self, db: "GraphDatabase", workers: int) -> None:
        self._db = db  # strong ref: pins id(db) while the pool is cached
        self.workers = max(2, int(workers))
        self.start_method = "unstarted"
        self._pool: Any = None
        self._shm: StructureShm | None = None
        self._chunks: Any = None
        self._chunk_buf: dict[int, dict[int, np.ndarray]] = {}
        self._uid = 0
        self._dropped_uid = 0

    def next_uid(self) -> int:
        """Pool-unique task id (correlates streamed chunks to tasks)."""
        self._uid += 1
        return self._uid

    def _start(self) -> Any:
        if self._pool is None:
            method = forced_start_method()
            if method is None:
                try:
                    multiprocessing.get_context("fork")
                    method = "fork"
                except ValueError:  # pragma: no cover - non-fork platforms
                    method = "spawn"
            ctx = multiprocessing.get_context(method)
            self.start_method = method
            store = getattr(self._db, "_store", None)
            if store is not None:
                # Store-backed database: workers attach the persistent
                # file's mapping directly — no flatten, no shared
                # segment, pool warm-up is near-free.
                manifest = store.manifest
            else:
                self._shm = StructureShm.create(self._db)
                manifest = self._shm.manifest
            self._chunks = ctx.Queue()
            self._pool = ctx.Pool(
                self.workers,
                initializer=_init_worker,
                initargs=(manifest, self._chunks),
            )
        return self._pool

    def warmup(self) -> None:
        """Start the pool and wait until every worker has attached."""
        pool = self._start()
        # A no-op barrier: one trivial task per worker forces all the
        # initializers (segment attach included) to finish.
        pool.map(_noop, range(self.workers), chunksize=1)

    def submit_batch(self, batch: QueryBatchTask) -> Any:
        """Submit one whole-query batch; returns an ``AsyncResult``
        whose ``get()`` yields ``list[QueryOutcome]``."""
        pool = self._start()
        return pool.apply_async(run_query_batch, (batch,))

    def run_fault_probe(self) -> None:
        """Raise a RuntimeError from inside a real pool worker.

        Exercises the task-exception path end to end — the exception
        crosses the process boundary and re-raises here, while the pool
        itself survives (see the class docstring) and keeps serving.
        The query server's fault battery uses this to prove a crashed
        worker yields one failed request, not a poisoned pool. A
        genuine ``SIGKILL`` of a pool worker would wedge ``get()``
        instead, which is why injection happens as a raising task.
        """
        pool = self._start()
        pool.apply(_injected_worker_fault)

    def reconcile(self, outcomes: Sequence[QueryOutcome]) -> None:
        """Fill in ``packed`` for outcomes whose solutions streamed back
        through the chunk queue rather than the result pipe."""
        needed = {
            outcome.uid: outcome
            for outcome in outcomes
            if outcome.packed is None and outcome.n_chunks > 0
        }
        while needed:
            done = [
                uid
                for uid, outcome in needed.items()
                if len(self._chunk_buf.get(uid, {})) == outcome.n_chunks
            ]
            for uid in done:
                outcome = needed.pop(uid)
                parts = self._chunk_buf.pop(uid)
                outcome.packed = np.concatenate(
                    [parts[seq] for seq in range(outcome.n_chunks)]
                )
            if not needed:
                break
            try:
                uid, seq, chunk = self._chunks.get(timeout=CHUNK_TIMEOUT)
            except queue_mod.Empty:  # pragma: no cover - dead worker
                raise RuntimeError(
                    "worker pool stopped streaming announced chunks"
                ) from None
            if uid > self._dropped_uid:
                self._chunk_buf.setdefault(uid, {})[seq] = chunk

    def drop_pending_chunks(self) -> None:
        """Forget every chunk of the tasks issued so far — for a caller
        that gave up on a dispatch after its tasks all finished. What
        has arrived is drained; a chunk still in a worker's queue feeder
        (it can trail the task's own outcome) is discarded by uid when
        a later :meth:`reconcile` meets it."""
        self._chunk_buf.clear()
        self._dropped_uid = self._uid
        if self._chunks is None:
            return
        while True:
            try:
                self._chunks.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break

    def close(self) -> None:
        """Tear down the pool and unlink every owned shared segment."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._chunks is not None:
            self._chunks.close()
            self._chunks = None
        self._chunk_buf.clear()
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        self.start_method = "unstarted"


def _noop(_: int) -> None:
    """Warmup barrier task (must be a module-level picklable)."""
    return None


def _injected_worker_fault() -> None:
    """Deliberately failing task of :meth:`WorkerPool.run_fault_probe`."""
    raise RuntimeError("injected worker fault (repro.serve debug probe)")


_POOLS: "OrderedDict[tuple[int, int], WorkerPool]" = OrderedDict()

#: Cached pools (each holds ``workers`` processes). Small LRU so runs
#: that churn through many databases (test suites) do not
#: accumulate processes or shared segments.
_MAX_POOLS = 4


def pool_for(db: "GraphDatabase", workers: int) -> WorkerPool:
    """Get-or-create the cached pool for ``(db, workers)``."""
    key = (id(db), workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool = WorkerPool(db, workers)
        _POOLS[key] = pool
        while len(_POOLS) > _MAX_POOLS:
            _key, evicted = _POOLS.popitem(last=False)
            evicted.close()
    else:
        _POOLS.move_to_end(key)
    return pool


def close_pools_for(db: "GraphDatabase") -> None:
    """Close (and unlink the segments of) every pool bound to ``db``."""
    for key in [k for k in _POOLS if k[0] == id(db)]:
        _POOLS.pop(key).close()


def shutdown_pools() -> None:
    """Close every cached pool (atexit hook; also handy in tests)."""
    while _POOLS:
        _key, pool = _POOLS.popitem(last=False)
        pool.close()


atexit.register(shutdown_pools)
