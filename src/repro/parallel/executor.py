"""The worker pool: processes that load one database and run whole
queries over it.

A :class:`WorkerPool` is bound to one database. Starting it hands the
workers an index file to :func:`repro.store.load`: a store-backed
database passes the file it was loaded from; a built one is first saved
once to a private scratch file (``repro-pool-*.idx`` in the temp dir)
that the pool owns. After that a dispatch is a
:class:`~repro.parallel.worker.QueryBatchTask` (a few parsed queries)
going out and flat ``array('q')`` solution rows coming back, streamed
in fixed-size chunks through a queue when large. Nothing per-dispatch
scales with the index size.

Pools are cached per (database, pool size): the cache holds a strong
reference to the database (so the id-based key can never alias a
collected object) and each pool unlinks its scratch file on ``close`` —
including after a worker raised mid-batch (the pool survives a task
exception; the file goes only with the pool itself) and at exit, through
:func:`shutdown_pools`.

A worker that *dies* (SIGKILL, the OOM killer) is another matter:
``multiprocessing.Pool`` quietly replaces it, and the task it held is
never answered. Every wait on the pool therefore re-checks its workers
every :data:`LIVENESS_POLL` seconds; a death closes the pool and raises
:class:`~repro.utils.errors.WorkerLost`, and the next dispatch starts a
fresh one.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import multiprocessing.pool
import os
import queue as queue_mod
import tempfile
from array import array
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Sequence

from repro.parallel.worker import (
    QueryBatchTask,
    QueryOutcome,
    _init_worker,
    ready,
    run_query_batch,
)
from repro.store.io import write_index
from repro.utils.errors import WorkerLost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.database import GraphDatabase

#: Default pool size of the scheduler.
DEFAULT_WORKERS = 2

#: Environment variable pinning the pool start method (``fork`` or
#: ``spawn``). Unset or unrecognized values fall back to the platform
#: default (fork where available). On Linux it is how a test reaches
#: ``spawn``, which proves the transport works without copy-on-write
#: inheritance.
ENV_START_METHOD = "REPRO_PARALLEL_START_METHOD"

#: Seconds between checks of the workers' liveness while the parent
#: waits on the pool: the bound on how long a dead worker goes unseen.
LIVENESS_POLL = 0.2


def forced_start_method() -> str | None:
    """Start method forced via the environment, or ``None``."""
    raw = os.environ.get(ENV_START_METHOD, "").strip().lower()
    return raw if raw in ("fork", "spawn") else None


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------
class WorkerPool:
    """A lazily started multiprocessing pool bound to one database.

    Starting the pool saves the database to a scratch index file unless
    it is store-backed; workers load the file in their initializer, so
    the per-dispatch payload is a descriptor, never an index. The pool
    also owns the queue large results stream back on — both are torn
    down together in :meth:`close`.
    """

    def __init__(self, db: "GraphDatabase", workers: int) -> None:
        self._db = db  # strong ref: pins id(db) while the pool is cached
        self.workers = max(2, int(workers))
        self.start_method = "unstarted"
        self._pool: Any = None
        self._processes: tuple[Any, ...] = ()
        self._scratch: str | None = None
        self._chunks: Any = None
        self._chunk_buf: dict[int, dict[int, array[int]]] = {}
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
                # Store-backed database: workers load the file it was
                # loaded from, and refuse it if it has been replaced.
                path, checksum = store.manifest.path, store.header.checksum
            else:
                fd, path = tempfile.mkstemp(
                    prefix="repro-pool-", suffix=".idx"
                )
                os.close(fd)
                self._scratch = path
                try:
                    checksum = write_index(self._db, path).checksum
                except BaseException:
                    self.close()
                    raise
            self._chunks = ctx.Queue()
            self._pool = ctx.Pool(
                self.workers,
                initializer=_init_worker,
                initargs=(path, checksum, self._chunks),
            )
            # The workers as started (``Pool._pool`` is the stdlib's own
            # list): the pool swaps a dead one out of that list, while
            # these objects keep its exit code.
            self._processes = tuple(self._pool._pool)
        return self._pool

    def _lost_worker(self) -> bool:
        """Whether a worker of the running pool has died."""
        return any(process.exitcode is not None
                   for process in self._processes)

    def _await(self, get: Any, empty: type[Exception]) -> Any:
        """``get(timeout=...)`` asked again every :data:`LIVENESS_POLL`
        seconds until it answers (``empty`` is its nothing-yet error).
        A worker's death meanwhile closes the pool and raises
        :class:`WorkerLost`: the task it held will never be answered."""
        while self._pool is not None and not self._lost_worker():
            try:
                return get(timeout=LIVENESS_POLL)
            except empty:
                pass
        codes = [process.exitcode for process in self._processes]
        self.close()
        raise WorkerLost(
            f"the pool lost a worker (exit codes {codes}) or was closed "
            "under a wait; it restarts for the next batch"
        )

    def result(self, handle: Any) -> Any:
        """``handle.get()`` for a handle of :meth:`submit_batch`, raising
        :class:`WorkerLost` if a worker dies first."""
        return self._await(handle.get, multiprocessing.TimeoutError)

    def abandon(self, handles: Sequence[Any]) -> None:
        """Wait out dispatched batches whose answers nobody will read
        (their own errors are not news), then forget what they streamed.
        A pool that loses a worker meanwhile is closed instead, and
        whatever it still ran goes with it."""
        for handle in handles:
            if self._pool is None:
                break
            with contextlib.suppress(Exception):
                self.result(handle)
        self.drop_pending_chunks()

    def warmup(self) -> None:
        """Start the pool and wait until every worker has loaded the
        index file; raises the error of a worker that could not."""
        pool = self._start()
        # A barrier: one trivial task per worker forces all the
        # initializers (the file's load included) to finish.
        self.result(pool.map_async(ready, range(self.workers), chunksize=1))

    def submit_batch(self, batch: QueryBatchTask) -> Any:
        """Submit one whole-query batch; :meth:`result` waits for the
        handle's ``list[QueryOutcome]``."""
        pool = self._start()
        return pool.apply_async(run_query_batch, (batch,))

    def run_fault_probe(self) -> None:
        """Raise a RuntimeError from inside a real pool worker.

        Exercises the task-exception path end to end — the exception
        crosses the process boundary and re-raises here, while the pool
        itself survives (see the class docstring) and keeps serving.
        The query server's fault battery uses this to prove a raising
        worker yields one failed request, not a poisoned pool; a worker
        that dies is the :class:`WorkerLost` path, which that battery
        drives with a real ``SIGKILL``.
        """
        pool = self._start()
        self.result(pool.apply_async(_injected_worker_fault))

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
                outcome.packed = array("q")
                for seq in range(outcome.n_chunks):
                    outcome.packed.extend(parts[seq])
            if not needed:
                break
            # Announced chunks were put before their outcome returned:
            # only a dead worker leaves one missing.
            uid, seq, chunk = self._await(self._chunks.get, queue_mod.Empty)
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

    def _release_dead_locks(self) -> None:
        """Make a pool that lost a worker safe to terminate.

        A worker killed while it waited for a task dies holding the task
        queue's read lock; one killed while it sent a result, the result
        queue's write lock. ``Pool.terminate`` takes both, so either
        would wedge it. The pool is stopped from replacing workers and
        every worker is killed; then each lock is taken with a bound and
        given back: past the bound its holder is dead, and the release
        is on its behalf. (``_worker_handler``, ``_change_notifier``,
        ``_pool``, ``_inqueue`` and ``_outqueue`` are the stdlib pool's
        own attributes.)
        """
        pool = self._pool
        pool._worker_handler._state = multiprocessing.pool.TERMINATE
        pool._change_notifier.put(None)
        pool._worker_handler.join()
        for process in pool._pool:
            process.kill()
            process.join()
        for lock in (pool._inqueue._rlock, pool._outqueue._wlock):
            lock.acquire(timeout=LIVENESS_POLL)
            lock.release()

    def close(self) -> None:
        """Tear down the pool and unlink its scratch file, if any."""
        if self._pool is not None:
            if self._lost_worker():
                self._release_dead_locks()
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._processes = ()
        if self._chunks is not None:
            self._chunks.close()
            self._chunks = None
        self._chunk_buf.clear()
        scratch, self._scratch = self._scratch, None
        if scratch is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(scratch)
        self.start_method = "unstarted"


def _injected_worker_fault() -> None:
    """Deliberately failing task of :meth:`WorkerPool.run_fault_probe`."""
    raise RuntimeError("injected worker fault (repro.serve debug probe)")


_POOLS: "OrderedDict[tuple[int, int], WorkerPool]" = OrderedDict()

#: Cached pools (each holds ``workers`` processes). Small LRU so runs
#: that churn through many databases (test suites) do not
#: accumulate processes or scratch files.
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
        if pool._lost_worker():
            # A worker died between batches: nothing was lost, but a
            # wait would take it for a death under this batch.
            pool.close()
    return pool


def close_pools_for(db: "GraphDatabase") -> None:
    """Close (and unlink the scratch files of) every pool bound to
    ``db``."""
    for key in [k for k in _POOLS if k[0] == id(db)]:
        _POOLS.pop(key).close()


def shutdown_pools() -> None:
    """Close every cached pool (atexit hook; also handy in tests)."""
    while _POOLS:
        _key, pool = _POOLS.popitem(last=False)
        pool.close()


atexit.register(shutdown_pools)
