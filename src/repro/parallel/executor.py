"""The worker pool: processes that load one database and run whole
queries over it.

A :class:`WorkerPool` is bound to one database and runs on a
:class:`concurrent.futures.ProcessPoolExecutor`. Starting it hands the
workers an index file to :func:`repro.store.load`: a store-backed
database passes the file it was loaded from; a built one is first saved
once to a private scratch file (``repro-pool-*.idx`` in the temp dir)
that the pool owns. After that a query is one future: the parsed query
with its timeout and limit going out, and its flat ``array('q')`` rows
coming back whole through the executor's result pipe. Nothing
per-dispatch scales with the index size.

Pools are cached per (database, pool size): the cache holds a strong
reference to the database (so the id-based key can never alias a
collected object) and each pool unlinks its scratch file on ``close`` —
including after a worker raised (the pool survives a task exception;
the file goes only with the pool itself) and at exit, through
:func:`shutdown_pools`.

A worker that *dies* (SIGKILL, the OOM killer) breaks the executor,
which fails every pending future with ``BrokenProcessPool`` at once. A
death under a dispatch closes the pool and raises
:class:`~repro.utils.errors.WorkerLost`, and the next dispatch starts a
fresh one; a death while the pool idled lost no task, so the pool
restarts and the dispatch goes ahead.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import tempfile
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.parallel.worker import _init_worker, ready
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


def forced_start_method() -> str | None:
    """Start method forced via the environment, or ``None``."""
    raw = os.environ.get(ENV_START_METHOD, "").strip().lower()
    return raw if raw in ("fork", "spawn") else None


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------
class WorkerPool:
    """A lazily started process pool bound to one database.

    Starting the pool saves the database to a scratch index file unless
    it is store-backed; workers load the file in their initializer, so
    the per-dispatch payload is a descriptor, never an index.
    """

    def __init__(self, db: "GraphDatabase", workers: int) -> None:
        self._db = db  # strong ref: pins id(db) while the pool is cached
        self.workers = max(2, int(workers))
        self.start_method = "unstarted"
        self._executor: ProcessPoolExecutor | None = None
        self._scratch: str | None = None

    def _start(self) -> ProcessPoolExecutor:
        if self._executor is None:
            method = forced_start_method()
            if method is None:
                try:
                    multiprocessing.get_context("fork")
                    method = "fork"
                except ValueError:  # pragma: no cover - non-fork platforms
                    method = "spawn"
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
            self._executor = ProcessPoolExecutor(
                self.workers,
                mp_context=multiprocessing.get_context(method),
                initializer=_init_worker,
                initargs=(path, checksum),
            )
        return self._executor

    @property
    def processes(self) -> list[Any]:
        """The running pool's worker processes (a read of the executor's
        own table; a spawning pool fills it as tasks arrive)."""
        executor = self._executor
        if executor is None or executor._processes is None:
            return []
        return list(executor._processes.values())

    def run(
        self, fn: Callable[..., Any], calls: Sequence[tuple[Any, ...]]
    ) -> list[Any]:
        """``fn(*args)`` in a worker for each ``args`` of ``calls``, one
        future each; returns the results in order.

        A task's exception cancels the futures not yet started and is
        re-raised here; the pool survives it. A worker's death under
        the dispatch closes the pool and raises :class:`WorkerLost`. A
        death found at the first submit happened while the pool idled:
        no task was lost, so the pool restarts and submits again, once.
        """
        futures: list[Any] = []
        try:
            for args in calls:
                try:
                    futures.append(self._start().submit(fn, *args))
                except BrokenProcessPool:
                    if futures:
                        raise
                    self.close()
                    futures.append(self._start().submit(fn, *args))
            return [future.result() for future in futures]
        except BrokenProcessPool:
            codes = [process.exitcode for process in self.processes]
            self.close()
            raise WorkerLost(
                f"a pool worker died under the dispatch (exit codes "
                f"{codes}); the pool restarts for the next batch"
            ) from None
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def warmup(self) -> None:
        """Start the pool and wait until its workers have loaded the
        index file; raises the error of a worker that could not."""
        self.run(ready, [()] * self.workers)

    def run_fault_probe(self) -> None:
        """Raise a RuntimeError from inside a real pool worker.

        Exercises the task-exception path end to end — the exception
        crosses the process boundary and re-raises here, while the pool
        itself survives and keeps serving. The query server's fault
        battery uses this to prove a raising worker yields one failed
        request, not a poisoned pool; a worker that dies is the
        :class:`WorkerLost` path, which that battery drives with a real
        ``SIGKILL``.
        """
        self.run(_injected_worker_fault, [()])

    def close(self) -> None:
        """Shut the executor down and unlink the scratch file, if any."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(cancel_futures=True)
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
        if any(process.exitcode is not None for process in pool.processes):
            # A worker died between batches: nothing was lost, but the
            # executor may not have seen it yet, and would then fail the
            # next batch's futures as if it died under them.
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
