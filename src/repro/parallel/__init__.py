"""A worker pool that runs whole queries, and the batched scheduler
over it.

Submodules:

* :mod:`repro.parallel.executor` — the pool, on the stdlib's
  ``ProcessPoolExecutor``: processes that load one database from an
  index file (the one a store-backed database came from, or a scratch
  file the pool saves) and answer one future per query, the reply
  whole; a worker's death is a typed ``WorkerLost``.
* :mod:`repro.parallel.scheduler` — inter-query batching: probe the
  cache, submit each miss to the pool and fill the cache from the
  replies, in input order.
* :mod:`repro.parallel.worker` — the code that runs inside pool workers.

There is no intra-query parallelism: first-variable sharding was
measured at 0.84x of serial on two cores and deleted
(``docs/parallelism.md``).

Public names resolve lazily (:mod:`repro.utils.lazy`), so importing
the package does not import :mod:`multiprocessing`.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "DEFAULT_WORKERS", "ENV_START_METHOD", "QueryScheduler", "ScheduledQuery",
    "WorkerPool", "close_pools_for", "forced_start_method", "pool_for",
    "run_query", "shutdown_pools",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "executor": (
        "DEFAULT_WORKERS", "ENV_START_METHOD", "WorkerPool", "close_pools_for",
        "forced_start_method", "pool_for", "shutdown_pools",
    ),
    "scheduler": ("QueryScheduler", "ScheduledQuery"),
    "worker": ("run_query",),
})
