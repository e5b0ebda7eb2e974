"""A worker pool that runs whole queries, and the batched scheduler
over it.

Submodules:

* :mod:`repro.parallel.executor` — the pool: processes that load one
  database from an index file (the one a store-backed database came
  from, or a scratch file the pool saves) and answer
  :class:`QueryBatchTask` round trips; large results stream back in
  chunks.
* :mod:`repro.parallel.scheduler` — inter-query batching: select each
  query's strategy with the ``auto`` rule, group the batch LPT-style by
  estimated (then measured) cost and multiplex it over the pool.
* :mod:`repro.parallel.worker` — the code that runs inside pool workers.

There is no intra-query parallelism: first-variable sharding was
measured at 0.84x of serial on two cores and deleted
(``docs/parallelism.md``).

Public names resolve lazily (:mod:`repro.utils.lazy`), so importing
the package does not import :mod:`multiprocessing`.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "DEFAULT_WORKERS", "ENV_START_METHOD", "MAX_BATCH_SIZE", "QueryBatchTask",
    "QueryOutcome", "QueryScheduler", "QueryTask", "ScheduledQuery", "WorkerPool",
    "close_pools_for", "forced_start_method", "pool_for", "run_query",
    "run_query_batch", "shutdown_pools",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "executor": (
        "DEFAULT_WORKERS", "ENV_START_METHOD", "WorkerPool", "close_pools_for",
        "forced_start_method", "pool_for", "shutdown_pools",
    ),
    "scheduler": ("MAX_BATCH_SIZE", "QueryScheduler", "ScheduledQuery"),
    "worker": ("QueryBatchTask", "QueryOutcome", "QueryTask", "run_query", "run_query_batch"),
})
