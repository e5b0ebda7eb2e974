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

Public names resolve lazily (PEP 562), so importing the package does
not import :mod:`multiprocessing`.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "DEFAULT_WORKERS": "repro.parallel.executor",
    "WorkerPool": "repro.parallel.executor",
    "close_pools_for": "repro.parallel.executor",
    "pool_for": "repro.parallel.executor",
    "shutdown_pools": "repro.parallel.executor",
    "MAX_BATCH_SIZE": "repro.parallel.scheduler",
    "QueryScheduler": "repro.parallel.scheduler",
    "ScheduledQuery": "repro.parallel.scheduler",
    "QueryBatchTask": "repro.parallel.worker",
    "QueryOutcome": "repro.parallel.worker",
    "QueryTask": "repro.parallel.worker",
    "run_query": "repro.parallel.worker",
    "run_query_batch": "repro.parallel.worker",
    "ENV_START_METHOD": "repro.parallel.executor",
    "forced_start_method": "repro.parallel.executor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(name)
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
