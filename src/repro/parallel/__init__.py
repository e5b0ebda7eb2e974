"""Domain-sharded parallel LTJ execution and batched query scheduling.

Submodules:

* :mod:`repro.parallel.executor` — intra-query parallelism: shard the
  first variable's leapfrog-intersected candidate range across a
  multiprocessing pool, merge shard streams in shard order so results
  and trace op counts are byte-identical to the serial engines.
* :mod:`repro.parallel.scheduler` — inter-query batching: classify a
  batch via the ``auto`` engine's estimates and multiplex it over the
  same pool.
* :mod:`repro.parallel.worker` — the code that runs inside pool workers.
* :mod:`repro.parallel.shm` — the shared-memory segments that carry the
  flattened indexes (:mod:`repro.store.layout`) to the workers, which
  rebuild them zero-copy, no pickling.

This package initializer is deliberately import-light: the engines
import the executor, which imports the engines — eager re-exports here
would close that cycle. Public names resolve lazily (PEP 562).
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "DEFAULT_WORKERS": "repro.parallel.executor",
    "ParallelOutcome": "repro.parallel.executor",
    "SHARDS_PER_WORKER": "repro.parallel.executor",
    "WorkerPool": "repro.parallel.executor",
    "close_pools_for": "repro.parallel.executor",
    "evaluate_parallel": "repro.parallel.executor",
    "pool_for": "repro.parallel.executor",
    "shutdown_pools": "repro.parallel.executor",
    "DEFAULT_PARALLEL_THRESHOLD": "repro.parallel.scheduler",
    "MAX_BATCH_SIZE": "repro.parallel.scheduler",
    "QueryScheduler": "repro.parallel.scheduler",
    "ScheduledQuery": "repro.parallel.scheduler",
    "QueryBatchTask": "repro.parallel.worker",
    "QueryOutcome": "repro.parallel.worker",
    "QueryTask": "repro.parallel.worker",
    "ShardOutcome": "repro.parallel.worker",
    "ShardTask": "repro.parallel.worker",
    "run_query": "repro.parallel.worker",
    "run_query_batch": "repro.parallel.worker",
    "run_shard": "repro.parallel.worker",
    "ENV_START_METHOD": "repro.parallel.executor",
    "forced_start_method": "repro.parallel.executor",
    "ScratchBuffer": "repro.parallel.shm",
    "StructureShm": "repro.parallel.shm",
    "active_segments": "repro.parallel.shm",
    "attach": "repro.parallel.shm",
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
