"""Domain-sharded parallel LTJ execution over a multiprocessing pool.

The decomposition (Mhedhbi & Salihoglu, VLDB 2019; the LogicBlox
"old dog" line): LTJ's search tree is embarrassingly parallel at the
first variable. The parent process replays the serial engine's depth-0
work verbatim — ordering choice, full leapfrog intersection of the first
variable — then splits the candidate list into contiguous shards and
hands each to a pool worker, which binds its candidates and searches
depth >= 1 with the identical compile order and ordering strategy.
Merging shard solution streams *in shard order* reproduces the serial
solution list byte for byte, and summing shard counters with the
parent's reproduces the serial stats and trace op counts for any pool
size (see :mod:`repro.obs.merge` for the invariance argument).

Transport is zero-copy (:mod:`repro.parallel.shm`): when a pool starts,
the database's succinct structures are flattened once into a shared
segment that workers attach; tasks carry ``(segment, start, stop)``
candidate spans through a reusable scratch segment; results come back
as packed int64 matrices, streamed in fixed-size chunks through a
queue when large. Nothing per-dispatch scales with the index size.

Pools are cached per (database, pool size): the cache holds a strong
reference to the database (so the id-based key can never alias a
collected object) and each pool owns its shared segments, unlinking
them on ``close`` — including the error path where a worker raised
mid-shard (the pool survives a task exception; the segments are only
torn down with the pool itself).

Known, documented divergences from the serial engine:

* under a ``timeout``, partial results may differ (shards poll their
  own budgets);
* under a ``limit``, the returned solutions are identical but the
  stats may over-count (shards cap at ``limit`` each, the serial
  engine stops globally) — except ``limit=0``, which searches nothing
  on either route.

Full enumerations — the differential/equivalence suites — are
byte-identical.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_mod
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.ltj.engine import FirstLevelPlan, LTJEngine
from repro.ltj.solutions import Solutions, raw_limit
from repro.ltj.stats import EvaluationStats
from repro.obs.merge import merge_shard_traces
from repro.obs.trace import (
    attach_wavelets,
    instrument_relations,
    wavelet_targets,
)
from repro.parallel.shm import ScratchBuffer, StructureShm
from repro.parallel.worker import (
    QueryBatchTask,
    QueryOutcome,
    ShardOutcome,
    ShardTask,
    _init_worker,
    run_query_batch,
    run_shard,
)
from repro.query.model import ExtendedBGP, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.database import GraphDatabase

#: Default pool size of the parallel engine and the scheduler.
DEFAULT_WORKERS = 2

#: Contiguous shards handed out per worker. Finer than the pool size for
#: load balancing; any split yields the same merged results/counters.
SHARDS_PER_WORKER = 2

#: Environment variable pinning the pool start method (``fork`` or
#: ``spawn``). Unset or unrecognized values fall back to the platform
#: default (fork where available). The CI ``parallel-shm`` job forces
#: ``spawn`` to prove the shm transport works without copy-on-write
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
    segment (:class:`StructureShm`); workers attach it in their
    initializer, so the per-dispatch payload is a descriptor, never an
    index. The pool also owns the scratch segment candidate spans are
    published through and the queue large results stream back on — all
    three are torn down together in :meth:`close`.
    """

    def __init__(self, db: "GraphDatabase", workers: int) -> None:
        self._db = db  # strong ref: pins id(db) while the pool is cached
        self.workers = max(2, int(workers))
        self.start_method = "unstarted"
        self._pool: Any = None
        self._shm: StructureShm | None = None
        self._scratch: ScratchBuffer | None = None
        self._chunks: Any = None
        self._chunk_buf: dict[int, dict[int, np.ndarray]] = {}
        self._uid = 0

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
            self._scratch = ScratchBuffer()
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

    def publish_candidates(self, candidates: Sequence[int]) -> str:
        """Publish a candidate list to the scratch segment; returns the
        segment name tasks should carry in their spans."""
        self._start()
        assert self._scratch is not None
        name, _n = self._scratch.publish(candidates)
        return name

    def map_shards(self, tasks: Sequence[ShardTask]) -> list[ShardOutcome]:
        """Run shard tasks, returning outcomes in task (shard) order."""
        pool = self._start()
        try:
            outcomes = list(pool.map(run_shard, tasks, chunksize=1))
        except Exception:
            self._drop_pending_chunks()
            raise
        self.reconcile(outcomes)
        return outcomes

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

    def reconcile(
        self, outcomes: Sequence[ShardOutcome | QueryOutcome]
    ) -> None:
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
            self._chunk_buf.setdefault(uid, {})[seq] = chunk

    def _drop_pending_chunks(self) -> None:
        """Best-effort drain after a task exception, so chunks from
        sibling shards of the failed dispatch cannot satisfy a later
        reconcile by uid collision (uids are unique, so dropping is
        purely hygiene — it bounds the buffer)."""
        self._chunk_buf.clear()
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
        if self._scratch is not None:
            self._scratch.close()
            self._scratch = None
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


# ----------------------------------------------------------------------
# sharded evaluation
# ----------------------------------------------------------------------
@dataclass
class ParallelOutcome:
    """Merged outcome of a domain-sharded evaluation."""

    solutions: Solutions
    stats: EvaluationStats
    meta: dict[str, Any] = field(default_factory=dict)
    """Execution shape: workers, start method, per-shard breakdown."""


def _bounds(n: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``(start, stop)`` slices of ``range(n)``."""
    base, extra = divmod(n, n_shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def evaluate_parallel(
    driver,
    query: ExtendedBGP,
    *,
    workers: int = DEFAULT_WORKERS,
    timeout: float | None = None,
    limit: int | None = None,
    project: list | None = None,
    distinct: bool = False,
    trace=None,
    shards_per_worker: int = SHARDS_PER_WORKER,
    subplan_cache=None,
) -> ParallelOutcome | None:
    """Evaluate ``query`` domain-sharded, using ``driver``'s compile
    order and ordering strategy (``driver`` is a serial Ring engine).

    Returns ``None`` when there is nothing to shard — the query has no
    variables, or ``limit`` is 0 — in which case the caller should
    evaluate serially.
    The caller owns the trace's ``engine``/``query`` labels; this
    function records counters, shard metadata (``meta["parallel"]``)
    and finalizes the trace from the merged stats.

    ``subplan_cache`` is an optional :class:`repro.cache.QueryCache`
    whose first-level table short-circuits the leading-variable
    leapfrog intersection on repeat shapes; a hit replays the cached
    candidates *and* the leapfrog counter deltas the computation would
    have produced, so merged stats stay byte-identical to a cold run.
    Only untraced runs use it — traced runs must surface real per-op
    counters.
    """
    db = driver._db
    relations = driver.compile(query)
    engine = LTJEngine(
        relations,
        ordering=driver._ordering(query),
        timeout=timeout,
        trace=trace,
    )
    if not engine.variables or limit == 0:
        return None
    started = time.perf_counter()
    if trace is None:
        attached = nullcontext()
    else:
        if trace.query is None:
            trace.query = repr(query)
        instrument_relations(trace, relations)
        attached = attach_wavelets(wavelet_targets(trace, db, query))
    first_level_hit = None
    if subplan_cache is not None and trace is None:
        first_level_hit = subplan_cache.first_level_probe(
            db, query, driver.name
        )
    if first_level_hit is not None:
        # Replay the cached subplan: the fresh engine's stats carry the
        # structural fields (sim_variables) from construction; the
        # counters and descent entry below are exactly what
        # ``first_level()`` would have added.
        parent = engine.stats
        parent.attempts = first_level_hit.attempts
        parent.leap_calls = first_level_hit.leap_calls
        parent.first_descent_order.append(first_level_hit.variable)
        plan = FirstLevelPlan(
            first_level_hit.variable, first_level_hit.candidates
        )
    else:
        with attached:
            plan = engine.first_level()
        parent = engine.stats
        if (
            subplan_cache is not None
            and trace is None
            and plan.variable is not None
            and not parent.timed_out
        ):
            subplan_cache.first_level_fill(
                db,
                query,
                driver.name,
                plan.variable,
                plan.candidates,
                attempts=parent.attempts,
                leap_calls=parent.leap_calls,
            )

    bounds: list[tuple[int, int]] = []
    outcomes: list[ShardOutcome] = []
    mode = "empty"
    engine_limit = raw_limit(limit, project, distinct)
    if plan.variable is not None and plan.candidates and not parent.timed_out:
        n_shards = min(
            len(plan.candidates), max(1, workers) * max(1, shards_per_worker)
        )
        bounds = _bounds(len(plan.candidates), n_shards)
        remaining = None
        if timeout is not None:
            remaining = max(timeout - (time.perf_counter() - started), 0.0)
        if workers <= 1:
            mode = "inline"
            tasks = [
                ShardTask(
                    uid=0,
                    index=i,
                    query=query,
                    engine=driver.name,
                    exact_estimates=driver._exact_estimates,
                    variable=plan.variable.name,
                    span=None,
                    candidates=tuple(plan.candidates[start:stop]),
                    budget=remaining,
                    limit=engine_limit,
                    traced=trace is not None,
                )
                for i, (start, stop) in enumerate(bounds)
            ]
            outcomes = [run_shard(task, db=db) for task in tasks]
        else:
            pool = pool_for(db, workers)
            segment = pool.publish_candidates(plan.candidates)
            tasks = [
                ShardTask(
                    uid=pool.next_uid(),
                    index=i,
                    query=query,
                    engine=driver.name,
                    exact_estimates=driver._exact_estimates,
                    variable=plan.variable.name,
                    span=(segment, start, stop),
                    candidates=None,
                    budget=remaining,
                    limit=engine_limit,
                    traced=trace is not None,
                )
                for i, (start, stop) in enumerate(bounds)
            ]
            outcomes = pool.map_shards(tasks)
            mode = pool.start_method

    # ------------------------------------------------------------------
    # merge (shard order == candidate order == serial order)
    # ------------------------------------------------------------------
    merged = EvaluationStats()
    merged.sim_variables = parent.sim_variables
    merged.attempts = parent.attempts
    merged.leap_calls = parent.leap_calls
    merged.timed_out = parent.timed_out
    order: list[Var] = list(parent.first_descent_order)
    blocks: list[np.ndarray] = []
    shards_meta: list[dict[str, Any]] = []
    for outcome in outcomes:
        merged.solutions += outcome.solutions_found
        merged.bindings += outcome.bindings
        merged.attempts += outcome.attempts
        merged.leap_calls += outcome.leap_calls
        merged.timed_out = merged.timed_out or outcome.timed_out
        if len(order) == 1 and outcome.first_descent:
            order.extend(Var(name) for name in outcome.first_descent)
        blocks.append(outcome.packed)
        start, stop = bounds[outcome.index]
        shards_meta.append(
            {
                "shard": outcome.index,
                "candidates": stop - start,
                "solutions": outcome.solutions_found,
                "streamed_chunks": outcome.n_chunks,
                "elapsed_s": outcome.elapsed,
            }
        )
    merged.first_descent_order = order
    merged.elapsed = time.perf_counter() - started
    meta: dict[str, Any] = {
        "workers": workers,
        "mode": mode,
        "first_variable": (
            None if plan.variable is None else plan.variable.name
        ),
        "candidates": len(plan.candidates),
        "shards": shards_meta,
    }
    # Every shard compiled the same plan, so the blocks share the
    # parent engine's slot order.
    width = len(engine.variables)
    rows = np.concatenate(blocks) if blocks else np.empty((0, width), "<i8")
    final = Solutions(engine.variables, rows).select(project, distinct, limit)
    if trace is not None:
        merge_shard_traces(
            trace,
            [o.trace for o in outcomes if o.trace is not None],
        )
        trace.meta["parallel"] = meta
        trace.add_phase("evaluate", merged.elapsed)
        trace.finish(merged)
    return ParallelOutcome(solutions=final, stats=merged, meta=meta)
