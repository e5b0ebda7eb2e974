"""Worker-side execution of domain shards and batched whole queries.

Everything in this module runs inside :mod:`multiprocessing` pool
workers (or inline in the parent, for pools of one). The pool
initializer receives only a tiny picklable
:class:`~repro.store.layout.Manifest` and a chunk queue: it attaches the
carrier the manifest names — the shared-memory segment published by the
parent, or the index file a store-backed database was loaded from — and
rebuilds the read-only :class:`GraphDatabase` zero-copy over it (see
:mod:`repro.store.layout`) — no index bytes ever cross the pipe, under
fork *or* spawn.

Tasks are descriptors, not payloads: a :class:`ShardTask` carries a
``(segment, start, stop)`` span into the parent's scratch buffer rather
than the candidate list itself, and a :class:`QueryBatchTask` carries
many small queries per round trip. Solutions travel back as the engine
emitted them — the variable names plus the ``int64`` row matrix of a
:class:`~repro.ltj.solutions.Solutions` — and large results stream
through the chunk queue in fixed-size chunks instead of riding the
result pipe whole.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.ltj.engine import LTJEngine
from repro.obs.trace import (
    QueryTrace,
    attach_wavelets,
    instrument_relations,
    wavelet_targets,
)
from repro.query.model import ExtendedBGP, Var
from repro.store import Attachment, Manifest, attach, prime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.database import GraphDatabase

#: Fixed chunk size (solution rows) for streaming large results back
#: through the chunk queue instead of the pool's result pipe.
CHUNK_SOLUTIONS = 8192

_WORKER_DB: "GraphDatabase | None" = None
_WORKER_ATTACHMENT: Attachment | None = None
_CHUNK_QUEUE: Any = None

#: Worker-side cache of attached scratch (candidate-span) segments,
#: keyed by segment name. The parent replaces the scratch segment only
#: when it grows, so this holds at most one live entry plus stale ones
#: that are dropped the first time a task names a new segment.
_SCRATCH_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def _init_worker(manifest: Manifest, chunk_queue: Any) -> None:
    """Pool initializer: attach the shared database, keep the mapping.

    The attachment is held in a module global for the worker's whole
    life; rebuilt structures start with recorder state detached (no op
    counters, no memos) by construction, so nothing inherited from the
    parent's evaluations can leak into task counts. The plain-int
    hot-path caches are primed here — at the attach boundary, inside
    the warm-up the caller already pays — so a worker's first query
    never stalls on a lazy ``tolist`` rebuild mid-evaluation.
    """
    global _WORKER_DB, _WORKER_ATTACHMENT, _CHUNK_QUEUE
    _WORKER_ATTACHMENT = attach(manifest)
    _WORKER_DB = _WORKER_ATTACHMENT.structure
    prime(_WORKER_DB)
    _CHUNK_QUEUE = chunk_queue


def _serial_engine(db: "GraphDatabase", name: str, exact_estimates: bool):
    """Instantiate a serial engine by name (lazy import: this module is
    reachable from ``repro.engines`` and must not import it eagerly)."""
    from repro.engines.auto import AutoEngine
    from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine

    classes = {
        RingKnnEngine.name: RingKnnEngine,
        RingKnnSEngine.name: RingKnnSEngine,
        AutoEngine.name: AutoEngine,
    }
    return classes[name](db, exact_estimates=exact_estimates)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment this process does not own, telling no resource
    tracker about it.

    Before 3.13 attaching registers the segment just like creating it
    does. In a worker forked before its parent had a tracker (a
    store-backed pool creates no segment until its first publish) that
    starts a tracker of the worker's own, which at the worker's exit
    reports the parent's scratch segment as leaked and tries to unlink
    it. Unregistering afterwards is no cure: where the tracker *is*
    shared (spawn; fork after the parent made a segment) it removes
    the creator's registration, and the creator's unlink then fails in
    the tracker. So the registration itself is skipped — ``track=False``
    where that exists, the call stubbed out for the attach where it does
    not (a worker runs one task at a time, on one thread).
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _resolve_span(span: tuple[str, int, int]) -> tuple[int, ...]:
    """Read a candidate span out of the parent's scratch segment."""
    name, start, stop = span
    segment = _SCRATCH_SEGMENTS.get(name)
    if segment is None:
        # A new scratch segment supersedes any previous one; drop stale
        # attachments (the parent unlinked them when it grew).
        for old_name in sorted(_SCRATCH_SEGMENTS):
            _SCRATCH_SEGMENTS.pop(old_name).close()
        segment = _attach_untracked(name)
        _SCRATCH_SEGMENTS[name] = segment
    view = np.frombuffer(
        segment.buf, dtype="<i8", count=stop - start, offset=start * 8
    )
    candidates = tuple(int(value) for value in view)
    del view
    return candidates


def _emit(
    uid: int, packed: "np.ndarray", inline: bool
) -> tuple["np.ndarray | None", int]:
    """Return a row matrix inline, or stream it in fixed chunks.

    Small results ride the pool's result pipe with the outcome; large
    ones go through the chunk queue in ``CHUNK_SOLUTIONS``-row pieces so
    no single pipe message carries an unbounded payload. ``inline``
    forces the first (execution in the parent process). Returns
    ``(inline payload, number of chunks streamed)``.
    """
    if inline or _CHUNK_QUEUE is None or len(packed) <= CHUNK_SOLUTIONS:
        return packed, 0
    n_chunks = 0
    for start in range(0, len(packed), CHUNK_SOLUTIONS):
        chunk = np.ascontiguousarray(packed[start : start + CHUNK_SOLUTIONS])
        _CHUNK_QUEUE.put((uid, n_chunks, chunk))
        n_chunks += 1
    return None, n_chunks


# ----------------------------------------------------------------------
# intra-query sharding: one slice of the first variable's candidates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardTask:
    """One contiguous slice of the first variable's candidate list."""

    uid: int
    """Pool-unique id correlating streamed chunks with this task."""

    index: int
    query: ExtendedBGP
    engine: str
    """Serial engine (``ring-knn`` / ``ring-knn-s``) whose compile order
    and ordering strategy the shard replicates."""

    exact_estimates: bool
    variable: str
    span: tuple[str, int, int] | None
    """``(scratch segment, start, stop)`` locating this shard's
    candidates in shared memory; ``None`` for inline execution."""

    candidates: tuple[int, ...] | None
    """Inline candidate list (pool size 1 / tests); ``None`` when the
    candidates live in the scratch segment."""

    budget: float | None
    """Remaining wall-clock seconds of the query's timeout, if any."""

    limit: int | None
    traced: bool


@dataclass
class ShardOutcome:
    """What one shard sends back to the merging parent."""

    uid: int
    index: int
    packed: "np.ndarray | None"
    """Inline int64 solution matrix, one column per variable in the
    plan's slot order, or ``None`` when the matrix was streamed through
    the chunk queue."""

    n_chunks: int
    solutions_found: int
    bindings: int
    attempts: int
    leap_calls: int
    timed_out: bool
    elapsed: float
    first_descent: tuple[str, ...]
    trace: dict[str, Any] | None


def run_shard(
    task: ShardTask, db: "GraphDatabase | None" = None
) -> ShardOutcome:
    """Run the depth >= 1 search for one candidate shard.

    ``db`` overrides the pool-global database for inline execution in
    the parent process (pool size 1, or tests).
    """
    database = db if db is not None else _WORKER_DB
    if database is None:
        raise RuntimeError("worker pool used before initialization")
    started = time.perf_counter()
    if task.candidates is not None:
        candidates = task.candidates
    elif task.span is not None:
        candidates = _resolve_span(task.span)
    else:
        raise RuntimeError("shard task carries neither span nor candidates")
    driver = _serial_engine(database, task.engine, task.exact_estimates)
    relations = driver.compile(task.query)
    trace = QueryTrace(engine=task.engine) if task.traced else None
    engine = LTJEngine(
        relations,
        ordering=driver._ordering(task.query),
        timeout=task.budget,
        limit=task.limit,
        trace=trace,
    )
    variable = Var(task.variable)
    if trace is not None:
        instrument_relations(trace, relations)
        pairs = wavelet_targets(trace, database, task.query)
        with attach_wavelets(pairs):
            with trace.phase("evaluate"):
                solutions = engine.run_prebound(variable, candidates)
    else:
        solutions = engine.run_prebound(variable, candidates)
    stats = engine.stats
    payload, n_chunks = _emit(task.uid, solutions.rows, db is not None)
    return ShardOutcome(
        uid=task.uid,
        index=task.index,
        packed=payload,
        n_chunks=n_chunks,
        solutions_found=stats.solutions,
        bindings=stats.bindings,
        attempts=stats.attempts,
        leap_calls=stats.leap_calls,
        timed_out=stats.timed_out,
        elapsed=time.perf_counter() - started,
        first_descent=tuple(v.name for v in stats.first_descent_order),
        trace=trace.to_dict() if trace is not None else None,
    )


# ----------------------------------------------------------------------
# inter-query batching: many whole (small) queries per round trip
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryTask:
    """One whole query multiplexed through the pool by the scheduler."""

    uid: int
    index: int
    query: ExtendedBGP
    engine: str
    exact_estimates: bool
    timeout: float | None
    limit: int | None


@dataclass(frozen=True)
class QueryBatchTask:
    """A group of small queries served in one worker round trip.

    Batching amortizes the per-dispatch pipe cost over many queries —
    the scheduler groups small-estimate queries so a worker round trip
    does milliseconds of pipe traffic for tens of queries of work.
    """

    tasks: tuple[QueryTask, ...]


@dataclass
class QueryOutcome:
    """Result of one whole-query task."""

    uid: int
    index: int
    engine: str
    var_names: tuple[str, ...]
    packed: "np.ndarray | None"
    n_chunks: int
    solutions_found: int
    bindings: int
    attempts: int
    leap_calls: int
    timed_out: bool
    elapsed: float


def run_query(
    task: QueryTask, db: "GraphDatabase | None" = None
) -> QueryOutcome:
    """Evaluate one whole query serially inside a worker.

    The LTJ engine opens and closes its own per-query wavelet memo per
    evaluation, so multiplexed queries never share memo state.
    """
    database = db if db is not None else _WORKER_DB
    if database is None:
        raise RuntimeError("worker pool used before initialization")
    driver = _serial_engine(database, task.engine, task.exact_estimates)
    result = driver.evaluate(
        task.query, timeout=task.timeout, limit=task.limit
    )
    stats = result.stats
    payload, n_chunks = _emit(task.uid, result.solutions.rows, db is not None)
    return QueryOutcome(
        uid=task.uid,
        index=task.index,
        engine=result.engine,
        var_names=tuple(v.name for v in result.solutions.variables),
        packed=payload,
        n_chunks=n_chunks,
        solutions_found=stats.solutions,
        bindings=stats.bindings,
        attempts=stats.attempts,
        leap_calls=stats.leap_calls,
        timed_out=stats.timed_out,
        elapsed=stats.elapsed,
    )


def run_query_batch(
    batch: QueryBatchTask, db: "GraphDatabase | None" = None
) -> list[QueryOutcome]:
    """Serve one batch of whole queries in a single round trip."""
    return [run_query(task, db=db) for task in batch.tasks]
