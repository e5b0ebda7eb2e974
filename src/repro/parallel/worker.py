"""Worker-side execution of batched whole queries.

Everything in this module runs inside :mod:`multiprocessing` pool
workers. The pool initializer receives only a tiny picklable
:class:`~repro.store.layout.Manifest` and a chunk queue: it attaches the
carrier the manifest names — the shared-memory segment published by the
parent, or the index file a store-backed database was loaded from — and
rebuilds the read-only :class:`GraphDatabase` zero-copy over it (see
:mod:`repro.store.layout`) — no index bytes ever cross the pipe, under
fork *or* spawn.

A :class:`QueryBatchTask` carries many small queries per round trip.
Solutions travel back as the engine emitted them — the variable names
plus the ``int64`` row matrix of a
:class:`~repro.ltj.solutions.Solutions` — and large results stream
through the chunk queue in fixed-size chunks instead of riding the
result pipe whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engines import INDEX_ENGINES
from repro.engines.database import GraphDatabase
from repro.ltj.stats import EvaluationStats
from repro.query.model import ExtendedBGP
from repro.store import Attachment, Manifest, attach, prime

#: Fixed chunk size (solution rows) for streaming large results back
#: through the chunk queue instead of the pool's result pipe.
CHUNK_SOLUTIONS = 8192

_WORKER_DB: GraphDatabase | None = None
_WORKER_ATTACHMENT: Attachment | None = None
_CHUNK_QUEUE: Any = None


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


def _emit(uid: int, packed: "np.ndarray") -> tuple["np.ndarray | None", int]:
    """Return a row matrix inline, or stream it in fixed chunks.

    Small results ride the pool's result pipe with the outcome; large
    ones go through the chunk queue in ``CHUNK_SOLUTIONS``-row pieces so
    no single pipe message carries an unbounded payload. Returns
    ``(inline payload, number of chunks streamed)``.
    """
    if len(packed) <= CHUNK_SOLUTIONS:
        return packed, 0
    n_chunks = 0
    for start in range(0, len(packed), CHUNK_SOLUTIONS):
        chunk = np.ascontiguousarray(packed[start : start + CHUNK_SOLUTIONS])
        _CHUNK_QUEUE.put((uid, n_chunks, chunk))
        n_chunks += 1
    return None, n_chunks


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
    """A name in :data:`repro.engines.INDEX_ENGINES`."""

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
    stats: EvaluationStats
    """The evaluation's stats whole, as the serial engine reports them."""


def run_query(task: QueryTask) -> QueryOutcome:
    """Evaluate one whole query serially inside a worker.

    The LTJ engine opens and closes its own per-query wavelet memo per
    evaluation, so multiplexed queries never share memo state.
    """
    if _WORKER_DB is None:
        raise RuntimeError("worker pool used before initialization")
    result = INDEX_ENGINES[task.engine](_WORKER_DB).evaluate(
        task.query, timeout=task.timeout, limit=task.limit
    )
    payload, n_chunks = _emit(task.uid, result.solutions.rows)
    return QueryOutcome(
        uid=task.uid,
        index=task.index,
        engine=result.engine,
        var_names=tuple(v.name for v in result.solutions.variables),
        packed=payload,
        n_chunks=n_chunks,
        stats=result.stats,
    )


def run_query_batch(batch: QueryBatchTask) -> list[QueryOutcome]:
    """Serve one batch of whole queries in a single round trip."""
    return [run_query(task) for task in batch.tasks]
