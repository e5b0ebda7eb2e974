"""Worker-side execution of batched whole queries.

Everything in this module runs inside :mod:`multiprocessing` pool
workers. The pool initializer receives only an index file's path, the
checksum the parent expects of it, and a chunk queue: it opens the file
with :func:`repro.store.load`, as any other process opening an index
does, and so rebuilds the read-only :class:`GraphDatabase` zero-copy
over its mapping — no index bytes ever cross the pipe, under fork *or*
spawn.

A :class:`QueryBatchTask` carries many small queries per round trip.
Solutions travel back as the engine emitted them — the variable names,
the row count and the flat ``array('q')`` rows of a
:class:`~repro.ltj.solutions.Solutions` — and large results stream
through the chunk queue in fixed-size chunks instead of riding the
result pipe whole.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any

from repro.engines import INDEX_ENGINES, Solutions
from repro.engines.database import GraphDatabase
from repro.ltj.stats import EvaluationStats
from repro.query.model import ExtendedBGP
from repro.store import load, prime
from repro.utils.errors import StoreFormatError

#: Fixed chunk size (solution rows) for streaming large results back
#: through the chunk queue instead of the pool's result pipe.
CHUNK_SOLUTIONS = 8192

_WORKER_DB: GraphDatabase | None = None
_WORKER_ERROR: Exception | None = None
_CHUNK_QUEUE: Any = None


def _init_worker(path: str, checksum: int, chunk_queue: Any) -> None:
    """Pool initializer: load the index file, keep the database.

    The database (and through its ``_store`` the mapping) is held in a
    module global for the worker's whole life; loaded structures start
    with recorder state detached (no op counters) and empty wavelet
    memos by construction, so nothing inherited from the parent's
    evaluations can leak into task counts. The plain-int hot-path
    caches are primed here — inside the warm-up the caller already
    pays — so a worker's first query never stalls on a lazy ``tolist``
    rebuild mid-evaluation.

    This never raises: a raising initializer makes the pool respawn
    the worker without end. A file that cannot be opened, or whose
    checksum is not the one the parent meant (it was replaced since),
    is kept as the worker's error, and every task re-raises it. Its
    traceback is dropped: the frames of a failed load hold views of the
    mapping, which would keep it from being closed.
    """
    global _WORKER_DB, _WORKER_ERROR, _CHUNK_QUEUE
    _CHUNK_QUEUE = chunk_queue
    try:
        store = load(path)
        try:
            if store.header.checksum != checksum:
                raise StoreFormatError(
                    f"{path}: index file was replaced since the pool's "
                    f"database was opened (checksum "
                    f"{store.header.checksum:#010x}, expected "
                    f"{checksum:#010x}); reopen the database"
                )
            prime(store.database)
        except BaseException:
            store.close()
            raise
    except Exception as exc:
        _WORKER_ERROR = exc.with_traceback(None)
        return
    _WORKER_DB = store.database


def _database() -> GraphDatabase:
    """This worker's database, or the initializer's error raised."""
    if _WORKER_DB is None:
        if _WORKER_ERROR is not None:
            raise _WORKER_ERROR.with_traceback(None)
        raise RuntimeError("worker pool used before initialization")
    return _WORKER_DB


def ready(_: int) -> None:
    """Warm-up barrier task: fails as a query would on a worker that
    could not open its index file."""
    _database()


def _emit(uid: int, solutions: Solutions) -> tuple[array[int] | None, int]:
    """Return the flat rows inline, or stream them in fixed chunks.

    Small results ride the pool's result pipe with the outcome; large
    ones go through the chunk queue in ``CHUNK_SOLUTIONS``-row pieces so
    no single pipe message carries an unbounded payload. Returns
    ``(inline payload, number of chunks streamed)``.
    """
    flat = solutions.columns(solutions.variables)
    if len(solutions) <= CHUNK_SOLUTIONS:
        return flat, 0
    step = len(solutions.variables) * CHUNK_SOLUTIONS
    starts = range(0, len(flat), step)
    for seq, start in enumerate(starts):
        _CHUNK_QUEUE.put((uid, seq, flat[start : start + step]))
    return None, len(starts)


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
    n_rows: int
    packed: array[int] | None
    """The rows, flat; ``None`` until streamed chunks are joined."""

    n_chunks: int
    stats: EvaluationStats
    """The evaluation's stats whole, as the serial engine reports them."""


def run_query(task: QueryTask) -> QueryOutcome:
    """Evaluate one whole query serially inside a worker.

    The worker's wavelet trees keep their memos across tasks; a memo
    changes what an operation costs, never an answer or a count.
    """
    result = INDEX_ENGINES[task.engine](_database()).evaluate(
        task.query, timeout=task.timeout, limit=task.limit
    )
    solutions = result.solutions
    payload, n_chunks = _emit(task.uid, solutions)
    return QueryOutcome(
        uid=task.uid,
        index=task.index,
        engine=result.engine,
        var_names=tuple(v.name for v in solutions.variables),
        n_rows=len(solutions),
        packed=payload,
        n_chunks=n_chunks,
        stats=result.stats,
    )


def run_query_batch(batch: QueryBatchTask) -> list[QueryOutcome]:
    """Serve one batch of whole queries in a single round trip."""
    return [run_query(task) for task in batch.tasks]
