"""Worker-side execution of whole queries.

Everything in this module runs inside the pool's worker processes. The
initializer receives only an index file's path and the checksum the
parent expects of it: it opens the file with :func:`repro.store.load`,
as any other process opening an index does, and so rebuilds the
read-only :class:`GraphDatabase` zero-copy over its mapping — no index
bytes ever cross the pipe, under fork *or* spawn.

A task is one parsed query with its timeout and limit. The worker's own
:class:`~repro.engines.auto.AutoEngine` selects the strategy and
evaluates it; the reply is a plain tuple — the strategy, the variable
names, the row count, the flat ``array('q')`` rows of the
:class:`~repro.ltj.solutions.Solutions` and the stats — returned whole
through the executor's result pipe.
"""

from __future__ import annotations

from array import array

from repro.engines.auto import AutoEngine
from repro.ltj.stats import EvaluationStats
from repro.query.model import ExtendedBGP
from repro.store import load, prime
from repro.utils.errors import StoreFormatError

_WORKER_AUTO: AutoEngine | None = None
_WORKER_ERROR: Exception | None = None


def _init_worker(path: str, checksum: int) -> None:
    """Executor initializer: load the index file, keep its engine.

    The database (and through its ``_store`` the mapping) is held by
    the worker's one ``auto`` engine for the worker's whole life; loaded
    structures start with recorder state detached (no op counters) and
    empty wavelet memos by construction, so nothing inherited from the
    parent's evaluations can leak into task counts. The plain-int
    hot-path caches are primed here — inside the warm-up the caller
    already pays — so a worker's first query never stalls on a lazy
    ``tolist`` rebuild mid-evaluation.

    This never raises: a raising initializer breaks the executor with
    an untyped ``BrokenProcessPool``. A file that cannot be opened, or
    whose checksum is not the one the parent meant (it was replaced
    since), is kept as the worker's error, and every task re-raises it.
    Its traceback is dropped: the frames of a failed load hold views of
    the mapping, which would keep it from being closed.
    """
    global _WORKER_AUTO, _WORKER_ERROR
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
    _WORKER_AUTO = AutoEngine(store.database)


def _engine() -> AutoEngine:
    """This worker's engine, or the initializer's error raised."""
    if _WORKER_AUTO is None:
        if _WORKER_ERROR is not None:
            raise _WORKER_ERROR.with_traceback(None)
        raise RuntimeError("worker pool used before initialization")
    return _WORKER_AUTO


def ready() -> None:
    """Warm-up barrier task: fails as a query would on a worker that
    could not open its index file."""
    _engine()


def run_query(
    query: ExtendedBGP, timeout: float | None, limit: int | None
) -> tuple[str, tuple[str, ...], int, array[int], EvaluationStats]:
    """Evaluate one whole query with the worker's ``auto`` engine.

    The worker's wavelet trees keep their memos across tasks; a memo
    changes what an operation costs, never an answer or a count.
    """
    result = _engine().evaluate(query, timeout=timeout, limit=limit)
    solutions = result.solutions
    return (
        result.engine,
        tuple(v.name for v in solutions.variables),
        len(solutions),
        solutions.columns(solutions.variables),
        result.stats,
    )
