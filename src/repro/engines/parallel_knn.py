"""The parallel-knn engine: domain-sharded Ring-KNN execution.

A thin engine facade over :func:`repro.parallel.executor.evaluate_parallel`:
it borrows a serial Ring engine (Ring-KNN by default, Ring-KNN-S via
``base=``) for query compilation and variable ordering, shards the first
variable's candidate range across a worker pool, and returns the
byte-identical ordered solution list the serial engine would produce —
with merged stats and (when traced) a merged trace whose op counters
equal the serial counts for any pool size.

Queries the executor cannot shard (no variables, ``limit=0``)
transparently fall back to the serial base engine.
"""

from __future__ import annotations

from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.parallel.executor import (
    DEFAULT_WORKERS,
    SHARDS_PER_WORKER,
    evaluate_parallel,
)
from repro.query.model import ExtendedBGP


class ParallelRingKnnEngine:
    """Domain-sharded execution of the Ring engines over a pool."""

    name = "parallel-knn"

    def __init__(
        self,
        db: GraphDatabase,
        workers: int = DEFAULT_WORKERS,
        exact_estimates: bool = False,
        base: str = "ring-knn",
        shards_per_worker: int = SHARDS_PER_WORKER,
    ) -> None:
        if base == RingKnnSEngine.name:
            self._base = RingKnnSEngine(db, exact_estimates=exact_estimates)
        elif base == RingKnnEngine.name:
            self._base = RingKnnEngine(db, exact_estimates=exact_estimates)
        else:
            raise ValueError(f"unknown base engine: {base!r}")
        self._db = db
        self.workers = int(workers)
        self.shards_per_worker = shards_per_worker

    @property
    def base_name(self) -> str:
        """Name of the serial engine providing compile order/ordering."""
        return self._base.name

    def close(self) -> None:
        """Release the worker pools (and their shared-memory segments)
        bound to this engine's database. Safe to call repeatedly; the
        next evaluation transparently starts a fresh pool."""
        from repro.parallel.executor import close_pools_for

        close_pools_for(self._db)

    def compile(self, query: ExtendedBGP) -> list[object]:
        """Compile exactly as the serial base engine does."""
        return self._base.compile(query)

    def evaluate(
        self,
        query: ExtendedBGP,
        timeout: float | None = None,
        limit: int | None = None,
        project: list | None = None,
        distinct: bool = False,
        trace: object | None = None,
    ) -> QueryResult:
        """Evaluate domain-sharded; same signature as the Ring engines.

        Solutions (including projection/distinct/limit handling) match
        the serial base engine's output order exactly; ``stats`` and the
        optional trace merge the parent's depth-0 counters with the
        shards' depth >= 1 counters (pool-size invariant).
        """
        if trace is not None:
            trace.engine = self.name
            if trace.query is None:
                trace.query = repr(query)
        outcome = evaluate_parallel(
            self._base,
            query,
            workers=self.workers,
            timeout=timeout,
            limit=limit,
            project=project,
            distinct=distinct,
            trace=trace,
            shards_per_worker=self.shards_per_worker,
        )
        if outcome is None:
            # Nothing to shard: serial fallback. The trace, if any, is
            # recorded by the base engine; keep our name on it.
            result = self._base.evaluate(
                query,
                timeout=timeout,
                limit=limit,
                project=project,
                distinct=distinct,
                trace=trace,
            )
            if trace is not None:
                trace.engine = self.name
            fallback = QueryResult(
                self.name, result.solutions, result.stats, trace=result.trace
            )
            return fallback
        result = QueryResult(
            self.name, outcome.solutions, outcome.stats, trace=trace
        )
        return result
