"""Batched query scheduling over the shared worker pool.

Given a batch of extended BGPs, the scheduler runs each query *whole* in
one pool worker (or, for a pool of one, in its own process), one future
per query; the worker selects the query's strategy with the same
``auto`` rule the serial engines use. The pool itself is warm and
shared: its workers load the database's index file once and are reused
across ``run_batch`` calls, which is what :meth:`QueryScheduler.warmup`
pays ahead of the first batch.
Results come back in input order and each is the byte-identical
:class:`QueryResult` — solutions and stats — the serial ``auto`` engine
would have produced for that query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engines import RING_ENGINES, AutoEngine
from repro.engines.result import QueryResult, Solutions
from repro.parallel.executor import (
    DEFAULT_WORKERS,
    close_pools_for,
    pool_for,
)
from repro.parallel.worker import run_query
from repro.query.model import ExtendedBGP, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import QueryCache
    from repro.engines.database import GraphDatabase


@dataclass(frozen=True)
class ScheduledQuery:
    """Classification of one query."""

    engine: str
    """Serial strategy selected by ``auto`` for this query."""

    estimate: int
    """Smallest per-variable candidate estimate — an upper bound on the
    first leapfrog level's size under either ordering."""


class QueryScheduler:
    """Run a batch of queries over one worker pool."""

    def __init__(
        self,
        db: "GraphDatabase",
        workers: int = DEFAULT_WORKERS,
        cache: QueryCache | None = None,
    ) -> None:
        self._db = db
        self.workers = int(workers)
        #: Optional :class:`repro.cache.QueryCache` probed before any
        #: dispatch and filled from completed results.
        self.cache = cache
        #: The one ``auto`` engine of this process. It selects the
        #: strategy a cache probe is keyed on, evaluates a pool of one's
        #: queries here, and is what the server's direct route
        #: evaluates with — one instance, so one cached-evaluation path.
        self.auto = AutoEngine(db, cache=cache)

    def warmup(self) -> None:
        """Start the pool (saving a built database to its scratch file)
        and wait for the workers to load the index — the one-time cost
        ``serve`` pays before steady-state batches."""
        if self.workers >= 2:
            pool_for(self._db, self.workers).warmup()

    def close(self) -> None:
        """Release the pools (and their scratch files) for this
        scheduler's database."""
        close_pools_for(self._db)

    def classify(self, query: ExtendedBGP) -> ScheduledQuery:
        """Select one query's strategy and weigh it by the serial
        engines' own estimates.

        The estimate is the minimum over variables of the smallest
        participating relation's ``estimate`` — the size the adaptive
        orderings minimize when choosing the first variable.
        """
        engine = self.auto.select(query)
        relations = RING_ENGINES[engine](self._db).compile(query)
        estimate = min(
            (
                relation.estimate(relation.position(var))
                for relation in relations
                for var in relation.variables
            ),
            default=0,
        )
        return ScheduledQuery(engine=engine, estimate=estimate)

    def run_batch(
        self,
        queries: Sequence[ExtendedBGP],
        *,
        timeout: float | None = None,
        limit: int | None = None,
        timeouts: Sequence[float | None] | None = None,
    ) -> list[QueryResult]:
        """Evaluate a batch, returning results in input order.

        Every returned :class:`QueryResult` carries the solutions the
        serial ``auto`` engine would produce, in the same order.

        ``timeouts`` gives each query its own budget (the query server's
        per-request deadlines: by dispatch time different requests have
        different remaining budgets); it overrides the uniform
        ``timeout`` position for position.

        A pool of one is ``self.auto.evaluate`` per query — the cached
        evaluation every other single-query door uses. A real pool is
        the one place a batch needs probe and fill *apart*: with a
        :attr:`cache` attached and no ``limit``, every query is probed
        before dispatch — a hit skips the pool entirely — and every
        pooled result fills the cache. A query that raises in its
        worker fails the batch with its exception; a pool worker that
        dies under the batch fails it with
        :class:`~repro.utils.errors.WorkerLost`, and the next batch gets
        a fresh pool.
        """
        if timeouts is not None and len(timeouts) != len(queries):
            raise ValueError(
                f"timeouts has {len(timeouts)} entries for "
                f"{len(queries)} queries"
            )
        budgets: list[float | None] = (
            list(timeouts) if timeouts is not None
            else [timeout] * len(queries)
        )
        if self.workers <= 1:
            return [
                self.auto.evaluate(query, timeout=budget, limit=limit)
                for query, budget in zip(queries, budgets)
            ]
        results: list[QueryResult | None] = [None] * len(queries)
        cache = self.cache if limit is None else None
        if cache is not None:
            for index, query in enumerate(queries):
                results[index] = cache.probe(
                    self._db, query, engine=self.auto.select(query)
                )
        misses = [index for index, result in enumerate(results) if result is None]
        if misses:
            replies = pool_for(self._db, self.workers).run(
                run_query, [(queries[i], budgets[i], limit) for i in misses]
            )
            for index, (engine, names, n_rows, flat, stats) in zip(
                misses, replies
            ):
                solutions = Solutions.from_flat(map(Var, names), flat, n_rows)
                result = QueryResult(engine, solutions, stats)
                results[index] = result
                if cache is not None:
                    cache.fill(self._db, queries[index], result)
        return [result for result in results if result is not None]
