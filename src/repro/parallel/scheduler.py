"""Batched query scheduling over the shared worker pool.

Given a batch of extended BGPs, the scheduler selects each query's
strategy with the same ``auto`` rule the serial engines use and runs it
*whole* in one pool worker (or, for a pool of one, in its own process).
Queries are *grouped* — many per worker round trip
(:class:`QueryBatchTask`) — with the groups filled LPT-style (descending
cost, round-robin) so one expensive query cannot serialize a whole group
behind it. The cost is the index's own estimate: the smallest ``l_x``
the compiled relations report, the quantity the paper's orderings
(Sec. 5) read. The pool itself is warm and shared: its workers load
the database's index file once and are reused across ``run_batch``
calls, which is what :meth:`QueryScheduler.warmup` pays ahead of the
first batch.
Results come back in input order and each is the byte-identical
:class:`QueryResult` — solutions and stats — the serial ``auto`` engine
would have produced for that query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engines import RING_ENGINES, AutoEngine
from repro.engines.result import QueryResult, Solutions
from repro.parallel.executor import (
    DEFAULT_WORKERS,
    close_pools_for,
    pool_for,
)
from repro.parallel.worker import (
    QueryBatchTask,
    QueryOutcome,
    QueryTask,
)
from repro.query.model import ExtendedBGP, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import QueryCache
    from repro.engines.database import GraphDatabase

#: Ceiling on queries served per worker round trip. Groups are also
#: capped in *number* (>= 2x pool size) so short batches still spread
#: across all workers.
MAX_BATCH_SIZE = 8

#: Submitted-but-undrained groups allowed per worker: enough that no
#: worker idles while the parent drains, few enough that a long batch
#: never piles every result up in the pool's buffers at once.
PENDING_PER_WORKER = 2


@dataclass(frozen=True)
class ScheduledQuery:
    """Classification of one batch member."""

    index: int
    engine: str
    """Serial strategy selected by ``auto`` for this query."""

    estimate: int
    """Smallest per-variable candidate estimate — an upper bound on the
    first leapfrog level's size under either ordering, and the LPT
    weight."""


class QueryScheduler:
    """Classify and run a batch of queries over one worker pool."""

    def __init__(
        self,
        db: "GraphDatabase",
        workers: int = DEFAULT_WORKERS,
        cache: QueryCache | None = None,
    ) -> None:
        self._db = db
        self.workers = int(workers)
        #: Optional :class:`repro.cache.QueryCache` probed before any
        #: classification/dispatch and filled from completed results.
        self.cache = cache
        #: The one ``auto`` engine of this process. It selects every
        #: query's strategy, evaluates a pool of one's queries here, and
        #: is what the server's direct route evaluates with — one
        #: instance, so one cached-evaluation path.
        self.auto = AutoEngine(db, cache=cache)

    def warmup(self) -> None:
        """Start the pool (saving a built database to its scratch file)
        and wait for every worker to load the index — the one-time cost
        ``serve`` pays before steady-state batches."""
        if self.workers >= 2:
            pool_for(self._db, self.workers).warmup()

    def close(self) -> None:
        """Release the pools (and their scratch files) for this
        scheduler's database."""
        close_pools_for(self._db)

    def classify(self, query: ExtendedBGP, index: int = 0) -> ScheduledQuery:
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
        return ScheduledQuery(index=index, engine=engine, estimate=estimate)

    def _group_pooled(
        self, plans: Sequence[ScheduledQuery]
    ) -> list[list[ScheduledQuery]]:
        """Pack pooled queries into per-round-trip groups, LPT-style.

        Sorting by descending estimate and dealing round-robin spreads
        the expensive queries across groups (so no group serializes two
        heavy queries) while still amortizing dispatch over up to
        ``MAX_BATCH_SIZE`` queries per trip. Deterministic: ties break
        on input index.
        """
        if not plans:
            return []
        n_groups = min(
            len(plans),
            max(2 * self.workers, math.ceil(len(plans) / MAX_BATCH_SIZE)),
        )
        ordered = sorted(plans, key=lambda p: (-p.estimate, p.index))
        groups: list[list[ScheduledQuery]] = [[] for _ in range(n_groups)]
        for i, plan in enumerate(ordered):
            groups[i % n_groups].append(plan)
        return [group for group in groups if group]

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
        before classification and dispatch — a hit skips the pool
        entirely — and every completed result fills the cache as it
        drains. A pool worker that dies under the batch fails it with
        :class:`~repro.utils.errors.WorkerLost` within about
        :data:`~repro.parallel.executor.LIVENESS_POLL` seconds; the
        next batch gets a fresh pool.
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
        plans = [
            self.classify(query, index)
            for index, query in enumerate(queries)
            if results[index] is None
        ]
        if not plans:
            return [result for result in results if result is not None]

        # Fill the pool with grouped whole-query round trips through a
        # bounded pending window.
        pool = pool_for(self._db, self.workers)
        pending: list[object] = []

        def _drain(handle: object) -> None:
            outcomes: list[QueryOutcome] = pool.result(handle)
            pool.reconcile(outcomes)
            for outcome in outcomes:
                solutions = Solutions.from_flat(
                    map(Var, outcome.var_names), outcome.packed, outcome.n_rows
                )
                result = QueryResult(outcome.engine, solutions, outcome.stats)
                results[outcome.index] = result
                if cache is not None:
                    cache.fill(self._db, queries[outcome.index], result)

        try:
            for group in self._group_pooled(plans):
                batch = QueryBatchTask(
                    tasks=tuple(
                        QueryTask(
                            uid=pool.next_uid(),
                            index=plan.index,
                            query=queries[plan.index],
                            engine=plan.engine,
                            timeout=budgets[plan.index],
                            limit=limit,
                        )
                        for plan in group
                    )
                )
                if len(pending) >= PENDING_PER_WORKER * self.workers:
                    _drain(pending.pop(0))
                pending.append(pool.submit_batch(batch))
            while pending:
                _drain(pending.pop(0))
        except Exception:
            # One group failed: the others are still running, and the
            # chunks they stream would sit in the pool's buffer under
            # uids nobody reconciles. Wait them out (each is bounded by
            # its queries' timeouts), then drop what was streamed.
            pool.abandon(pending)
            raise
        return [result for result in results if result is not None]

