"""Batched query scheduling over the shared worker pool.

Given a batch of extended BGPs, the scheduler selects each query's
strategy with the same ``auto`` rule the serial engines use and runs it
*whole* in one pool worker (or, for a pool of one, in its own process).
Queries are *grouped* — many per worker round trip
(:class:`QueryBatchTask`) — with the groups filled LPT-style (descending
cost, round-robin) so one expensive query cannot serialize a whole group
behind it. The LPT cost starts as the optimizer's estimate (the smallest
``l_x`` the compiled relations report), but every completed batch feeds
its measured per-query wall times back into the scheduler: queries with
the same *shape signature* (selected engine, triple/similarity/distance
clause counts) as an already-served query are costed by an exponential
moving average of the observed seconds instead, and unseen shapes scale
their estimate by the observed seconds-per-estimate-unit ratio. A
long-running server therefore converges to grouping by how long queries
actually take, not by how long the estimates guessed. The pool itself is
warm and shared: its carrier is created once per database and reused
across ``run_batch`` calls, which is what :meth:`QueryScheduler.warmup`
pays ahead of the first batch. Results come back
in input order and each is the byte-identical :class:`QueryResult` the
serial ``auto`` engine would have produced for that query.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engines import RING_ENGINES, AutoEngine
from repro.engines.result import QueryResult, Solutions
from repro.ltj.stats import EvaluationStats
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

#: Smoothing factor of the observed-cost moving averages: each new
#: measurement moves the per-signature EWMA 30% of the way to itself,
#: so the scheduler adapts within a few batches without letting one
#: noisy wall time dominate.
FEEDBACK_ALPHA = 0.3

#: Capacity of the observed-cost EWMA table. Shape signatures are
#: coarse, but a long-running server fed adversarial query text could
#: still mint unbounded distinct shapes — the table is LRU-bounded
#: (least-recently *updated* out first) so it cannot grow without
#: limit.
MAX_OBSERVED_SHAPES = 1024


def query_signature(
    engine: str, query: ExtendedBGP
) -> tuple[str, int, int, int]:
    """Shape signature under which observed wall times are aggregated.

    Queries with the same selected engine and the same triple /
    similarity-clause / distance-clause counts get one cost bucket:
    coarse enough that a server sees repeats, fine enough that Q1-style
    point lookups never share a bucket with Q5-style cycles.
    """
    return (
        engine,
        len(query.triples),
        len(query.clauses),
        len(query.dist_clauses),
    )


@dataclass(frozen=True)
class ScheduledQuery:
    """Classification of one batch member."""

    index: int
    route: str
    """``"pooled"`` (whole query in one worker) or ``"serial"``
    (evaluated in the scheduler's process: a pool of one)."""

    engine: str
    """Serial strategy selected by ``auto`` for this query."""

    estimate: int
    """Smallest per-variable candidate estimate — an upper bound on the
    first leapfrog level's size under either ordering, and the LPT
    weight of a shape nothing has been measured for."""

    signature: tuple[str, int, int, int] = ("", 0, 0, 0)
    """Shape bucket (:func:`query_signature`) that observed wall times
    of this query feed into — and are read back from when grouping."""


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
        #: EWMA of observed per-query seconds, keyed by shape signature
        #: and LRU-bounded at :data:`MAX_OBSERVED_SHAPES` (least
        #: recently updated shape evicted first).
        self._observed_s: OrderedDict[
            tuple[str, int, int, int], float
        ] = OrderedDict()
        #: EWMA of observed seconds per estimate unit, the bridge that
        #: prices still-unseen shapes in the same currency.
        self._seconds_per_unit: float | None = None

    # ------------------------------------------------------------------
    # measured-cost feedback
    # ------------------------------------------------------------------
    def record_elapsed(self, plan: ScheduledQuery, elapsed: float) -> None:
        """Fold one measured wall time into the cost model.

        Called for every pooled query a batch completes; harmless to
        call for anything else with a signature. Negative or zero
        times (a worker clock hiccup) are ignored.
        """
        if elapsed <= 0.0:
            return
        previous = self._observed_s.get(plan.signature)
        self._observed_s[plan.signature] = (
            elapsed
            if previous is None
            else previous + FEEDBACK_ALPHA * (elapsed - previous)
        )
        self._observed_s.move_to_end(plan.signature)
        while len(self._observed_s) > MAX_OBSERVED_SHAPES:
            self._observed_s.popitem(last=False)
        if plan.estimate > 0:
            unit = elapsed / plan.estimate
            self._seconds_per_unit = (
                unit
                if self._seconds_per_unit is None
                else self._seconds_per_unit
                + FEEDBACK_ALPHA * (unit - self._seconds_per_unit)
            )

    def observed_cost(self, plan: ScheduledQuery) -> float | None:
        """The EWMA seconds recorded for ``plan``'s shape, if any."""
        return self._observed_s.get(plan.signature)

    def _lpt_cost(self, plan: ScheduledQuery) -> float:
        """Predicted seconds used as the LPT grouping weight.

        Measured shapes use their EWMA directly; unmeasured ones are
        priced as ``estimate x seconds-per-unit`` so both kinds sort in
        one currency. Before any feedback exists the fallback is the
        raw estimate — exactly the original estimate-only LPT.
        """
        observed = self._observed_s.get(plan.signature)
        if observed is not None:
            return observed
        if self._seconds_per_unit is not None:
            return plan.estimate * self._seconds_per_unit
        return float(plan.estimate)

    def warmup(self) -> None:
        """Start the pool, flatten the database into shared memory and
        wait for every worker to attach — the one-time cost ``serve``
        pays before steady-state batches."""
        if self.workers >= 2:
            pool_for(self._db, self.workers).warmup()

    def close(self) -> None:
        """Release the pools (and their shm segments) for this
        scheduler's database."""
        close_pools_for(self._db)

    def classify(self, query: ExtendedBGP, index: int = 0) -> ScheduledQuery:
        """Select one query's strategy and weigh it by the serial
        engines' own estimates.

        The estimate is the minimum over variables of the smallest
        participating relation's ``estimate`` — the size the adaptive
        orderings minimize when choosing the first variable. The route
        does not depend on the query: a pool of one evaluates in this
        process, any larger pool runs every query whole in a worker.
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
        return ScheduledQuery(
            index=index,
            route="serial" if self.workers <= 1 else "pooled",
            engine=engine,
            estimate=estimate,
            signature=query_signature(engine, query),
        )

    def _group_pooled(
        self, plans: Sequence[ScheduledQuery]
    ) -> list[list[ScheduledQuery]]:
        """Pack pooled queries into per-round-trip groups, LPT-style.

        Sorting by descending predicted cost (:meth:`_lpt_cost` — the
        measured EWMA where feedback exists, the scaled estimate where
        it doesn't) and dealing round-robin spreads the expensive
        queries across groups (so no group serializes two heavy
        queries) while still amortizing dispatch over up to
        ``MAX_BATCH_SIZE`` queries per trip. Deterministic for a given
        feedback state: ties break on input index.
        """
        if not plans:
            return []
        n_groups = min(
            len(plans),
            max(2 * self.workers, math.ceil(len(plans) / MAX_BATCH_SIZE)),
        )
        ordered = sorted(plans, key=lambda p: (-self._lpt_cost(p), p.index))
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
        drains, with the shape's observed EWMA cost as its admission
        weight.
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
        plan_by_index = {plan.index: plan for plan in plans}

        # Fill the pool with grouped whole-query round trips through a
        # bounded pending window.
        pool = pool_for(self._db, self.workers)
        pending: list[object] = []

        def _drain(handle: object) -> None:
            outcomes: list[QueryOutcome] = handle.get()  # type: ignore[attr-defined]
            pool.reconcile(outcomes)
            for outcome in outcomes:
                result = _result_from_outcome(outcome)
                results[outcome.index] = result
                # Feed the measured wall time back into the LPT cost
                # model so later batches group by observed seconds.
                plan = plan_by_index[outcome.index]
                self.record_elapsed(plan, outcome.elapsed)
                if cache is not None:
                    cache.fill(
                        self._db,
                        queries[outcome.index],
                        result,
                        engine=plan.engine,
                        cost_s=self.observed_cost(plan),
                    )

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
            # its queries' timeouts; their own errors are not news),
            # then drop what was streamed.
            for handle in pending:
                handle.wait()  # type: ignore[attr-defined]
            pool.drop_pending_chunks()
            raise
        return [result for result in results if result is not None]


def _result_from_outcome(outcome: QueryOutcome) -> QueryResult:
    """Rehydrate a worker's :class:`QueryOutcome` into a QueryResult."""
    stats = EvaluationStats()
    stats.solutions = outcome.solutions_found
    stats.bindings = outcome.bindings
    stats.attempts = outcome.attempts
    stats.leap_calls = outcome.leap_calls
    stats.timed_out = outcome.timed_out
    stats.elapsed = outcome.elapsed
    solutions = Solutions(map(Var, outcome.var_names), outcome.packed)
    return QueryResult(outcome.engine, solutions, stats)
