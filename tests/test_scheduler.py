"""The batched query scheduler returns serial-identical results.

``QueryScheduler.run_batch`` must hand back, in input order, exactly
the :class:`QueryResult` solutions the serial ``auto`` engine produces
for each query — whether it was multiplexed whole into a pool worker or
evaluated in the scheduler's own process (a pool of one).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engines.auto import AutoEngine
from repro.parallel import worker
from repro.parallel.executor import (
    ENV_START_METHOD,
    close_pools_for,
    pool_for,
)
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var
from tests.test_parallel_shm import _counts

X, Y, Z = Var("x"), Var("y"), Var("z")

BATCH = [
    ExtendedBGP([TriplePattern(X, 20, Y)]),
    ExtendedBGP([TriplePattern(X, 20, Y), TriplePattern(Y, 21, Z)]),
    ExtendedBGP([TriplePattern(X, 20, Y)], clauses=[SimClause(X, 3, Y)]),
    ExtendedBGP([TriplePattern(3, 20, Y)]),
    ExtendedBGP(
        [TriplePattern(X, 20, Y), TriplePattern(Y, 21, Z)],
        clauses=[SimClause(X, 2, Z)],
    ),
    ExtendedBGP([TriplePattern(X, 22, X)]),
]


@pytest.fixture(scope="module")
def expected(small_db):
    auto = AutoEngine(small_db)
    return [auto.evaluate(query) for query in BATCH]


def test_classify_pools_every_query_and_weighs_it(small_db):
    scheduler = QueryScheduler(small_db, workers=2)
    plans = [scheduler.classify(q, i) for i, q in enumerate(BATCH)]
    assert [plan.index for plan in plans] == list(range(len(BATCH)))
    assert {plan.route for plan in plans} == {"pooled"}
    # The open two-variable scan is big on this graph, the
    # constant-subject probe is small: the LPT weight tells them apart.
    assert plans[0].estimate > plans[3].estimate > 0
    for plan in plans:
        assert plan.engine in ("ring-knn", "ring-knn-s")


def test_classify_serial_with_one_worker(small_db):
    scheduler = QueryScheduler(small_db, workers=1)
    assert scheduler.classify(BATCH[0]).route == "serial"


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_batch_matches_serial(small_db, expected, workers):
    # Serial order, serial counters — in this process or in a worker.
    scheduler = QueryScheduler(small_db, workers=workers)
    results = scheduler.run_batch(BATCH)
    assert len(results) == len(BATCH)
    for got, want in zip(results, expected):
        assert got.solutions == want.solutions
        assert got.engine == want.engine
        assert _counts(got.stats) == _counts(want.stats)


def test_run_batch_serial_pool_of_one(small_db, expected):
    results = QueryScheduler(small_db, workers=1).run_batch(BATCH)
    for got, want in zip(results, expected):
        assert got.solutions == want.solutions
        assert got.engine == want.engine


def test_run_batch_bounded_pending_window(small_db, expected, monkeypatch):
    # A pending window smaller than the batch forces mid-batch drains.
    import repro.parallel.scheduler as scheduler_module

    monkeypatch.setattr(scheduler_module, "PENDING_PER_WORKER", 1)
    scheduler = QueryScheduler(small_db, workers=2)
    big_batch = BATCH * 3
    results = scheduler.run_batch(big_batch)
    assert len(results) == len(big_batch)
    for got, want in zip(results, expected * 3):
        assert got.solutions == want.solutions


def test_run_batch_respects_limit(small_db):
    auto = AutoEngine(small_db)
    scheduler = QueryScheduler(small_db, workers=2)
    results = scheduler.run_batch(BATCH, limit=3)
    for got, query in zip(results, BATCH):
        want = auto.evaluate(query, limit=3)
        assert got.solutions == want.solutions
        assert len(got.solutions) <= 3


# ----------------------------------------------------------------------
# measured-cost feedback into LPT grouping
# ----------------------------------------------------------------------
def _plan(index, estimate, signature):
    from repro.parallel.scheduler import ScheduledQuery

    return ScheduledQuery(
        index=index,
        route="pooled",
        engine="ring-knn",
        estimate=estimate,
        signature=signature,
    )


def test_lpt_cost_falls_back_to_estimate(small_db):
    scheduler = QueryScheduler(small_db, workers=2)
    plan = scheduler.classify(BATCH[0])
    assert plan.signature[0] == plan.engine
    assert scheduler.observed_cost(plan) is None
    assert scheduler._lpt_cost(plan) == float(plan.estimate)


def test_record_elapsed_is_an_ewma(small_db):
    from repro.parallel.scheduler import FEEDBACK_ALPHA

    scheduler = QueryScheduler(small_db, workers=2)
    plan = _plan(0, 100, ("ring-knn", 1, 0, 0))
    scheduler.record_elapsed(plan, 2.0)
    assert scheduler.observed_cost(plan) == 2.0
    scheduler.record_elapsed(plan, 4.0)
    assert scheduler.observed_cost(plan) == pytest.approx(
        2.0 + FEEDBACK_ALPHA * 2.0
    )
    # Non-positive measurements (clock hiccups) are ignored.
    scheduler.record_elapsed(plan, 0.0)
    assert scheduler.observed_cost(plan) == pytest.approx(
        2.0 + FEEDBACK_ALPHA * 2.0
    )


def test_feedback_reorders_lpt_grouping(small_db):
    scheduler = QueryScheduler(small_db, workers=1)
    cheap_shape = ("ring-knn", 1, 0, 0)
    heavy_shape = ("ring-knn", 2, 1, 0)
    # The estimates say plan 0 is the big one...
    plans = [
        _plan(0, 1_000, cheap_shape),
        _plan(1, 10, heavy_shape),
        _plan(2, 500, cheap_shape),
    ]
    before = scheduler._group_pooled(plans)
    assert before[0][0].index == 0
    # ...but measurement says the low-estimate shape dominates.
    scheduler.record_elapsed(plans[0], 0.001)
    scheduler.record_elapsed(plans[1], 5.0)
    after = scheduler._group_pooled(plans)
    assert after[0][0].index == 1
    # The unmeasured sibling of the cheap shape rides its EWMA too.
    assert scheduler._lpt_cost(plans[2]) == pytest.approx(0.001)


def test_run_batch_feeds_observed_costs_back(small_db, expected):
    scheduler = QueryScheduler(small_db, workers=2)
    try:
        results = scheduler.run_batch(BATCH)
    finally:
        scheduler.close()
    for got, want in zip(results, expected):
        assert got.solutions == want.solutions
    # Every query was pooled, so every shape got a
    # measured cost and the estimate-to-seconds bridge is primed.
    plans = [scheduler.classify(q, i) for i, q in enumerate(BATCH)]
    assert all(scheduler.observed_cost(p) is not None for p in plans)
    assert scheduler._seconds_per_unit is not None


# ----------------------------------------------------------------------
# large results stream back in chunks
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_chunks(small_db, monkeypatch):
    """A fresh forked pool whose workers stream anything over 4 rows
    (the constant is read in the worker, so it must be lowered before
    the pool forks — and a spawned worker would re-import the default)."""
    monkeypatch.setenv(ENV_START_METHOD, "fork")
    monkeypatch.setattr(worker, "CHUNK_SOLUTIONS", 4)
    close_pools_for(small_db)
    yield pool_for(small_db, 2)
    close_pools_for(small_db)


def test_streamed_result_equals_serial_row_for_row(
    small_db, expected, tiny_chunks, monkeypatch
):
    streamed = []
    reconcile = tiny_chunks.reconcile

    def spy(outcomes):
        streamed.extend(o.n_chunks for o in outcomes if o.packed is None)
        reconcile(outcomes)

    monkeypatch.setattr(tiny_chunks, "reconcile", spy)
    results = QueryScheduler(small_db, workers=2).run_batch(BATCH)
    assert streamed and max(streamed) > 1
    for got, want in zip(results, expected):
        assert got.solutions == want.solutions
        assert _counts(got.stats) == _counts(want.stats)
    assert tiny_chunks._chunk_buf == {}


def test_failed_batch_leaves_no_chunks_behind(
    small_db, expected, tiny_chunks, monkeypatch
):
    scheduler = QueryScheduler(small_db, workers=2)
    classify = scheduler.classify

    def misnamed(query, index=0):
        plan = classify(query, index)
        if query is BATCH[3]:
            plan = dataclasses.replace(plan, engine="no-such-engine")
        return plan

    # One task names an engine no worker knows; its siblings stream.
    with monkeypatch.context() as patch:
        patch.setattr(scheduler, "classify", misnamed)
        with pytest.raises(KeyError):
            scheduler.run_batch(BATCH)
    assert tiny_chunks._chunk_buf == {}
    # The same pool, the next batch: right answers, nothing stale.
    results = scheduler.run_batch(BATCH)
    for got, want in zip(results, expected):
        assert got.solutions == want.solutions
    assert tiny_chunks._chunk_buf == {}
