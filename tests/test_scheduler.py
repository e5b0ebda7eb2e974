"""The batched query scheduler: classification, LPT grouping, a bounded
pending window, limits, and large results streamed back in chunks.

That ``QueryScheduler.run_batch`` hands back, in input order, the serial
``auto`` engine's solutions and counters — in a pool worker or in the
scheduler's own process (a pool of one) — is held with every other door
in ``tests/test_matrix.py``.

The pending window runs under fork and spawn, since it waits on the
pool's processes. The rest stay on the default method: classification
and grouping start no pool, a limit travels in the task whatever
started the worker, and the streaming tests patch the chunk size before
the pool forks, which a spawned worker would not see.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import _counts
from repro.cache import QueryCache
from repro.engines.auto import AutoEngine
from repro.parallel import worker
from repro.parallel.executor import (
    ENV_START_METHOD,
    close_pools_for,
    pool_for,
)
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var

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
    # The open two-variable scan is big on this graph, the
    # constant-subject probe is small: the LPT weight tells them apart.
    assert plans[0].estimate > plans[3].estimate > 0
    for plan in plans:
        assert plan.engine in ("ring-knn", "ring-knn-s")


def test_classify_serial_with_one_worker(small_db):
    # Where a query runs is the pool's size, not the query's plan.
    serial = QueryScheduler(small_db, workers=1).classify(BATCH[0])
    assert serial == QueryScheduler(small_db, workers=2).classify(BATCH[0])


def test_run_batch_bounded_pending_window(
    small_db, expected, monkeypatch, start_method
):
    # A pending window smaller than the batch forces mid-batch drains,
    # which wait on the pool's processes: under either start method.
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
# LPT grouping on the compiled estimate
# ----------------------------------------------------------------------
def test_lpt_groups_by_estimate(small_db):
    from repro.parallel.scheduler import ScheduledQuery

    scheduler = QueryScheduler(small_db, workers=1)
    plans = [
        ScheduledQuery(index=0, engine="ring-knn", estimate=1_000),
        ScheduledQuery(index=1, engine="ring-knn", estimate=10),
        ScheduledQuery(index=2, engine="ring-knn", estimate=500),
    ]
    groups = scheduler._group_pooled(plans)
    # Two groups (twice the pool): descending estimates dealt
    # round-robin, so the biggest leads the first group.
    assert [[plan.index for plan in group] for group in groups] == [
        [0, 1], [2]
    ]


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


#: Zero-variable queries over the conftest graph: one holds (its triple
#: is the graph's first), one does not.
HOLDS = ExtendedBGP([TriplePattern(18, 21, 13)])
FAILS = ExtendedBGP([TriplePattern(0, 999, 0)])


def test_streamed_result_equals_serial_row_for_row(
    small_db, expected, tiny_chunks, monkeypatch
):
    """Streamed answers are cut and joined back whole — the second
    query's three columns over a row count that is no multiple of the
    chunk size among them — and zero-variable answers come back through
    the pool and then through the cache, each equal to the serial
    answer."""
    streamed = []
    reconcile = tiny_chunks.reconcile

    def spy(outcomes):
        streamed.extend(o.n_chunks for o in outcomes if o.packed is None)
        reconcile(outcomes)

    monkeypatch.setattr(tiny_chunks, "reconcile", spy)
    batch = [*BATCH, HOLDS, FAILS]
    auto = AutoEngine(small_db)
    serial = [*expected, auto.evaluate(HOLDS), auto.evaluate(FAILS)]
    cut = serial[1].solutions
    assert len(cut.variables) == 3 and len(cut) % worker.CHUNK_SOLUTIONS
    assert [len(want.solutions) for want in serial[-2:]] == [1, 0]
    scheduler = QueryScheduler(small_db, workers=2, cache=QueryCache())
    pooled = scheduler.run_batch(batch)
    assert streamed and max(streamed) > 1
    cached = scheduler.run_batch(batch)
    assert not any(result.cached for result in pooled)
    assert all(result.cached for result in cached)
    for results in (pooled, cached):
        for got, want in zip(results, serial):
            assert got.solutions.variables == want.solutions.variables
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
