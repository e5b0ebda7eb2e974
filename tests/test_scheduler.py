"""The batched query scheduler: classification, limits, replies longer
than a pipe message's worth of rows, and a query that raises in its
worker.

That ``QueryScheduler.run_batch`` hands back, in input order, the serial
``auto`` engine's solutions and counters — in a pool worker or in the
scheduler's own process (a pool of one) — is held with every other door
in ``tests/test_matrix.py``. These stay on the default start method:
classification starts no pool, and a limit, a long reply and a task's
exception travel the same way whatever started the worker.
"""

from __future__ import annotations

import pytest

from conftest import _counts
from repro.cache import QueryCache
from repro.engines.auto import AutoEngine
from repro.parallel.executor import pool_for
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var
from repro.query.parser import parse_query
from repro.utils.errors import QueryError

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
    plans = [scheduler.classify(q) for q in BATCH]
    # The open two-variable scan is big on this graph, the
    # constant-subject probe is small: the estimate tells them apart.
    assert plans[0].estimate > plans[3].estimate > 0
    for plan in plans:
        assert plan.engine in ("ring-knn", "ring-knn-s")


def test_classify_serial_with_one_worker(small_db):
    # Where a query runs is the pool's size, not the query's plan.
    serial = QueryScheduler(small_db, workers=1).classify(BATCH[0])
    assert serial == QueryScheduler(small_db, workers=2).classify(BATCH[0])


def test_run_batch_respects_limit(small_db):
    auto = AutoEngine(small_db)
    scheduler = QueryScheduler(small_db, workers=2)
    results = scheduler.run_batch(BATCH, limit=3)
    for got, query in zip(results, BATCH):
        want = auto.evaluate(query, limit=3)
        assert got.solutions == want.solutions
        assert len(got.solutions) <= 3


#: Zero-variable queries over the conftest graph: one holds (its triple
#: is the graph's first), one does not.
HOLDS = ExtendedBGP([TriplePattern(18, 21, 13)])
FAILS = ExtendedBGP([TriplePattern(0, 999, 0)])

#: Two independent K-NN scans at the graph's K: 100 x 100 rows of four
#: columns, longer than the 8,192 rows a reply once streamed in chunks.
LONG = parse_query("knn(?a, ?b, 5) . knn(?c, ?d, 5)")


def test_long_reply_equals_serial_row_for_row(small_db, expected):
    """A reply of 10,000 rows comes back whole, and zero-variable
    answers come back through the pool and then through the cache, each
    equal to the serial answer."""
    batch = [*BATCH, LONG, HOLDS, FAILS]
    auto = AutoEngine(small_db)
    serial = [*expected, *(auto.evaluate(q) for q in (LONG, HOLDS, FAILS))]
    assert len(serial[-3].solutions) == 10_000
    assert [len(want.solutions) for want in serial[-2:]] == [1, 0]
    scheduler = QueryScheduler(small_db, workers=2, cache=QueryCache())
    pooled = scheduler.run_batch(batch)
    cached = scheduler.run_batch(batch)
    assert not any(result.cached for result in pooled)
    assert all(result.cached for result in cached)
    for results in (pooled, cached):
        for got, want in zip(results, serial):
            assert got.solutions.variables == want.solutions.variables
            assert got.solutions == want.solutions
            assert _counts(got.stats) == _counts(want.stats)


def test_query_raising_in_its_worker_fails_the_batch_not_the_pool(
    small_db, expected
):
    """A query the index refuses (k above the K-NN graph's K) raises in
    its worker: the batch fails with that error, the pool keeps its
    workers, and the next batch is answered right on them."""
    scheduler = QueryScheduler(small_db, workers=2)
    scheduler.warmup()
    pool = pool_for(small_db, 2)
    pids = sorted(process.pid for process in pool.processes)
    refused = parse_query("knn(?a, ?b, 9)")
    with pytest.raises(QueryError, match="k=9"):
        scheduler.run_batch([BATCH[0], refused, BATCH[1]])
    results = scheduler.run_batch(BATCH)
    for got, want in zip(results, expected):
        assert got.solutions == want.solutions
    assert sorted(process.pid for process in pool.processes) == pids
