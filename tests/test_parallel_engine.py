"""The parallel-knn engine returns the serial engines' exact output.

The acceptance bar of the sharded executor: for pool sizes 1, 2 and 4
the ordered solution list — not just the multiset — equals the serial
base engine's, and so do the merged logical counters. Pool size 1 runs
the shards inline (no subprocess), 2 and 4 go through a real
multiprocessing pool.
"""

from __future__ import annotations

import pytest

from repro.engines.auto import AutoEngine
from repro.engines.parallel_knn import ParallelRingKnnEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var

X, Y, Z = Var("x"), Var("y"), Var("z")

QUERIES = [
    ExtendedBGP([TriplePattern(X, 20, Y)]),
    ExtendedBGP([TriplePattern(X, 20, Y), TriplePattern(Y, 21, Z)]),
    ExtendedBGP([TriplePattern(X, 20, Y)], clauses=[SimClause(X, 3, Y)]),
    ExtendedBGP(
        [TriplePattern(X, 20, Y), TriplePattern(Y, 21, Z)],
        clauses=[SimClause(X, 2, Z)],
    ),
    ExtendedBGP([TriplePattern(3, 20, Y)]),
    ExtendedBGP([TriplePattern(X, 22, X)]),
]

WORKER_COUNTS = (1, 2, 4)


def _stat_tuple(stats):
    return (
        stats.solutions,
        stats.bindings,
        stats.attempts,
        stats.leap_calls,
        stats.timed_out,
        [v.name for v in stats.first_descent_order],
    )


@pytest.mark.parametrize("base_cls", [RingKnnEngine, RingKnnSEngine])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_matches_serial_ordered(small_db, base_cls, workers):
    serial = base_cls(small_db)
    parallel = ParallelRingKnnEngine(
        small_db, workers=workers, base=base_cls.name
    )
    for query in QUERIES:
        expected = serial.evaluate(query)
        got = parallel.evaluate(query)
        assert got.engine == "parallel-knn"
        # Ordered equality: sharded merge preserves the serial order.
        assert got.solutions == expected.solutions, query
        assert _stat_tuple(got.stats) == _stat_tuple(expected.stats), query


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_project_distinct_limit(small_db, workers):
    serial = RingKnnEngine(small_db)
    parallel = ParallelRingKnnEngine(small_db, workers=workers)
    query = ExtendedBGP([TriplePattern(X, 20, Y), TriplePattern(Y, 21, Z)])
    for kwargs in (
        {"limit": 5},
        {"project": [X]},
        {"project": [X], "distinct": True},
        {"project": [X, Y], "distinct": True, "limit": 3},
        {"distinct": True, "limit": 4},
    ):
        expected = serial.evaluate(query, **kwargs)
        got = parallel.evaluate(query, **kwargs)
        assert got.solutions == expected.solutions, kwargs


def test_constant_query_falls_back_serial(small_db):
    # No variables -> nothing to shard; the serial fallback still
    # reports under the parallel engine's name.
    s, p, o = (int(v) for v in small_db.graph.spo[0])
    query = ExtendedBGP([TriplePattern(s, p, o)])
    parallel = ParallelRingKnnEngine(small_db, workers=2)
    result = parallel.evaluate(query)
    assert result.engine == "parallel-knn"
    assert result.solutions == RingKnnEngine(small_db).evaluate(query).solutions


def test_auto_routes_through_parallel(small_db):
    query = ExtendedBGP([TriplePattern(X, 20, Y)], clauses=[SimClause(X, 3, Y)])
    expected = AutoEngine(small_db).evaluate(query)
    got = AutoEngine(small_db, workers=2).evaluate(query)
    assert got.engine == "parallel-knn"
    assert got.solutions == expected.solutions
    assert _stat_tuple(got.stats) == _stat_tuple(expected.stats)
