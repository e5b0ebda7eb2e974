"""Differential testing: every engine agrees with brute force on
randomly generated graphs and extended BGPs.

Hypothesis draws a database from a prebuilt pool (small graphs with
K-NN and distance structures) and a random extended BGP — triples with
mixed variables/constants, ``<|_k`` clauses (including 2-cycles and
constants), ``dist`` clauses — and checks that all engines return the
same solution multiset as :func:`repro.graph.naive.evaluate_naive`.

The unmarked test keeps CI fast; the ``slow``-marked test runs the
full generation budget (deselect with ``-m "not slow"``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines.auto import AutoEngine
from repro.engines.baseline import BaselineEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.database import GraphDatabase
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.graph.naive import evaluate_naive
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.distance_index import DistanceRangeIndex
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import (
    DistClause,
    ExtendedBGP,
    SimClause,
    TriplePattern,
    Var,
)
from repro.utils.errors import QueryError

N_NODES = 10
K = 3
D_MAX = 1.5
PREDICATES = (50, 51)
VARS = (Var("x"), Var("y"), Var("z"), Var("w"))


def canonical(solutions):
    return sorted(
        tuple(sorted((v.name, c) for v, c in s.items())) for s in solutions
    )


def _build_instance(seed: int):
    rng = np.random.default_rng(seed)
    triples = [
        (
            int(rng.integers(0, N_NODES)),
            int(rng.choice(PREDICATES)),
            int(rng.integers(0, N_NODES)),
        )
        for _ in range(30)
    ]
    graph = GraphData(triples)
    points = rng.normal(size=(N_NODES, 2))
    knn = build_knn_graph_bruteforce(points, K=K)
    index = DistanceRangeIndex(points, d_max=D_MAX)
    distances = {
        (i, j): float(np.linalg.norm(points[i] - points[j]))
        for i in range(N_NODES)
        for j in range(i + 1, N_NODES)
    }
    db = GraphDatabase(graph, knn, distance_index=index)
    return db, graph, knn, distances


# A small pool so hypothesis varies the data too, without paying index
# construction per example.
_POOL = [_build_instance(seed) for seed in (3, 17, 91)]


@st.composite
def extended_bgps(draw) -> ExtendedBGP:
    """A random extended BGP over the pool databases' vocabulary."""
    terms = list(VARS) + [0, 3, 7]
    triples = [
        TriplePattern(
            draw(st.sampled_from(terms)),
            draw(st.sampled_from(PREDICATES)),
            draw(st.sampled_from(terms)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    # Clause sides: variables (shared with the triples or fresh) and
    # the occasional constant; Def. 5 requires x != y.
    sides = list(VARS) + [2, 5]

    def side_pair():
        x = draw(st.sampled_from(sides))
        y = draw(st.sampled_from([s for s in sides if s != x]))
        return x, y

    sim_clauses = []
    for _ in range(draw(st.integers(0, 2))):
        x, y = side_pair()
        sim_clauses.append(SimClause(x, draw(st.integers(1, K)), y))
    dist_clauses = []
    for _ in range(draw(st.integers(0, 1))):
        x, y = side_pair()
        dist_clauses.append(
            DistClause(x, draw(st.sampled_from([0.4, 0.9, D_MAX])), y)
        )
    if not triples and not sim_clauses and not dist_clauses:
        sim_clauses.append(SimClause(Var("x"), 2, Var("y")))
    return ExtendedBGP(triples, sim_clauses, dist_clauses)


def _check_one(data) -> None:
    db, graph, knn, distances = _POOL[
        data.draw(st.integers(0, len(_POOL) - 1), label="db")
    ]
    query = data.draw(extended_bgps(), label="query")
    expected = canonical(evaluate_naive(query, graph, knn, distances))

    for engine in (
        RingKnnEngine(db),
        RingKnnSEngine(db),
        ClassicSixPermEngine(db),
        AutoEngine(db),
    ):
        got = engine.evaluate(query).sorted_solutions()
        assert got == expected, (engine.name, query)

    # The pool (the path `repro serve` runs) must not only agree with
    # the oracle but reproduce the serial solution *order* exactly.
    serial = AutoEngine(db).evaluate(query)
    (pooled,) = QueryScheduler(db, workers=2).run_batch([query])
    assert pooled.sorted_solutions() == expected, ("pooled", query)
    assert pooled.solutions == serial.solutions, ("pooled", query)

    # The baseline rejects clause graphs disconnected from the triples
    # (the paper's Sec. 5.3 restriction) — only compare when supported.
    try:
        got = BaselineEngine(db).evaluate(query).sorted_solutions()
    except QueryError:
        pass
    else:
        assert got == expected, ("baseline", query)

    # The materialization strawman covers <|_k clauses only.
    if not query.dist_clauses:
        got = MaterializeEngine(db).evaluate(query).sorted_solutions()
        assert got == expected, ("materialize", query)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_differential_engines_quick(data):
    """CI-sized slice of the differential property."""
    _check_one(data)


@pytest.mark.slow
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_differential_engines_thorough(data):
    """The full local budget (>= 200 generated queries)."""
    _check_one(data)


# ----------------------------------------------------------------------
# Shapes that stress how the engine's plan shares variables between
# atoms: a variable occupying two coordinates of one pattern (constant
# and variable predicate), and two clauses over the same pair of
# variables. The random generator above hits them only by chance.
# ----------------------------------------------------------------------
def _shared_variable_shapes() -> dict[str, ExtendedBGP]:
    x, y, p = Var("x"), Var("y"), Var("p")
    return {
        "loop-const-predicate": ExtendedBGP(
            [TriplePattern(x, 50, x), TriplePattern(x, 51, y)]
        ),
        "loop-var-predicate": ExtendedBGP([TriplePattern(x, p, x)]),
        "knn-2-cycle": ExtendedBGP(
            [], [SimClause(x, K, y), SimClause(y, K, x)]
        ),
        "loop-inside-knn-2-cycle": ExtendedBGP(
            [TriplePattern(x, p, x)],
            [SimClause(x, K, y), SimClause(y, K, x)],
        ),
    }


def _projected(solutions, variables):
    return sorted({tuple(s[v] for v in variables) for s in solutions})


@pytest.mark.parametrize("shape", sorted(_shared_variable_shapes()))
def test_shared_variable_shapes(shape):
    query = _shared_variable_shapes()[shape]
    x = Var("x")
    answered = 0
    for db, graph, knn, distances in _POOL:
        truth = evaluate_naive(query, graph, knn, distances)
        expected = canonical(truth)
        answered += bool(expected)
        serial = RingKnnEngine(db)
        everyone = (
            serial,
            RingKnnSEngine(db),
            ClassicSixPermEngine(db),
            AutoEngine(db),
        )
        for engine in everyone:
            assert engine.evaluate(query).sorted_solutions() == expected, (
                engine.name, shape)
            # limit: that many genuine answers, no more.
            cap = max(1, len(expected) // 2)
            limited = engine.evaluate(query, limit=cap)
            assert len(limited.solutions) == min(cap, len(expected))
            assert set(limited.sorted_solutions()) <= set(expected)
            # timeout=0: a flagged (possibly empty) prefix, never a raise.
            expired = engine.evaluate(query, timeout=0)
            assert expired.timed_out, (engine.name, shape)
            assert set(expired.sorted_solutions()) <= set(expected)
        for engine in everyone:
            if isinstance(engine, (ClassicSixPermEngine, AutoEngine)):
                continue  # no projection surface
            got = engine.evaluate(query, project=[x], distinct=True)
            assert _projected(got.solutions, [x]) == _projected(truth, [x])
            assert len(got.solutions) == len(_projected(truth, [x]))
        # The pool: the same answers, the serial engine's first two
        # under a limit, a flagged prefix under a spent budget.
        scheduler = QueryScheduler(db, workers=2)
        (pooled,) = scheduler.run_batch([query])
        assert pooled.sorted_solutions() == expected, ("pooled", shape)
        (limited,) = scheduler.run_batch([query], limit=2)
        assert (
            limited.solutions
            == AutoEngine(db).evaluate(query, limit=2).solutions
        )
        (expired,) = scheduler.run_batch([query], timeout=0)
        assert expired.timed_out, ("pooled", shape)
        assert set(expired.sorted_solutions()) <= set(expected)
    assert answered, f"{shape} has no answer on any pool database"


# ----------------------------------------------------------------------
# Shapes that decide how the last variable of a branch is emitted: it is
# never bound, so whatever its atoms' ``leap`` (or ``values``) returns
# goes straight into the answer. One shape per source of candidates —
# a leapfrog over two atoms, a repeated variable's probe loop, one range
# report over ``D``, and a query whose first level is its last.
# ----------------------------------------------------------------------
def _last_variable_shapes() -> dict[str, ExtendedBGP]:
    x, y, w = Var("x"), Var("y"), Var("w")
    return {
        "last-in-two-atoms": ExtendedBGP(
            [TriplePattern(x, 50, y)], [SimClause(x, K, y)]
        ),
        "last-repeated": ExtendedBGP(
            [TriplePattern(y, 51, x), TriplePattern(x, 50, x)]
        ),
        "last-dist-side": ExtendedBGP(
            [TriplePattern(x, 50, y)], dist_clauses=[DistClause(y, 0.9, w)]
        ),
        "only-variable-triple": ExtendedBGP([TriplePattern(3, 50, x)]),
        "only-variable-loop": ExtendedBGP([TriplePattern(x, 50, x)]),
        "only-variable-knn": ExtendedBGP([], [SimClause(5, K, x)]),
        "only-variable-dist": ExtendedBGP(
            [], dist_clauses=[DistClause(x, D_MAX, 2)]
        ),
    }


def _counters(stats):
    return (stats.solutions, stats.bindings, stats.attempts, stats.leap_calls)


@pytest.mark.parametrize("shape", sorted(_last_variable_shapes()))
def test_last_variable_shapes(shape):
    query = _last_variable_shapes()[shape]
    answered = 0
    for db, graph, knn, distances in _POOL:
        expected = canonical(evaluate_naive(query, graph, knn, distances))
        answered += bool(expected)
        serial = RingKnnEngine(db).evaluate(query)
        for engine in (RingKnnSEngine(db), ClassicSixPermEngine(db), AutoEngine(db)):
            assert engine.evaluate(query).sorted_solutions() == expected, (
                engine.name, shape)
        assert serial.sorted_solutions() == expected, shape
        # A pool worker: the same rows in the same order, the same
        # counters.
        auto = AutoEngine(db).evaluate(query)
        (pooled,) = QueryScheduler(db, workers=2).run_batch([query])
        assert pooled.solutions == auto.solutions, shape
        assert _counters(pooled.stats) == _counters(auto.stats), shape
    assert answered, f"{shape} has no answer on any pool database"
