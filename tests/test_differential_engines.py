"""Differential testing: every engine agrees with brute force on
small random graphs, on hand-picked query shapes.

The pool of databases (small graphs with K-NN and distance structures)
and the random extended BGP strategy — triples with mixed
variables/constants, ``<|_k`` clauses (including 2-cycles, 3-cycles
and constants), ``dist`` clauses — live here; ``tests/test_matrix.py``
runs the random queries through every door against
:func:`repro.graph.naive.evaluate_naive`. This module holds the shapes
the generator hits only by chance, and the short-range threshold.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines.auto import AutoEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.graph.naive import evaluate_naive
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.distance_index import DistanceRangeIndex
from repro.obs.trace import QueryTrace, attach_wavelets, wavelet_targets
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import (
    DistClause,
    ExtendedBGP,
    SimClause,
    TriplePattern,
    Var,
    is_var,
    sym_clauses,
)
from repro.succinct import wavelet_tree

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

    # A clause may instead close a cycle over earlier ones: back along an
    # edge (a 2-cycle) or from the end of a two-edge path (a 3-cycle).
    sim_clauses: list[SimClause] = []
    for _ in range(draw(st.integers(0, 4))):
        edges = [
            (c.x, c.y) for c in sim_clauses if is_var(c.x) and is_var(c.y)
        ]
        closing = [(b, a) for a, b in edges] + [
            (c, a) for a, b in edges for b2, c in edges if b == b2 and c != a
        ]
        if closing and draw(st.booleans()):
            x, y = draw(st.sampled_from(closing))
        else:
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


# ----------------------------------------------------------------------
# Shapes that stress how the engine's plan shares variables between
# atoms: a variable occupying two coordinates of one pattern (constant
# and variable predicate), and two clauses over the same pair of
# variables. The random generator above hits them only by chance.
# ----------------------------------------------------------------------
def _shared_variable_shapes() -> dict[str, ExtendedBGP]:
    x, y, z, p = Var("x"), Var("y"), Var("z"), Var("p")
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
        # Q2b's and Q2t's constraint graphs: beyond Thm. 2/3's premises.
        "two-2-cycles-chain": ExtendedBGP(
            [TriplePattern(x, 50, p)],
            [*sym_clauses(x, K, y), *sym_clauses(y, K, z)],
        ),
        "3-cycle": ExtendedBGP(
            [TriplePattern(x, 50, p)],
            [SimClause(x, K, y), SimClause(y, K, z), SimClause(z, K, x)],
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


# ----------------------------------------------------------------------
# ``WaveletTree.seeker`` answers a leap over a short range from the
# range's memoized report and a longer one by descending. The threshold
# decides how a leap is answered, never what it answers or what it
# counts: at 0 every leap over a non-empty range descends, above any
# range every leap bisects.
# Wavelet counters are attached without a trace, so the relations leap
# through their seekers (a traced relation leaps through ``leap``).
# ----------------------------------------------------------------------
THRESHOLDS = (0, wavelet_tree._SHORT, 1 << 62)


def _run_at_threshold(engine_cls, db, query, short):
    trace = QueryTrace()
    with mock.patch.object(wavelet_tree, "_SHORT", short):
        with attach_wavelets(wavelet_targets(trace, db, query)):
            result = engine_cls(db).evaluate(query)
        traced = QueryTrace()
        engine_cls(db).evaluate(query, trace=traced)
    ops = {name: c.as_dict() for name, c in sorted(trace.wavelets.items())}
    traced_ops = {
        name: c.as_dict() for name, c in sorted(traced.wavelets.items())
    }
    stats = dataclasses.replace(result.stats, elapsed=0.0)
    return result.solutions, stats, ops, traced_ops


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_short_range_threshold_changes_no_answer_and_no_count(data):
    db = _POOL[data.draw(st.integers(0, len(_POOL) - 1), label="db")][0]
    query = data.draw(extended_bgps(), label="query")
    for engine_cls in (RingKnnEngine, RingKnnSEngine, AutoEngine):
        runs = [
            _run_at_threshold(engine_cls, db, query, short)
            for short in THRESHOLDS
        ]
        assert runs[0] == runs[1] == runs[2], (engine_cls.name, query)
