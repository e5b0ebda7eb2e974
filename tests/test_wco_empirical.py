"""Empirical checks of the worst-case-optimality claims (Thms. 1-3).

The theorems bound the *time* by ``O(Q* |Q| log N)``; in our engine the
data-dependent part of the time is the number of elimination attempts.
These tests measure attempts on random instances and check they stay
within ``Q* * |Q| * (log2 N + 1) * C`` for a small constant ``C`` under
the orderings the theory covers — a sanity net catching order-of-
magnitude regressions in the search strategy.
"""

import math

import numpy as np
import pytest

from repro.bounds.constraint_graph import ConstraintGraph
from repro.bounds.linear_program import solve_size_bound
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph
from repro.query.parser import parse_query

SLACK = 4.0  # constant-factor headroom over the asymptotic bound


@pytest.fixture(scope="module", params=[0, 1, 2])
def random_db(request):
    rng = np.random.default_rng(request.param)
    n = 25
    triples = [
        (
            int(rng.integers(0, n)),
            int(60 + rng.integers(0, 3)),
            int(rng.integers(0, n)),
        )
        for _ in range(200)
    ]
    graph = GraphData(triples)
    points = rng.normal(size=(n, 3))
    knn = build_knn_graph(points, K=6)
    return GraphDatabase(graph, knn)


ACYCLIC_QUERIES = [
    "(?x, 60, ?y) . (?y, 61, ?z) . knn(?x, ?z, 4)",     # Example 4
    "(?x, 60, ?y) . knn(?x, ?w, 3) . knn(?w, ?v, 2)",   # chain
    "(?x, 60, ?y) . (?y, 60, ?z)",                      # plain BGP (Thm. 1)
]

SINGLE_2CYCLIC_QUERIES = [
    "(?x, 60, ?y) . sim(?x, ?y, 4)",
    "(?a, 60, ?x) . (?b, 61, ?y) . sim(?x, ?y, 3)",
]


def bound_on_attempts(db, query):
    bound = solve_size_bound(
        query, db.graph.num_edges, domain_size=max(db.graph.domain_size, 2)
    )
    size = len(query.atoms)
    logn = math.log2(max(db.graph.num_edges, 2)) + 1
    return SLACK * bound.q_star * size * logn


@pytest.mark.parametrize("text", ACYCLIC_QUERIES)
def test_acyclic_work_within_bound(random_db, text):
    query = parse_query(text)
    assert ConstraintGraph(query).is_acyclic()
    result = RingKnnEngine(random_db).evaluate(query, timeout=60)
    assert result.stats.attempts <= bound_on_attempts(random_db, query), (
        result.stats.attempts
    )


@pytest.mark.parametrize("text", SINGLE_2CYCLIC_QUERIES)
def test_single_2cyclic_work_within_bound(random_db, text):
    query = parse_query(text)
    graph = ConstraintGraph(query)
    assert not graph.is_acyclic() and graph.is_single_2_cyclic()
    result = RingKnnEngine(random_db).evaluate(query, timeout=60)
    assert result.stats.attempts <= bound_on_attempts(random_db, query)


def test_output_never_exceeds_q_star(random_db):
    for text in (*ACYCLIC_QUERIES, *SINGLE_2CYCLIC_QUERIES):
        query = parse_query(text)
        bound = solve_size_bound(
            query,
            random_db.graph.num_edges,
            domain_size=max(random_db.graph.domain_size, 2),
        )
        result = RingKnnEngine(random_db).evaluate(query, timeout=60)
        assert len(result.solutions) <= bound.q_star + 1e-6, text
