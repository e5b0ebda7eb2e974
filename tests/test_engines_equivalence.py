"""The central correctness property: all engines agree with brute force
on extended BGPs (Def. 5 semantics), across query shapes and data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.baseline import BaselineEngine
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.engines.database import GraphDatabase
from repro.graph.naive import evaluate_naive
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var
from repro.query.parser import parse_query


def canonical(solutions):
    return sorted(
        tuple(sorted((v.name, c) for v, c in s.items())) for s in solutions
    )


QUERIES = [
    # Sec. 3 shapes.
    "(?x, 20, ?y) . (?y, 21, ?z) . knn(?x, ?z, 3)",   # Example 4 triangle
    "(?x, 20, ?y) . knn(?x, ?y, 4)",
    "(?x, 20, ?y) . sim(?x, ?y, 5)",                   # 2-cycle
    "(?x, 20, ?y) . (?y, 20, ?z) . sim(?y, ?z, 2)",    # Example 3 shape
    # Chains and triangles of constraints (Q2/Q2t shapes).
    "(?a, 20, ?x) . (?b, 20, ?y) . (?c, 20, ?z) . knn(?x, ?y, 3) . knn(?y, ?z, 3)",
    "(?a, 20, ?x) . (?b, 20, ?y) . knn(?x, ?y, 2) . knn(?y, ?x, 2)",
    # Unsafe / clause-only variables.
    "(?x, 20, ?y) . knn(?y, ?w, 2)",
    "(?x, 20, ?y) . knn(?w, ?y, 2)",
    # Constants in clauses.
    "(?x, 20, 5) . knn(3, ?x, 5)",
    "(?x, 20, ?y) . knn(?x, 7, 5)",
    # Repeated variables.
    "(?x, 22, ?x) . knn(?x, ?y, 3)",
    # Lonely variables alongside similarity (Q5 shape).
    "(?x, 20, ?y) . knn(?x, ?y2, 3) . (?y2, ?l1, ?l2)",
]


@pytest.fixture(scope="module")
def db_and_graph():
    rng = np.random.default_rng(7)
    triples = [
        (
            int(rng.integers(0, 20)),
            int(20 + rng.integers(0, 3)),
            int(rng.integers(0, 20)),
        )
        for _ in range(120)
    ]
    graph = GraphData(triples)
    points = np.random.default_rng(11).normal(size=(20, 2))
    knn = build_knn_graph(points, K=5)
    return GraphDatabase(graph, knn), graph, knn


@pytest.mark.parametrize("text", QUERIES)
def test_all_engines_match_naive(db_and_graph, text):
    db, graph, knn = db_and_graph
    query = parse_query(text)
    expected = canonical(evaluate_naive(query, graph, knn))
    for engine_cls in (RingKnnEngine, RingKnnSEngine, MaterializeEngine):
        result = engine_cls(db).evaluate(query)
        assert result.sorted_solutions() == expected, engine_cls.__name__
    # Baseline supports only connected clause graphs; all QUERIES are.
    result = BaselineEngine(db).evaluate(query)
    assert result.sorted_solutions() == expected


def test_engines_agree_on_empty_answers(db_and_graph):
    db, _graph, _knn = db_and_graph
    query = parse_query("(?x, 19, ?y) . knn(?x, ?y, 3)")  # unused predicate
    for engine_cls in (RingKnnEngine, RingKnnSEngine, BaselineEngine):
        assert engine_cls(db).evaluate(query).solutions == []


def test_k_larger_than_K_rejected(db_and_graph):
    db, _graph, _knn = db_and_graph
    from repro.utils.errors import QueryError

    query = parse_query("(?x, 20, ?y) . knn(?x, ?y, 50)")
    with pytest.raises(QueryError):
        RingKnnEngine(db).evaluate(query)


def test_clause_without_knn_graph_rejected(db_and_graph):
    _db, graph, _knn = db_and_graph
    from repro.utils.errors import QueryError

    bare = GraphDatabase(graph)
    query = parse_query("(?x, 20, ?y) . knn(?x, ?y, 2)")
    with pytest.raises(QueryError):
        RingKnnEngine(bare).evaluate(query)


def test_plain_bgp_still_works_via_all_engines(db_and_graph):
    db, graph, knn = db_and_graph
    query = parse_query("(?x, 20, ?y) . (?y, 21, ?z)")
    expected = canonical(evaluate_naive(query, graph, knn))
    for engine_cls in (RingKnnEngine, RingKnnSEngine, BaselineEngine):
        assert engine_cls(db).evaluate(query).sorted_solutions() == expected


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_random_extended_bgps_property(data):
    """Random graphs + random extended BGPs: both Ring engines equal
    brute force (the baseline is covered when clauses stay connected)."""
    rng_seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    n_nodes = 10
    triples = [
        (
            int(rng.integers(0, n_nodes)),
            int(50 + rng.integers(0, 2)),
            int(rng.integers(0, n_nodes)),
        )
        for _ in range(40)
    ]
    graph = GraphData(triples)
    points = rng.normal(size=(n_nodes, 2))
    knn = build_knn_graph(points, K=3)
    db = GraphDatabase(graph, knn)

    variables = [Var("x"), Var("y"), Var("z")]
    patterns = []
    for _ in range(data.draw(st.integers(1, 2))):
        s = data.draw(st.sampled_from(variables + [0, 3]))
        p = data.draw(st.sampled_from([50, 51]))
        o = data.draw(st.sampled_from(variables + [1, 5]))
        patterns.append(TriplePattern(s, p, o))
    pattern_vars = sorted(
        {v for t in patterns for v in t.variables}, key=lambda v: v.name
    )
    clauses = []
    if len(pattern_vars) >= 2:
        a, b = pattern_vars[0], pattern_vars[1]
        k = data.draw(st.integers(1, 3))
        clauses.append(SimClause(a, k, b))
        if data.draw(st.booleans()):
            clauses.append(SimClause(b, k, a))
    if not clauses:
        first = pattern_vars[0] if pattern_vars else 0
        clauses.append(SimClause(first, 2, Var("w")))
    query = ExtendedBGP(patterns, clauses)
    expected = canonical(evaluate_naive(query, graph, knn))
    from repro.engines.classic import ClassicSixPermEngine

    for engine_cls in (RingKnnEngine, RingKnnSEngine, ClassicSixPermEngine):
        got = engine_cls(db).evaluate(query).sorted_solutions()
        assert got == expected, (rng_seed, engine_cls.__name__, query)
