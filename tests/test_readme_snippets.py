"""The documentation's code snippets must actually run.

Executes the README quickstart and the `repro` package docstring
example so documentation rot fails CI.
"""

from collections.abc import Sequence

import numpy as np


def test_package_docstring_example():
    from repro import (
        GraphData,
        GraphDatabase,
        RingKnnEngine,
        build_knn_graph,
        parse_query,
    )

    graph = GraphData([(0, 9, 1), (1, 9, 2), (2, 9, 3)])
    points = np.random.default_rng(0).normal(size=(4, 2))
    knn = build_knn_graph(points, K=2)
    db = GraphDatabase(graph, knn)
    result = RingKnnEngine(db).evaluate(
        parse_query("(?x, 9, ?y) . knn(?x, ?y, 2)")
    )
    assert isinstance(result.solutions, Sequence)
    assert result.solutions == list(result.solutions)


def test_readme_quickstart():
    from repro import (
        GraphData,
        GraphDatabase,
        RingKnnEngine,
        build_knn_graph,
        parse_query,
    )

    graph = GraphData([(0, 9, 1), (1, 9, 2), (2, 9, 3), (3, 9, 0)])
    points = np.random.default_rng(0).normal(size=(4, 8))
    knn = build_knn_graph(points, K=2)
    db = GraphDatabase(graph, knn)
    query = parse_query("(?x, 9, ?y) . knn(?x, ?y, 2)")
    result = RingKnnEngine(db).evaluate(query)
    assert result.stats.bindings >= len(result.solutions)


def test_usage_doc_multi_relation_snippet():
    from repro import GraphData, GraphDatabase, RingKnnEngine, parse_query
    from repro.knn.builders import build_knn_graph_bruteforce

    rng = np.random.default_rng(1)
    graph = GraphData([(i, 7, (i + 1) % 8) for i in range(8)])
    g1 = build_knn_graph_bruteforce(rng.normal(size=(8, 2)), K=3)
    g2 = build_knn_graph_bruteforce(rng.normal(size=(8, 5)), K=3)
    db = GraphDatabase(graph, knn_graphs={"tonality": g1, "lyrics": g2})
    q = parse_query(
        "(?x, 7, ?y) . knn:tonality(?x, ?y, 3) . knn:lyrics(?x, ?y, 3)"
    )
    result = RingKnnEngine(db).evaluate(q)
    for sol in result.solutions:
        values = list(sol.values())
        assert len(values) == 2
