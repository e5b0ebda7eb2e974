"""Tests for graph/K-NN bundle persistence."""

import numpy as np

from repro.graph.io import load_bundle, save_bundle
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph


class TestBundles:
    def test_roundtrip_graph_only(self, tmp_path):
        graph = GraphData([(0, 1, 2), (2, 1, 0)])
        path = tmp_path / "g.npz"
        save_bundle(path, graph)
        loaded, knn, points = load_bundle(path)
        assert list(loaded) == list(graph)
        assert knn is None and points is None

    def test_roundtrip_full(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 3))
        knn = build_knn_graph(pts, K=3)
        graph = GraphData([(0, 20, 1)])
        path = tmp_path / "full.npz"
        save_bundle(path, graph, knn, pts)
        g2, knn2, pts2 = load_bundle(path)
        assert list(g2) == list(graph)
        assert np.array_equal(knn2.neighbor_table, knn.neighbor_table)
        assert np.array_equal(knn2.members, knn.members)
        assert np.allclose(pts2, pts)

    def test_bundle_feeds_database(self, tmp_path):
        from repro.engines.database import GraphDatabase
        from repro.engines.ring_knn import RingKnnEngine
        from repro.query.parser import parse_query

        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 2))
        knn = build_knn_graph(pts, K=3)
        graph = GraphData(
            [(i, 20, (i + 1) % 10) for i in range(10)]
        )
        path = tmp_path / "db.npz"
        save_bundle(path, graph, knn, pts)
        g2, knn2, _ = load_bundle(path)
        db = GraphDatabase(g2, knn2)
        result = RingKnnEngine(db).evaluate(
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)")
        )
        reference = RingKnnEngine(GraphDatabase(graph, knn)).evaluate(
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)")
        )
        assert result.sorted_solutions() == reference.sorted_solutions()
