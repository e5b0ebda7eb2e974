"""Tests for the baseline's plain-form K-NN adjacency (Sec. 5.3)."""

import numpy as np
import pytest

from repro.knn.adjacency import KnnAdjacency
from repro.knn.builders import build_knn_graph
from repro.knn.succinct import KnnRing
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(31)
    points = rng.normal(size=(25, 2))
    graph = build_knn_graph(points, K=5)
    return graph, KnnAdjacency(graph)


class TestAdjacency:
    def test_forward_matches_graph(self, setup):
        graph, adj = setup
        for u in range(25):
            for k in (1, 3, 5):
                assert adj.neighbors_of(u, k).tolist() == graph.neighbors_of(
                    u, k
                ).tolist()

    def test_reverse_matches_definition(self, setup):
        graph, adj = setup
        for v in range(25):
            for k in (1, 3, 5):
                expected = sorted(
                    u for u in range(25) if u != v and graph.is_knn(u, v, k)
                )
                assert sorted(adj.reverse_neighbors_of(v, k).tolist()) == expected

    def test_is_knn_agrees(self, setup):
        graph, adj = setup
        rng = np.random.default_rng(0)
        for _ in range(200):
            u, v = rng.integers(0, 25, 2)
            if u == v:
                continue
            k = int(rng.integers(1, 6))
            assert adj.is_knn(int(u), int(v), k) == graph.is_knn(
                int(u), int(v), k
            )

    def test_non_members(self, setup):
        _graph, adj = setup
        assert adj.neighbors_of(999, 3).size == 0
        assert adj.reverse_neighbors_of(999, 3).size == 0
        assert not adj.is_knn(999, 0, 3)

    def test_k_bounds(self, setup):
        _graph, adj = setup
        with pytest.raises(ValidationError):
            adj.neighbors_of(0, 6)
        with pytest.raises(ValidationError):
            adj.neighbors_of(0, 0)

    def test_plain_form_larger_than_succinct(self, setup):
        """Sec. 6.2: the baseline's plain form costs more space than the
        succinct S/S'/B representation."""
        graph, adj = setup
        ring = KnnRing(graph)
        assert adj.size_in_bytes() > ring.size_in_bytes()

    def test_agreement_with_succinct(self, setup):
        graph, adj = setup
        ring = KnnRing(graph)
        for v in range(25):
            for k in (1, 4):
                assert sorted(adj.reverse_neighbors_of(v, k).tolist()) == sorted(
                    ring.reverse_neighbors_of(v, k)
                )
