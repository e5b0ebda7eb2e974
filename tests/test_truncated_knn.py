"""Tests for truncated (fewer-than-K) neighbor lists (Sec. 3.1)."""

import numpy as np
import pytest

from conftest import _size
from repro.engines.database import GraphDatabase
from repro.engines.baseline import BaselineEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.graph.naive import evaluate_naive
from repro.graph.triples import GraphData
from repro.knn.adjacency import KnnAdjacency
from repro.knn.builders import build_knn_graph
from repro.knn.graph import KnnGraph
from repro.knn.succinct import KnnRing
from repro.query.parser import parse_query
from repro.utils.errors import ValidationError


def truncated_graph() -> KnnGraph:
    """A 3-NN graph where some rows keep fewer than 3 neighbors."""
    # Entries past a row's length are padding (0 here), never read.
    return KnnGraph(
        members=np.array([0, 1, 2, 3, 4]),
        neighbors=np.array([
            [1, 2, 3],   # full
            [0, 0, 0],   # only one close neighbor
            [3, 1, 0],   # two
            [0, 0, 0],   # isolated: no neighbors within range
            [3, 2, 0],
        ]),
        lengths=np.array([3, 1, 2, 0, 3]),
    )


@pytest.fixture(scope="module")
def truncated():
    graph = truncated_graph()
    return graph, KnnRing(graph), KnnAdjacency(graph)


class TestModel:
    def test_is_truncated(self, truncated):
        graph, _ring, _adj = truncated
        assert graph.is_truncated

    def test_neighbors_respect_lengths(self, truncated):
        graph, _ring, _adj = truncated
        assert graph.neighbors_of(1, 3).tolist() == [0]
        assert graph.neighbors_of(3, 3).tolist() == []
        assert graph.neighbors_of(0, 2).tolist() == [1, 2]

    def test_is_knn_ignores_padding(self, truncated):
        graph, _ring, _adj = truncated
        # Row 3 is empty; padding must not leak.
        for v in (0, 1, 2, 4):
            assert not graph.is_knn(3, v, 3)
        assert graph.is_knn(1, 0, 1)
        assert not graph.is_knn(1, 2, 3)

    def test_reverse_lists_skip_padding(self, truncated):
        graph, _ring, _adj = truncated
        reverse = graph.reverse_lists()
        # 3 is listed by 2 (rank 1) and 4 (rank 1) and 0 (rank 3).
        assert {u for _r, u in reverse[3]} == {0, 2, 4}

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValidationError):
            KnnGraph(
                np.array([0, 1, 2]),
                np.array([[1, 2], [0, 2], [0, 1]]),
                lengths=np.array([3, 1, 1]),
            )


class TestSuccinctAndAdjacency:
    def test_ring_matches_graph(self, truncated):
        graph, ring, _adj = truncated
        for u in range(5):
            for k in (1, 2, 3):
                assert ring.neighbors_of(u, k) == graph.neighbors_of(
                    u, k
                ).tolist()
                for v in range(5):
                    if u == v:
                        continue
                    assert ring.contains(u, v, k) == graph.is_knn(u, v, k)

    def test_reverse_ranges_match(self, truncated):
        graph, ring, adj = truncated
        for v in range(5):
            for k in (1, 2, 3):
                expected = sorted(
                    u for u in range(5) if u != v and graph.is_knn(u, v, k)
                )
                assert sorted(ring.reverse_neighbors_of(v, k)) == expected
                assert sorted(adj.reverse_neighbors_of(v, k).tolist()) == expected

    def test_forward_count_capped_by_length(self, truncated):
        _graph, ring, _adj = truncated
        assert _size(ring.forward_range(1, 3)) == 1
        assert _size(ring.forward_range(3, 2)) == 0
        assert _size(ring.forward_range(0, 2)) == 2


class TestBuilderTruncation:
    def test_max_distance_truncates(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(size=(30, 2))
        full = build_knn_graph(points, K=6)
        capped = build_knn_graph(points, K=6, max_distance=0.01)
        assert capped.is_truncated
        assert capped.lengths.max() <= 6
        assert capped.lengths.sum() < full.lengths.sum()
        # Truncated lists are prefixes of the full ones.
        for u in range(30):
            le = int(capped.lengths[u])
            assert capped.neighbors_of(u).tolist() == (
                full.neighbors_of(u).tolist()[:le]
            )


class TestEndToEnd:
    def test_engines_agree_on_truncated_graph(self):
        rng = np.random.default_rng(9)
        n = 15
        triples = [
            (int(rng.integers(0, n)), 40, int(rng.integers(0, n)))
            for _ in range(60)
        ]
        graph = GraphData(triples)
        points = rng.uniform(size=(n, 2))
        knn = build_knn_graph(points, K=4, max_distance=0.08)
        assert knn.is_truncated
        db = GraphDatabase(graph, knn)
        for text in (
            "(?x, 40, ?y) . knn(?x, ?y, 3)",
            "(?x, 40, ?y) . sim(?x, ?y, 4)",
            "(?x, 40, ?y) . knn(?y, ?w, 2)",
        ):
            query = parse_query(text)
            expected = sorted(
                tuple(sorted((v.name, c) for v, c in s.items()))
                for s in evaluate_naive(query, graph, knn)
            )
            for engine_cls in (RingKnnEngine, RingKnnSEngine, BaselineEngine):
                got = engine_cls(db).evaluate(query).sorted_solutions()
                assert got == expected, (engine_cls.__name__, text)
