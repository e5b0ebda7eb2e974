"""Tests for exact and approximate K-NN graph construction."""

import numpy as np
import pytest

from repro.knn.builders import (
    build_knn_graph,
    build_knn_graph_bruteforce,
    build_knn_graph_kdtree,
    build_knn_graph_nn_descent,
)
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(17)
    return rng.normal(size=(60, 3))


def reference_neighbors(points, K):
    """Independent O(n^2) reference with index tie-break."""
    n = points.shape[0]
    out = np.empty((n, K), dtype=np.int64)
    for i in range(n):
        d = ((points - points[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        order = np.lexsort((np.arange(n), d))
        out[i] = order[:K]
    return out


class TestBruteforce:
    def test_matches_reference(self, points):
        g = build_knn_graph_bruteforce(points, K=5)
        assert np.array_equal(g.neighbor_table, reference_neighbors(points, 5))

    def test_custom_metric(self, points):
        def l1(a, b):
            return float(np.abs(a - b).sum())

        g = build_knn_graph_bruteforce(points[:20], K=3, metric=l1)
        # Check row 0 against a direct computation.
        d = np.abs(points[:20] - points[0]).sum(axis=1)
        d[0] = np.inf
        expected = np.lexsort((np.arange(20), d))[:3]
        assert g.neighbors_of(0).tolist() == expected.tolist()

    def test_custom_members(self, points):
        members = np.arange(100, 160)
        g = build_knn_graph_bruteforce(points, K=4, members=members)
        assert g.members.tolist() == members.tolist()
        assert set(g.neighbors_of(100).tolist()) <= set(members.tolist())

    def test_k_bounds(self, points):
        with pytest.raises(ValidationError):
            build_knn_graph_bruteforce(points, K=0)
        with pytest.raises(ValidationError):
            build_knn_graph_bruteforce(points, K=60)


class TestKDTree:
    def test_same_neighbor_sets_as_bruteforce(self, points):
        """Distance sets must agree (ordering may differ only on ties,
        which are measure-zero for random continuous data)."""
        a = build_knn_graph_kdtree(points, K=5)
        b = build_knn_graph_bruteforce(points, K=5)
        assert np.array_equal(a.neighbor_table, b.neighbor_table)

    def test_rejects_metric_via_dispatcher(self, points):
        with pytest.raises(ValidationError):
            build_knn_graph(points, K=3, method="kdtree", metric=lambda a, b: 0.0)


class TestNNDescent:
    def test_high_recall_on_clustered_data(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(scale=10, size=(5, 4))
        pts = np.concatenate(
            [c + rng.normal(size=(40, 4)) for c in centers], axis=0
        )
        exact = build_knn_graph_bruteforce(pts, K=10)
        approx = build_knn_graph_nn_descent(pts, K=10, seed=1)
        recalls = []
        for i in range(pts.shape[0]):
            truth = set(exact.neighbors_of(i).tolist())
            found = set(approx.neighbors_of(i).tolist())
            recalls.append(len(truth & found) / 10)
        assert np.mean(recalls) > 0.9, np.mean(recalls)

    def test_structure_is_valid(self, points):
        g = build_knn_graph_nn_descent(points, K=4, seed=0, max_iters=3)
        assert g.K == 4
        assert g.num_members == 60


class TestDispatcher:
    def test_auto_uses_exact_euclidean(self, points):
        g = build_knn_graph(points, K=5)
        assert np.array_equal(g.neighbor_table, reference_neighbors(points, 5))

    def test_unknown_method(self, points):
        with pytest.raises(ValidationError):
            build_knn_graph(points, K=3, method="magic")

    def test_auto_with_metric_falls_back_to_bruteforce(self, points):
        def l2sq(a, b):
            diff = a - b
            return float(diff @ diff)

        g = build_knn_graph(points, K=5, metric=l2sq)
        assert np.array_equal(g.neighbor_table, reference_neighbors(points, 5))
