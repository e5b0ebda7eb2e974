"""Tests for the exact K-NN graph builder."""

import numpy as np
import pytest

from repro.knn import builders
from repro.knn.builders import build_knn_graph
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(17)
    return rng.normal(size=(60, 3))


def reference_distances(points, i):
    """Squared distances from row ``i``, ``inf`` at ``i`` itself."""
    d = ((points - points[i]) ** 2).sum(axis=1)
    d[i] = np.inf
    return d


def reference_neighbors(points, K):
    """Independent O(n^2) reference with index tie-break."""
    n = points.shape[0]
    out = np.empty((n, K), dtype=np.int64)
    for i in range(n):
        d = reference_distances(points, i)
        order = np.lexsort((np.arange(n), d))
        out[i] = order[:K]
    return out


@pytest.fixture
def full_sorts(monkeypatch):
    """The widths of every candidate set the builder ranks: a row ranked
    over all ``n`` points shows as width ``n - 1``."""
    widths = []
    rank = builders._rank_exactly

    def spy(points, rows, cand):
        widths.append(cand.shape[1])
        return rank(points, rows, cand)

    monkeypatch.setattr(builders, "_rank_exactly", spy)
    return widths


class TestBruteforce:
    def test_matches_reference(self, points):
        g = build_knn_graph(points, K=5)
        assert np.array_equal(g.neighbor_table, reference_neighbors(points, 5))

    def test_custom_members(self, points):
        members = np.arange(100, 160)
        g = build_knn_graph(points, K=4, members=members)
        assert g.members.tolist() == members.tolist()
        assert set(g.neighbors_of(100).tolist()) <= set(members.tolist())

    def test_k_bounds(self, points):
        with pytest.raises(ValidationError):
            build_knn_graph(points, K=0)
        with pytest.raises(ValidationError):
            build_knn_graph(points, K=60)


class TestExactness:
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e7])
    def test_far_from_the_origin(self, offset, full_sorts):
        """Far from the origin the expansion |a|^2 + |b|^2 - 2 a.b loses
        the distances' low digits; the exact re-rank, and the full sort
        where the rounding bound demands it, keep every row right."""
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 3)) + offset
        g = build_knn_graph(pts, K=5)
        assert np.array_equal(g.neighbor_table, reference_neighbors(pts, 5))
        sorted_in_full = full_sorts.count(199)
        if offset == 0.0:
            assert sorted_in_full == 0
        if offset == 1e7:
            assert sorted_in_full > 0

    def test_more_duplicates_than_candidates(self, full_sorts):
        """Twenty copies of each of three points, K = 5: more copies tie
        at distance 0 than the K + 9 candidates hold, so which ones a row
        keeps is arbitrary; the full sort makes the smallest ids win."""
        rng = np.random.default_rng(4)
        pts = np.concatenate([np.repeat(rng.normal(size=(3, 4)), 20, axis=0),
                              rng.normal(size=(10, 4))])
        pts = pts[rng.permutation(len(pts))]
        g = build_knn_graph(pts, K=5)
        assert np.array_equal(g.neighbor_table, reference_neighbors(pts, 5))
        assert full_sorts.count(len(pts) - 1) >= 60  # every copy's row

    def test_mirror_symmetric_ties_go_to_the_smaller_id(self):
        """Integer points ``c + v`` and ``c - v`` lie at exactly one
        distance from ``c``; an odd K splits a pair, and the smaller id
        must be the one kept."""
        rng = np.random.default_rng(5)
        c = np.array([3.0, -2.0, 5.0])
        offsets = rng.choice(np.arange(1, 40), size=(8, 3), replace=False)
        offsets *= rng.choice((-1, 1), size=(8, 3))
        pts = np.concatenate([c[None, :], c + offsets, c - offsets])
        pts = np.concatenate([pts[:1], pts[1:][rng.permutation(16)]])
        for K in (1, 3, 7):
            g = build_knn_graph(pts, K=K)
            assert np.array_equal(g.neighbor_table, reference_neighbors(pts, K))
            d = reference_distances(pts, 0)
            row = g.neighbors_of(0).tolist()
            ties = np.flatnonzero(d == d[row[-1]])
            assert ties.size == 2 and row[-1] == ties.min()

    def test_k_is_n_minus_one(self, points):
        small = points[:12]
        g = build_knn_graph(small, K=11)
        assert np.array_equal(g.neighbor_table, reference_neighbors(small, 11))

    def test_max_distance_is_inclusive_and_squared(self):
        """On an integer grid every squared distance is exact: a cut at
        exactly 2.0 keeps the diagonal neighbours."""
        grid = np.array([(x, y) for x in range(5) for y in range(5)], float)
        g = build_knn_graph(grid, K=8, max_distance=2.0)
        assert np.array_equal(g.neighbor_table, reference_neighbors(grid, 8))
        for i in range(len(grid)):
            d = reference_distances(grid, i)
            assert g.lengths[i] == (d <= 2.0).sum()
        assert g.lengths[12] == 8  # the centre: 4 edges and 4 diagonals
        assert g.lengths[0] == 3  # a corner
