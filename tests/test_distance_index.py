"""Tests for the range-based similarity index (Sec. 3.3 extension)."""

import numpy as np
import pytest

from repro.knn.distance_index import DistanceRangeIndex
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(41)
    points = rng.uniform(size=(30, 2))
    index = DistanceRangeIndex(points, d_max=0.5)
    # Reference distances.
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return points, index, dist


class TestDistanceIndex:
    def test_neighbors_within_match_reference(self, setup):
        _points, index, dist = setup
        for u in range(30):
            for d in (0.1, 0.3, 0.5):
                expected = sorted(
                    v for v in range(30) if v != u and dist[u, v] <= d
                )
                assert sorted(index.neighbors_within(u, d)) == expected

    def test_neighbors_sorted_by_distance(self, setup):
        _points, index, dist = setup
        for u in (0, 7, 29):
            got = index.neighbors_within(u, 0.5)
            ds = [dist[u, v] for v in got]
            assert ds == sorted(ds)

    def test_contains_symmetric(self, setup):
        _points, index, dist = setup
        rng = np.random.default_rng(2)
        for _ in range(100):
            u, v = rng.integers(0, 30, 2)
            if u == v:
                continue
            d = float(rng.uniform(0.05, 0.5))
            expected = dist[u, v] <= d
            assert index.contains(int(u), int(v), d) == expected
            assert index.contains(int(v), int(u), d) == expected

    def test_count_within(self, setup):
        _points, index, dist = setup
        for u in range(0, 30, 5):
            assert len(index.neighbors_within(u, 0.2)) == int(
                ((dist[u] <= 0.2).sum()) - (dist[u, u] <= 0.2)
            )

    def test_leap_within_enumerates_sorted_ids(self, setup):
        _points, index, dist = setup
        u = 3
        expected = sorted(v for v in range(30) if v != u and dist[u, v] <= 0.4)
        got = []
        lower = 0
        seek = index.D.seeker(*index.range_within(u, 0.4), index._members_i)
        while True:
            nxt = seek(lower)
            if nxt is None:
                break
            got.append(nxt)
            lower = nxt + 1
        assert got == expected

    def test_query_beyond_dmax_rejected(self, setup):
        _points, index, _dist = setup
        with pytest.raises(ValidationError):
            index.range_within(0, 0.6)

    def test_non_member(self, setup):
        _points, index, _dist = setup
        lo, hi = index.range_within(999, 0.3)
        assert lo > hi
        assert index.neighbors_within(999, 0.3) == []

    def test_next_member(self, setup):
        _points, index, _dist = setup
        assert index.next_member(0) == 0
        assert index.next_member(29) == 29
        assert index.next_member(30) is None

    def test_custom_members_and_metric(self):
        points = np.array([[0.0], [1.0], [3.0]])
        members = np.array([10, 20, 30])
        index = DistanceRangeIndex(points, d_max=2.5, members=members)
        assert index.neighbors_within(10, 1.5) == [20]
        assert sorted(index.neighbors_within(20, 2.5)) == [10, 30]

    def test_sparse_members_at_every_lower(self):
        """Sparse, offset members: ``D`` holds ranks (its alphabet is the
        member count), and each leap, ``contains`` and neighborhood maps
        through the member ids — a ``lower`` below the first member, on
        one, between two and past the last included."""
        rng = np.random.default_rng(8)
        members = np.array([10, 14, 15, 30, 42, 57])
        points = rng.uniform(size=(6, 2))
        index = DistanceRangeIndex(points, d_max=0.8, members=members)
        assert index.D.alphabet_size == 6
        ids = members.tolist()
        for i, u in enumerate(ids):
            near = sorted(
                v for j, v in enumerate(ids)
                if j != i and np.linalg.norm(points[i] - points[j]) <= 0.8
            )
            assert sorted(index.neighbors_within(u, 0.8)) == near
            # The two leaps the distance relation runs: traced, and by
            # its seeker.
            lo, hi = index.range_within(u, 0.8)
            seek = index.D.seeker(lo, hi, index._members_i)
            for lower in range(-1, ids[-1] + 3):
                want = next((v for v in near if v >= lower), None)
                if lo <= hi:
                    assert index.D._range_next_id_u(ids, lo, hi, lower) == want
                assert seek(lower) == want
                assert index.contains(u, lower, 0.8) == (lower in near)

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            DistanceRangeIndex(np.zeros((3, 2)), d_max=0.0)
        with pytest.raises(ValidationError):
            DistanceRangeIndex(np.zeros(3), d_max=1.0)
        # members are what an attached index checks: strictly increasing
        with pytest.raises(ValidationError, match="sorted and distinct"):
            DistanceRangeIndex(
                np.zeros((3, 1)), d_max=1.0, members=np.array([1, 1, 2])
            )


def _exact(points, u):
    """Each point's distance to point ``u``, from exact differences."""
    return np.sqrt(((points - points[u]) ** 2).sum(axis=1))


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e7])
def test_rows_are_exact_far_from_the_origin(offset):
    """Every row lists the points within ``d`` of its member, nearest
    first and ties by id, as the exact distances order them — also for
    points far from the origin, where the expansion ``|a|^2 + |b|^2 -
    2 a.b`` cancels most of a distance away. ``d_max`` is one of the
    distances, so the inclusive bound is held at an exact tie."""
    points = np.random.default_rng(7).normal(size=(200, 3)) + offset
    d_max = float(np.sort(_exact(points, 0))[10])
    index = DistanceRangeIndex(points, d_max=d_max)
    for u in range(len(points)):
        dist = _exact(points, u)
        for d in (d_max / 2, d_max):
            within = [v for v in range(len(points)) if v != u and dist[v] <= d]
            want = sorted(within, key=lambda v: (dist[v], v))
            assert index.neighbors_within(u, d) == want
