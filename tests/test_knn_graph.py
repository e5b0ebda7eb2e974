"""Tests for the KnnGraph model (Defs. 3-4)."""

import numpy as np
import pytest

from repro.knn.graph import KnnGraph
from repro.utils.errors import ValidationError


def tiny_graph() -> KnnGraph:
    """4 members (ids 10, 20, 30, 40), K = 2."""
    members = np.array([10, 20, 30, 40])
    neighbors = np.array(
        [
            [20, 30],  # 10's nearest: 20, then 30
            [10, 30],
            [40, 10],
            [30, 20],
        ]
    )
    return KnnGraph(members, neighbors)


class TestValidation:
    def test_unsorted_members_rejected(self):
        with pytest.raises(ValidationError):
            KnnGraph(np.array([2, 1]), np.array([[1], [2]]))

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValidationError):
            KnnGraph(np.array([1, 1]), np.array([[1], [1]]))

    def test_self_neighbor_rejected(self):
        with pytest.raises(ValidationError):
            KnnGraph(np.array([1, 2]), np.array([[1], [1]]))

    def test_k_must_be_below_n(self):
        with pytest.raises(ValidationError):
            KnnGraph(np.array([1, 2]), np.array([[2, 2], [1, 1]]))

    def test_non_member_neighbor_rejected(self):
        with pytest.raises(ValidationError):
            KnnGraph(np.array([1, 2]), np.array([[9], [1]]))

    def test_duplicate_in_row_rejected(self):
        with pytest.raises(ValidationError):
            KnnGraph(
                np.array([1, 2, 3]), np.array([[2, 2], [1, 3], [1, 2]])
            )


class TestQueries:
    def test_membership(self):
        g = tiny_graph()
        assert g.index_of(20) == 1
        assert g.index_of(30) == 2
        assert g.index_of(5) is None

    def test_neighbors_of_prefix(self):
        g = tiny_graph()
        assert g.neighbors_of(10, 1).tolist() == [20]
        assert g.neighbors_of(10, 2).tolist() == [20, 30]
        assert g.neighbors_of(10).tolist() == [20, 30]

    def test_neighbors_of_nonmember_empty(self):
        assert tiny_graph().neighbors_of(99).size == 0

    def test_rank_of(self):
        g = tiny_graph()
        assert g.rank_of(10, 20) == 1
        assert g.rank_of(10, 30) == 2
        assert g.rank_of(10, 40) is None
        assert g.rank_of(99, 10) is None

    def test_is_knn_matches_def3(self):
        g = tiny_graph()
        assert g.is_knn(10, 20, 1)
        assert not g.is_knn(10, 30, 1)
        assert g.is_knn(10, 30, 2)

    def test_is_knn_rejects_k_beyond_K(self):
        with pytest.raises(ValidationError):
            tiny_graph().is_knn(10, 20, 3)

    def test_reverse_lists_sorted_by_rank(self):
        g = tiny_graph()
        reverse = g.reverse_lists()
        # 30 is listed by 20 (rank 2), 10 (rank 2), 40 (rank 1).
        assert reverse[30][0] == (1, 40)
        assert {u for _r, u in reverse[30]} == {10, 20, 40}
        ranks = [r for r, _u in reverse[30]]
        assert ranks == sorted(ranks)

    def test_k_property(self):
        assert tiny_graph().K == 2
        assert tiny_graph().num_members == 4
