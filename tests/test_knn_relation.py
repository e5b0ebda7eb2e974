"""Tests for the similarity-clause leapfrog relation (Sec. 3.3)."""

import numpy as np
import pytest

from repro.knn.builders import build_knn_graph
from repro.knn.succinct import KnnRing
from repro.ltj.knn_relation import KnnClauseRelation
from repro.query.model import SimClause, Var
from repro.utils.errors import StructureError

X, Y = Var("x"), Var("y")
PX, PY = 0, 1  # positions: the x side and the y side of a clause


@pytest.fixture(scope="module")
def ring():
    rng = np.random.default_rng(51)
    points = rng.normal(size=(20, 2))
    graph = build_knn_graph(points, K=5)
    return graph, KnnRing(graph)


class TestStateMachine:
    def test_positions_are_the_clause_sides(self, ring):
        _graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 3, Y))
        assert rel.variables == {X, Y}
        assert (rel.position(X), rel.position(Y)) == (PX, PY)
        flipped = KnnClauseRelation(knn, SimClause(Y, 3, X))
        assert (flipped.position(X), flipped.position(Y)) == (PY, PX)

    def test_bind_x_then_leap_y_enumerates_knn(self, ring):
        graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 3, Y))
        rel.bind(PX, 4)
        seek = rel.seeker(PY)
        got = []
        lower = 0
        while True:
            nxt = seek(lower)
            if nxt is None:
                break
            got.append(nxt)
            lower = nxt + 1
        assert got == sorted(graph.neighbors_of(4, 3).tolist())

    def test_bind_y_then_leap_x_enumerates_reverse(self, ring):
        graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 2, Y))
        rel.bind(PY, 7)
        seek = rel.seeker(PX)
        got = []
        lower = 0
        while True:
            nxt = seek(lower)
            if nxt is None:
                break
            got.append(nxt)
            lower = nxt + 1
        expected = sorted(
            u for u in range(20) if u != 7 and graph.is_knn(u, 7, 2)
        )
        assert got == expected

    def test_both_bound_checks_predicate(self, ring):
        graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 3, Y))
        v = int(graph.neighbors_of(2, 1)[0])
        rel.bind(PX, 2)
        assert rel.bind(PY, v)
        assert not rel.is_empty()
        rel.unbind(PY)
        non_neighbor = next(
            u for u in range(20)
            if u != 2 and u not in set(graph.neighbors_of(2, 3).tolist())
        )
        assert not rel.bind(PY, non_neighbor)
        assert rel.is_empty()
        rel.unbind(PY)
        assert not rel.is_empty()

    def test_non_member_binding_fails(self, ring):
        _graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 3, Y))
        assert not rel.bind(PX, 999)
        assert rel.is_empty()
        rel.unbind(PX)
        assert not rel.is_empty()

    def test_foreign_variable_rejected(self, ring):
        _graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 3, Y))
        with pytest.raises(StructureError):
            rel.position(Var("zzz"))


class TestConstants:
    def test_constant_x(self, ring):
        graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(5, 2, Y))
        assert rel.variables == {Y} and rel.position(Y) == PY
        assert rel.seeker(PY)(0) == min(graph.neighbors_of(5, 2).tolist())

    def test_constant_pair_filter(self, ring):
        graph, knn = ring
        v = int(graph.neighbors_of(3, 1)[0])
        ok = KnnClauseRelation(knn, SimClause(3, 2, v))
        assert not ok.is_empty()
        other = next(
            u for u in range(20)
            if u != 3 and u not in set(graph.neighbors_of(3, 5).tolist())
        )
        bad = KnnClauseRelation(knn, SimClause(3, 5, other))
        assert bad.is_empty()


class TestEstimates:
    def test_estimate_x_bound_is_k(self, ring):
        _graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 3, Y))
        rel.bind(PX, 2)
        assert rel.estimate(PY) == 3

    def test_estimate_y_bound_is_reverse_count(self, ring):
        graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 2, Y))
        rel.bind(PY, 7)
        expected = sum(
            1 for u in range(20) if u != 7 and graph.is_knn(u, 7, 2)
        )
        assert rel.estimate(PX) == expected

    def test_estimate_unbound_is_member_count(self, ring):
        _graph, knn = ring
        rel = KnnClauseRelation(knn, SimClause(X, 2, Y))
        assert rel.estimate(PX) == 20
        assert rel.estimate(PY) == 20
