"""Tests for SELECT-style projection/DISTINCT and the leapfrog
intersection."""

import pytest

from repro.engines.ring_knn import RingKnnEngine
from repro.graph.naive import evaluate_naive
from repro.ltj.engine import LTJEngine
from repro.ltj.ordering import MinCandidatesOrdering
from repro.ltj.triple_relation import RingTripleRelation
from repro.query.model import Var
from repro.query.parser import parse_query

X, Y, Z = Var("x"), Var("y"), Var("z")


def canonical(solutions):
    return sorted(
        tuple(sorted((v.name, c) for v, c in s.items())) for s in solutions
    )


class TestProjection:
    def test_project_keeps_only_requested_vars(self, small_db):
        q = parse_query("(?x, 20, ?y) . knn(?x, ?y, 4)")
        result = RingKnnEngine(small_db).evaluate(q, project=[X])
        assert result.solutions
        for sol in result.solutions:
            assert set(sol) == {X}

    def test_distinct_projection_dedups(self, small_db):
        q = parse_query("(?x, 20, ?y)")
        full = RingKnnEngine(small_db).evaluate(q, project=[X])
        distinct = RingKnnEngine(small_db).evaluate(
            q, project=[X], distinct=True
        )
        xs = {sol[X] for sol in full.solutions}
        assert len(distinct.solutions) == len(xs)
        assert {sol[X] for sol in distinct.solutions} == xs
        assert len(full.solutions) >= len(distinct.solutions)

    def test_distinct_with_limit(self, small_db):
        q = parse_query("(?x, 20, ?y)")
        result = RingKnnEngine(small_db).evaluate(
            q, project=[X], distinct=True, limit=3
        )
        assert len(result.solutions) == 3
        keys = [sol[X] for sol in result.solutions]
        assert len(set(keys)) == 3

    def test_projection_preserves_answer_multiplicity(self, small_db):
        q = parse_query("(?x, 20, ?y)")
        plain = RingKnnEngine(small_db).evaluate(q)
        projected = RingKnnEngine(small_db).evaluate(q, project=[X, Y])
        assert len(plain.solutions) == len(projected.solutions)


class TestLeapfrogIntersection:
    @pytest.mark.parametrize(
        "text",
        [
            "(?x, 20, ?y) . (?y, 21, ?z)",
            "(?x, 20, ?y) . (?y, 20, ?z) . (?z, 20, ?x)",
            "(?x, ?p, ?y) . (?y, ?p, ?x)",
        ],
    )
    def test_leapfrog_matches_naive_oracle(self, small_db, small_graph, text):
        """Multi-atom intersections against exhaustive search."""
        q = parse_query(text)
        engine = LTJEngine(
            [RingTripleRelation(small_db.ring, t) for t in q.triples],
            ordering=MinCandidatesOrdering(),
        )
        got = engine.evaluate()
        assert got, "the oracle comparison needs a non-empty answer"
        assert canonical(got) == canonical(evaluate_naive(q, small_graph))
