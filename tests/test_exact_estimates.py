"""Tests for the exact-vs-range-size estimate ablation (Sec. 5)."""

import numpy as np

from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.ltj.triple_relation import RingTripleRelation
from repro.query.model import TriplePattern, Var
from repro.query.parser import parse_query


class TestExactEstimates:
    def test_exact_estimate_counts_distinct(self, small_db):
        # Pattern (?x, 20, ?y): after arc {p}, the stored column holds
        # subjects; exact estimate of x = distinct subjects with p=20.
        pattern = TriplePattern(Var("x"), 20, Var("y"))
        approx = RingTripleRelation(small_db.ring, pattern)
        exact = RingTripleRelation(
            small_db.ring, pattern, exact_estimates=True
        )
        matching = small_db.graph.matching(None, 20, None)
        x = approx.position(Var("x"))
        assert x == exact.position(Var("x"))
        assert approx.estimate(x) == len(matching)
        assert exact.estimate(x) == len(np.unique(matching[:, 0]))
        assert exact.estimate(x) <= approx.estimate(x)

    def test_exact_falls_back_off_stored_column(self, small_db):
        # The 'ahead' coordinate (p under arc {s}) keeps the range size.
        pattern = TriplePattern(3, Var("p"), Var("o"))
        exact = RingTripleRelation(
            small_db.ring, pattern, exact_estimates=True
        )
        matching = small_db.graph.matching(3, None, None)
        # o is the stored column (prev of s): exact distinct count.
        o, p = exact.position(Var("o")), exact.position(Var("p"))
        assert exact.estimate(o) == len(np.unique(matching[:, 2]))
        # p is the ahead coordinate: falls back to range size.
        assert exact.estimate(p) == len(matching)

    def test_same_answers_either_way(self, small_db):
        for text in (
            "(?x, 20, ?y) . (?y, 21, ?z) . knn(?x, ?z, 3)",
            "(?x, 20, ?y) . sim(?x, ?y, 4)",
        ):
            query = parse_query(text)
            for engine_cls in (RingKnnEngine, RingKnnSEngine):
                approx = engine_cls(small_db).evaluate(query)
                exact = engine_cls(
                    small_db, exact_estimates=True
                ).evaluate(query)
                assert (
                    approx.sorted_solutions() == exact.sorted_solutions()
                ), engine_cls.__name__
