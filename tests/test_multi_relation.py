"""Tests for multiple independent K-NN relations in one query (Sec. 3.1:
"we could have various independent K-NN relations and refer to them in
the same queries" — the paper's motivating example 4: songs similar in
tonality AND lyrics)."""

import numpy as np
import pytest

from repro.engines.baseline import BaselineEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.database import GraphDatabase
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph
from repro.query.model import Var
from repro.query.parser import parse_query
from repro.utils.errors import QueryError, ValidationError


@pytest.fixture(scope="module")
def two_relation_db():
    """20 'songs' with independent tonality and lyrics descriptors."""
    rng = np.random.default_rng(77)
    n = 20
    triples = [
        (int(rng.integers(0, n)), 30, int(rng.integers(0, n)))
        for _ in range(80)
    ]
    graph = GraphData(triples)
    tonality = build_knn_graph(rng.normal(size=(n, 3)), K=5)
    lyrics = build_knn_graph(rng.normal(size=(n, 6)), K=5)
    db = GraphDatabase(
        graph, knn_graphs={"tonality": tonality, "lyrics": lyrics}
    )
    return db, tonality, lyrics


class TestMultiRelationQueries:
    def test_conjunction_of_two_similarities(self, two_relation_db):
        """Example 4 of the intro: pairs similar in tonality AND lyrics."""
        db, tonality, lyrics = two_relation_db
        query = parse_query(
            "(?x, 30, ?y) . knn:tonality(?x, ?y, 4) . knn:lyrics(?x, ?y, 4)"
        )
        result = RingKnnEngine(db).evaluate(query)
        for sol in result.solutions:
            x, y = sol[Var("x")], sol[Var("y")]
            assert tonality.is_knn(x, y, 4)
            assert lyrics.is_knn(x, y, 4)
        # Conjunction is a subset of each single-relation result.
        single = RingKnnEngine(db).evaluate(
            parse_query("(?x, 30, ?y) . knn:tonality(?x, ?y, 4)")
        )
        assert len(result.solutions) <= len(single.solutions)

    def test_all_engines_agree(self, two_relation_db):
        db, _t, _l = two_relation_db
        query = parse_query(
            "(?x, 30, ?y) . sim:tonality(?x, ?y, 5) . knn:lyrics(?y, ?w, 3)"
        )
        reference = RingKnnEngine(db).evaluate(query).sorted_solutions()
        for engine_cls in (
            RingKnnSEngine,
            BaselineEngine,
            MaterializeEngine,
            ClassicSixPermEngine,
        ):
            got = engine_cls(db).evaluate(query).sorted_solutions()
            assert got == reference, engine_cls.__name__

    def test_unknown_relation_rejected(self, two_relation_db):
        db, _t, _l = two_relation_db
        with pytest.raises(QueryError, match="no such K-NN"):
            RingKnnEngine(db).evaluate(
                parse_query("(?x, 30, ?y) . knn:mood(?x, ?y, 2)")
            )

    def test_per_relation_k_bound(self, two_relation_db):
        db, _t, _l = two_relation_db
        with pytest.raises(QueryError, match="tonality"):
            RingKnnEngine(db).evaluate(
                parse_query("(?x, 30, ?y) . knn:tonality(?x, ?y, 9)")
            )

    def test_default_relation_absent(self, two_relation_db):
        db, _t, _l = two_relation_db
        with pytest.raises(QueryError):
            RingKnnEngine(db).evaluate(
                parse_query("(?x, 30, ?y) . knn(?x, ?y, 2)")
            )


class TestDatabaseWiring:
    def test_default_plus_named(self, small_graph, small_knn):
        rng = np.random.default_rng(1)
        other = build_knn_graph(rng.normal(size=(20, 2)), K=4)
        db = GraphDatabase(
            small_graph, small_knn, knn_graphs={"geo": other}
        )
        assert db.knn_graph is small_knn
        assert set(db.knn_rings) == {"default", "geo"}

    def test_default_conflict_rejected(self, small_graph, small_knn):
        with pytest.raises(ValidationError):
            GraphDatabase(
                small_graph, small_knn, knn_graphs={"default": small_knn}
            )

    def test_space_accounting_sums_relations(self, two_relation_db):
        db, _t, _l = two_relation_db
        assert db.ring_size_in_bytes() > db.ring.size_in_bytes()
        assert db.baseline_size_in_bytes() > db.ring_size_in_bytes() or (
            db.baseline_size_in_bytes() > db.ring.size_in_bytes()
        )
        assert db.raw_size_in_bytes() > db.graph.size_in_bytes()


class TestParserRelations:
    def test_dist_with_relation_rejected(self):
        with pytest.raises(QueryError):
            parse_query("dist:geo(?x, ?y, 1.0)")

    def test_repr_includes_relation(self):
        q = parse_query("(?x, 1, ?y) . knn:tags(?x, ?y, 3)")
        assert "[tags]" in repr(q)
