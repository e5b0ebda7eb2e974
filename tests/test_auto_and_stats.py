"""Tests for the AutoEngine policy and the graph-statistics module."""

import numpy as np
import pytest

from repro.bounds.constraint_graph import ConstraintGraph
from repro.engines.auto import AutoEngine
from repro.engines.ring_knn import RingKnnEngine
from repro.graph.stats import compute_graph_stats
from repro.graph.triples import GraphData
from repro.ltj.ordering import ConstraintAwareOrdering
from repro.obs import QueryTrace
from repro.query.parser import parse_query


class TestAutoEngine:
    def test_simple_query_uses_ring_knn_s(self, small_db):
        auto = AutoEngine(small_db)
        q = parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)")
        assert auto.select(q) == "ring-knn-s"
        assert auto.evaluate(q).engine == "ring-knn-s"

    def test_symmetric_query_uses_ring_knn(self, small_db):
        auto = AutoEngine(small_db)
        q = parse_query("(?x, 20, ?y) . sim(?x, ?y, 3)")
        assert auto.select(q) == "ring-knn"
        assert auto.evaluate(q).engine == "ring-knn"

    def test_multi_clause_uses_ring_knn(self, small_db):
        auto = AutoEngine(small_db)
        q = parse_query(
            "(?x, 20, ?y) . (?y, 20, ?z) . knn(?x, ?y, 2) . knn(?y, ?z, 2)"
        )
        assert auto.select(q) == "ring-knn"

    def test_plain_bgp_uses_ring_knn_s(self, small_db):
        auto = AutoEngine(small_db)
        q = parse_query("(?x, 20, ?y)")
        assert auto.select(q) == "ring-knn-s"

    @pytest.mark.parametrize("text", [
        "(?x, 20, ?y) . sim(?x, ?y, 2) . sim(?y, ?z, 2)",
        "(?x, 20, ?y) . knn(?x, ?y, 2) . knn(?y, ?z, 2) . knn(?z, ?x, 2)",
    ])
    def test_cycles_beyond_the_theorems_use_ring_knn_s(self, small_db, text):
        auto = AutoEngine(small_db)
        q = parse_query(text)
        trace = QueryTrace()
        result = auto.evaluate(q, trace=trace)
        assert result.engine == "ring-knn-s"
        assert trace.meta["auto"] == {
            "selected": "ring-knn-s",
            "constraints": len(q.clauses),
            "constraint_class": "general-cyclic",
        }

    def test_answers_match_explicit_engines(self, small_db):
        auto = AutoEngine(small_db)
        reference = RingKnnEngine(small_db)
        for text in (
            "(?x, 20, ?y) . knn(?x, ?y, 3)",
            "(?x, 20, ?y) . sim(?x, ?y, 3)",
        ):
            q = parse_query(text)
            assert (
                auto.evaluate(q).sorted_solutions()
                == reference.evaluate(q).sorted_solutions()
            )


class _RecordingOrdering(ConstraintAwareOrdering):
    """Ring-KNN's ordering, noting each decision beside the regular pool
    and the unmarked part of it that the decision was made from."""

    def __init__(self, decisions: list) -> None:
        self._decisions = decisions

    def choose(self, state):
        chosen = super().choose(state)
        pool = state.regular()
        unmarked = pool & ~state.targets(state.edges)
        self._decisions.append((pool, unmarked, chosen))
        return chosen


class _RecordingRingKnn(RingKnnEngine):
    def __init__(self, db) -> None:
        super().__init__(db)
        self.decisions: list = []

    def _ordering(self, query):
        return _RecordingOrdering(self.decisions)


def _assert_fenced(db, query) -> int:
    """The Thm. 2/3 fence on one query.

    ``auto`` runs Ring-KNN exactly when the query has >= 2 constraints
    and its constraint graph is acyclic or single 2-cyclic. Wherever a
    premise holds, every Ring-KNN decision binds a variable that is not
    the target of a current edge whenever the regular pool has one.
    Returns how many decisions the marks narrowed.
    """
    graph = ConstraintGraph(query)
    premise = graph.is_acyclic() or graph.is_single_2_cyclic()
    assert (graph.constraint_class() != "general-cyclic") == premise
    constraints = len(query.clauses) + len(query.dist_clauses)
    expected = "ring-knn" if constraints >= 2 and premise else "ring-knn-s"
    assert AutoEngine(db).select(query) == expected, query
    if not premise:
        return 0
    engine = _RecordingRingKnn(db)
    engine.evaluate(query)
    for _pool, unmarked, chosen in engine.decisions:
        assert not unmarked or unmarked >> chosen & 1, (query, chosen)
    return sum(
        1 for pool, unmarked, _ in engine.decisions if 0 < unmarked != pool
    )


class TestTheoremFence:
    def test_figure2_families(self, figure2):
        narrowed = sum(
            _assert_fenced(figure2.db, query) for query in figure2.queries
        )
        assert narrowed > 0
        classes = {
            family: {ConstraintGraph(q).constraint_class() for q in queries}
            for family, queries in figure2.workload.items()
        }
        assert classes["Q1b"] == {"single-2-cyclic"}
        assert classes["Q2"] == {"acyclic"}
        assert classes["Q2b"] == classes["Q2t"] == {"general-cyclic"}


class TestGraphStats:
    def test_basic_counts(self, small_graph):
        stats = compute_graph_stats(small_graph)
        assert stats.num_edges == small_graph.num_edges
        assert stats.num_nodes == small_graph.num_nodes
        assert stats.num_predicates == small_graph.predicates.size
        assert stats.domain_size == small_graph.domain_size

    def test_degree_summaries(self):
        # Star graph: node 0 points at 1..5.
        g = GraphData([(0, 9, i) for i in range(1, 6)])
        stats = compute_graph_stats(g)
        assert stats.out_degree.count == 1
        assert stats.out_degree.maximum == 5
        assert stats.in_degree.count == 5
        assert stats.in_degree.mean == 1.0
        assert stats.in_degree.gini == pytest.approx(0.0)

    def test_gini_increases_with_skew(self):
        uniform = GraphData([(i, 9, (i + 1) % 10) for i in range(10)])
        skewed = GraphData(
            [(0, 9, i) for i in range(1, 9)] + [(1, 9, 0), (2, 9, 0)]
        )
        assert (
            compute_graph_stats(skewed).out_degree.gini
            > compute_graph_stats(uniform).out_degree.gini
        )

    def test_top_predicates_sorted(self, bench):
        stats = compute_graph_stats(bench.graph, top=3)
        counts = [c for _p, c in stats.top_predicates]
        assert counts == sorted(counts, reverse=True)
        assert len(stats.top_predicates) == 3

    def test_empty_graph(self):
        stats = compute_graph_stats(GraphData([]))
        assert stats.num_edges == 0
        assert stats.out_degree.count == 0
        assert stats.rows()

    def test_benchmark_is_skewed(self, bench):
        """The synthetic Wikidata stand-in must show degree skew."""
        stats = compute_graph_stats(bench.graph)
        assert stats.out_degree.gini > 0.2


class TestCliStats:
    def test_stats_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import save_bundle
        from repro.knn.builders import build_knn_graph

        rng = np.random.default_rng(0)
        graph = GraphData([(0, 5, 1), (1, 5, 2), (2, 5, 0)])
        knn = build_knn_graph(rng.normal(size=(3, 2)), K=1)
        path = tmp_path / "b.npz"
        save_bundle(path, graph, knn)
        assert main(["stats", "--data", str(path)]) == 0
        out = capsys.readouterr().out
        assert "edges (N)" in out
        assert "K-NN graph: 3 members" in out
