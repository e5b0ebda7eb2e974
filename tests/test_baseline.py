"""Behavioral tests specific to the Sec. 5.3 baseline."""

import pytest

from repro.engines.baseline import BaselineEngine
from repro.engines.ring_knn import RingKnnEngine
from repro.query.parser import parse_query
from repro.utils.errors import QueryError


def _base_solutions(result):
    """The BGP phase's solution count, an attribute of its span."""
    (bgp,) = [s for s in result.spans.records if s.name == "bgp"]
    return bgp.attrs["base_solutions"]


class TestSupportChecks:
    def test_disconnected_similarity_rejected(self, small_db):
        # w and v appear in no triple and no chain reaches them.
        query = parse_query("(?x, 20, ?y) . knn(?w, ?v, 3)")
        with pytest.raises(QueryError, match="disconnected"):
            BaselineEngine(small_db).evaluate(query)

    def test_chained_clauses_supported(self, small_db):
        # w reachable through y; v through w: supported.
        query = parse_query("(?x, 20, ?y) . knn(?y, ?w, 3) . knn(?w, ?v, 2)")
        result = BaselineEngine(small_db).evaluate(query)
        reference = RingKnnEngine(small_db).evaluate(query)
        assert result.sorted_solutions() == reference.sorted_solutions()

    def test_query_without_triples_rejected(self, small_db):
        query = parse_query("knn(?x, ?y, 3)")
        with pytest.raises(QueryError):
            BaselineEngine(small_db).evaluate(query)


class TestPostprocessing:
    def test_two_ready_filters(self, small_db):
        """Both clause variables bound by the BGP: pure filtering."""
        query = parse_query("(?x, 20, ?y) . knn(?x, ?y, 4)")
        result = BaselineEngine(small_db).evaluate(query)
        reference = RingKnnEngine(small_db).evaluate(query)
        assert result.sorted_solutions() == reference.sorted_solutions()
        # The base BGP is strictly larger than the filtered output.
        assert _base_solutions(result) >= len(result.solutions)

    def test_ready_extends_forward(self, small_db):
        query = parse_query("(?x, 20, ?y) . knn(?y, ?w, 2)")
        result = BaselineEngine(small_db).evaluate(query)
        reference = RingKnnEngine(small_db).evaluate(query)
        assert result.sorted_solutions() == reference.sorted_solutions()

    def test_ready_extends_reverse(self, small_db):
        query = parse_query("(?x, 20, ?y) . knn(?w, ?y, 2)")
        result = BaselineEngine(small_db).evaluate(query)
        reference = RingKnnEngine(small_db).evaluate(query)
        assert result.sorted_solutions() == reference.sorted_solutions()

    def test_phase_breakdown_reported(self, small_db):
        query = parse_query("(?x, 20, ?y) . knn(?x, ?y, 4)")
        result = BaselineEngine(small_db).evaluate(query)
        phases = result.spans.totals()
        assert set(phases) == {"bgp", "postprocess"}
        assert sum(phases.values()) == pytest.approx(result.elapsed)

    def test_limit_respected(self, small_db):
        query = parse_query("(?x, 20, ?y) . knn(?y, ?w, 4)")
        full = BaselineEngine(small_db).evaluate(query)
        capped = BaselineEngine(small_db).evaluate(query, limit=2)
        assert len(capped.solutions) == 2
        assert len(full.solutions) > 2

    def test_timeout_flag(self, small_db):
        query = parse_query("(?x, ?p, ?y) . (?y, ?q, ?z) . knn(?x, ?z, 5)")
        result = BaselineEngine(small_db).evaluate(query, timeout=0.0)
        assert result.timed_out


class TestMotivatingContrast:
    def test_baseline_enumerates_more_intermediate_work_on_q5_shape(
        self, bench_db, bench
    ):
        """The Q5 point: the baseline must produce *all* l1/l2 bindings
        before filtering, while Ring-KNN restricts y' first. We verify
        via the base-solution count exceeding the final output."""
        from repro.datasets.workload import WorkloadConfig, generate_workload

        workload = generate_workload(
            bench, WorkloadConfig(k=4, n_q5=3, seed=2)
        )
        ratios = []
        for query in workload["Q5"]:
            result = BaselineEngine(bench_db).evaluate(query, timeout=60)
            produced = _base_solutions(result)
            final = len(result.solutions)
            if final:
                ratios.append(produced / final)
        assert ratios and max(ratios) >= 1.0
