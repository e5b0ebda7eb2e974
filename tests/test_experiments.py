"""End-to-end tests for the experiment harnesses (E1-E10)."""

import sys
import time

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.classification import make_gaussian_mixture
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.engines.baseline import BaselineEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.experiments import registry
from repro.experiments.bounds_ablation import BOUNDS_HEADERS, bounds_rows, run_bounds_ablation
from repro.experiments.figure2 import FIGURE2_HEADERS, figure2_rows, run_figure2
from repro.experiments.figure3 import FIGURE3_HEADERS, figure3_rows, run_figure3
from repro.experiments.materialization import run_materialization_comparison
from repro.experiments.report import format_table
from repro.experiments.space import run_space_comparison
from repro.utils.errors import ValidationError
from tests.test_golden_opcounts import GOLDEN_DATA, GOLDEN_WORKLOAD


@pytest.fixture(scope="module")
def tiny_workload(bench):
    return generate_workload(
        bench, WorkloadConfig(k=4, n_q1=2, n_q2=1, n_q3=2, n_q4=1, n_q5=2, seed=13)
    )


class TestFigure2Harness:
    def test_runs_all_families_and_engines(self, bench_db, tiny_workload):
        engines = [
            BaselineEngine(bench_db),
            RingKnnEngine(bench_db),
            RingKnnSEngine(bench_db),
        ]
        results = run_figure2(bench_db, tiny_workload, engines, timeout=30)
        assert set(results) == set(tiny_workload)
        for family, fr in results.items():
            assert set(fr.series) == {"baseline", "ring-knn", "ring-knn-s"}
            for s in fr.series.values():
                assert len(s.times) == len(tiny_workload[family])
                assert all(t >= 0 for t in s.times)

    def test_engines_find_same_solution_counts(self, bench_db, tiny_workload):
        engines = [
            BaselineEngine(bench_db),
            RingKnnEngine(bench_db),
            RingKnnSEngine(bench_db),
        ]
        results = run_figure2(bench_db, tiny_workload, engines, timeout=60)
        for fr in results.values():
            counts = {
                name: s.solutions for name, s in fr.series.items()
            }
            assert counts["baseline"] == counts["ring-knn"] == counts["ring-knn-s"]

    def test_rows_and_table_render(self, bench_db, tiny_workload):
        engines = [RingKnnEngine(bench_db)]
        results = run_figure2(
            bench_db, {"Q1": tiny_workload["Q1"]}, engines, timeout=30
        )
        rows = figure2_rows(results)
        assert len(rows) == 1
        text = format_table(FIGURE2_HEADERS, rows, title="fig2")
        assert "fig2" in text and "ring-knn" in text

    def test_sim_bind_position_recorded(self, bench_db, tiny_workload):
        engines = [RingKnnEngine(bench_db), RingKnnSEngine(bench_db)]
        results = run_figure2(
            bench_db, {"Q1b": tiny_workload["Q1b"]}, engines, timeout=30
        )
        for s in results["Q1b"].series.values():
            assert s.sim_bind_fractions, "bind positions should be recorded"
            assert all(0 <= f <= 1 for f in s.sim_bind_fractions)


class TestFigure3Harness:
    def test_shapes_and_monotonicity(self):
        points, labels = make_gaussian_mixture(
            (40, 40, 40), dim=5, seed=3, center_scale=4.0
        )
        rows = run_figure3(points, labels, K=20, ks=[5, 10, 20])
        strategies = {p.strategy for p in rows}
        assert strategies == {"knn", "reverse", "intersection", "union"}
        assert len(rows) == 12
        by = {(p.strategy, p.k): p for p in rows}
        for k in (5, 10, 20):
            # Result-size ordering: intersection <= k <= union.
            assert by[("intersection", k)].avg_result_size <= k + 1e-9
            assert by[("knn", k)].avg_result_size == pytest.approx(k)
            assert by[("union", k)].avg_result_size >= k - 1e-9
            # Precisions are probabilities.
            for strat in strategies:
                assert 0 <= by[(strat, k)].precision <= 1

    def test_ks_beyond_K_rejected(self):
        points, labels = make_gaussian_mixture((20, 20), dim=3, seed=0)
        with pytest.raises(ValidationError):
            run_figure3(points, labels, K=5, ks=[10])

    def test_rows_render(self):
        points, labels = make_gaussian_mixture((25, 25), dim=4, seed=1)
        rows = figure3_rows(run_figure3(points, labels, K=10, ks=[5]))
        text = format_table(FIGURE3_HEADERS, rows)
        assert "intersection" in text


class TestSpaceHarness:
    def test_paper_shape(self, bench_db):
        report = run_space_comparison(bench_db)
        # Sec. 6.2's qualitative claims:
        assert report.baseline_bytes > report.ring_bytes
        assert report.ring_vs_raw < 2.0  # "almost the same space" order
        assert report.rows()

    def test_report_renders(self, bench_db):
        from repro.experiments.space import SPACE_HEADERS

        report = run_space_comparison(bench_db)
        text = format_table(SPACE_HEADERS, report.rows())
        assert "ring" in text


class TestMaterializationHarness:
    def test_report_structure(self, bench_db, tiny_workload):
        report = run_materialization_comparison(
            bench_db, tiny_workload["Q1"], timeout=60
        )
        assert report.queries == len(tiny_workload["Q1"])
        assert report.mean_materialize > 0
        assert report.mean_materialize_total >= report.mean_materialize
        assert report.setup_vs_integrated > 0
        assert report.rows()

    def test_setup_work_grows_with_k(self, bench, bench_db):
        """The Sec. 3.2 point in miniature: extraction work is O(k n)
        regardless of the query's selectivity, so the number of
        materialized pairs grows with k while the integrated engine
        only touches what the query needs. (The wall-clock dominance
        shape is experiment E7 of ``repro experiments``.)"""
        from repro.engines.materialize import MaterializeEngine
        from repro.query.parser import parse_query

        dep = bench.depicts
        img = int(bench.image_ids[0])
        text = f"(?e, {dep}, {img}) . knn({img}, ?y, {{k}})"
        engine = MaterializeEngine(bench_db)
        small = engine.evaluate(parse_query(text.format(k=1)), timeout=60)
        large = engine.evaluate(parse_query(text.format(k=8)), timeout=60)
        n = bench.knn_graph.num_members
        def pairs(result):
            (setup,) = [s for s in result.spans.records
                        if s.name == "materialize"]
            return setup.attrs["materialized_pairs"]

        assert pairs(small) == 1 * n
        assert pairs(large) == 8 * n


class TestBoundsHarness:
    def test_bounds_rows(self, bench_db, tiny_workload):
        rows = run_bounds_ablation(
            bench_db, tiny_workload["Q1"] + tiny_workload["Q1b"], timeout=30
        )
        assert len(rows) == 4
        for row in rows:
            assert row.q_star >= row.solutions
            assert row.attempts["ring-knn"] > 0
        table = format_table(BOUNDS_HEADERS, bounds_rows(rows))
        assert "Q*_LP" in table

    def test_q1_acyclic_q1b_cyclic(self, bench_db, tiny_workload):
        rows = run_bounds_ablation(
            bench_db,
            [tiny_workload["Q1"][0], tiny_workload["Q1b"][0]],
            timeout=30,
        )
        assert rows[0].acyclic and not rows[1].acyclic
        assert rows[1].single_2_cyclic


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 0.00001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_empty_rows(self):
        text = format_table(["h1", "h2"], [])
        assert "h1" in text


class TestRegistry:
    """``repro experiments`` through its function API, at the golden scale."""

    @pytest.fixture(scope="class")
    def report(self):
        ctx = registry.Context(GOLDEN_DATA, GOLDEN_WORKLOAD, timeout=30.0)
        # Tables and draws depend on seeds alone: the sweep runs with the
        # wall clock refused to repro code (durations come from the span
        # clock; libraries may still stamp their imports).
        def refused(read):
            def guarded():
                caller = sys._getframe(1).f_globals.get("__name__", "")
                assert not caller.startswith("repro."), f"{caller} read the wall clock"
                return read()

            return guarded

        with pytest.MonkeyPatch.context() as patch:
            for name in ("time", "time_ns"):
                patch.setattr(time, name, refused(getattr(time, name)))
            return registry.run_experiments(ctx=ctx)

    def test_every_experiment_yields_its_tables_and_claims(self, report):
        assert set(report.tables) == {
            "figure2", "figure2_violins", "bind_position", "space",
            "materialization", "figure3_anuran", "figure3_drybean", "bounds",
            "ordering_contrast", "orientation", "tuple_cost",
        }
        assert all(text.strip() for text in report.tables.values())
        assert {claim.id for claim in report.claims} == set(registry.EXPERIMENTS)
        assert len(report.claims) == 32  # one per legacy shape assertion
        for claim in report.claims:
            assert claim.claim and claim.measured
            assert isinstance(claim.holds, bool)
        # Wall-clock shapes may flip at this scale; the exact ones may not.
        exact = [c for c in report.claims if c.id in ("E6", "E8", "E9", "E10")]
        assert all(c.holds for c in exact), [c for c in exact if not c.holds]

    def test_a_false_claim_flips_the_exit_status(self, monkeypatch, tmp_path):
        def refuted(_ctx):
            return registry.Report(
                {"refuted": "table"},
                [registry.Claim("E99", "2 + 2 = 5", "4", False)],
            )

        monkeypatch.setitem(registry.EXPERIMENTS, "E99", refuted)
        out = tmp_path / "out"
        assert main(["experiments", "--only", "E99", "--out", str(out)]) == 1
        assert "NO" in (out / "claims.txt").read_text()
