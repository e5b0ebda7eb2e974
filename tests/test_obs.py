"""The observability surfaces: trace schema, trace diffing, the
``repro trace`` CLI subcommand, and EXPLAIN ANALYZE."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.engines.auto import AutoEngine
from repro.engines.baseline import BaselineEngine
from repro.engines.database import GraphDatabase
from repro.engines.kstar import evaluate_k_star
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine
from repro.explain import explain
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.obs import (
    QueryTrace,
    TraceSchemaError,
    diff_traces,
    format_diff,
    validate_trace,
)
from repro.obs.schema import main as schema_main
from repro.obs.spans import Spans
from repro.query.parser import parse_query


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(9)
    triples = [
        (
            int(rng.integers(0, 12)),
            int(20 + rng.integers(0, 2)),
            int(rng.integers(0, 12)),
        )
        for _ in range(60)
    ]
    points = rng.normal(size=(12, 2))
    knn = build_knn_graph_bruteforce(points, K=5)
    return GraphDatabase(GraphData(triples), knn)


@pytest.fixture(scope="module")
def trace_doc(db):
    trace = QueryTrace()
    RingKnnEngine(db).evaluate(
        parse_query("(?x, 20, ?y) . knn(?x, ?y, 4)"), trace=trace
    )
    return trace.to_dict()


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
class TestSchema:
    def test_emitted_trace_validates(self, trace_doc):
        validate_trace(trace_doc)

    def test_round_trips_through_json(self, trace_doc):
        validate_trace(json.loads(json.dumps(trace_doc)))

    def test_missing_key_rejected(self, trace_doc):
        broken = dict(trace_doc)
        del broken["variables"]
        with pytest.raises(TraceSchemaError, match="variables"):
            validate_trace(broken)

    def test_wrong_type_rejected(self, trace_doc):
        broken = json.loads(json.dumps(trace_doc))
        broken["solutions"] = "three"
        with pytest.raises(TraceSchemaError, match="solutions"):
            validate_trace(broken)

    def test_negative_counter_rejected(self, trace_doc):
        broken = json.loads(json.dumps(trace_doc))
        name = next(iter(broken["variables"]))
        broken["variables"][name]["leaps"] = -1
        with pytest.raises(TraceSchemaError, match="minimum"):
            validate_trace(broken)

    def test_bad_relation_kind_rejected(self, trace_doc):
        broken = json.loads(json.dumps(trace_doc))
        broken["relations"][0]["kind"] = "mystery"
        with pytest.raises(TraceSchemaError, match="kind"):
            validate_trace(broken)

    def test_schema_cli(self, trace_doc, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(trace_doc))
        assert schema_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        doc = json.loads(json.dumps(trace_doc))
        doc["timed_out"] = "nope"
        bad.write_text(json.dumps(doc))
        assert schema_main([str(bad)]) == 1


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical_traces_diff_empty(self, trace_doc):
        same = json.loads(json.dumps(trace_doc))
        assert diff_traces(trace_doc, same, ignore_timings=True) == []
        assert "identical" in format_diff([])

    def test_diff_detects_changed_counters(self, db, trace_doc):
        other = QueryTrace()
        RingKnnEngine(db).evaluate(
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 2)"), trace=other
        )
        deltas = diff_traces(
            trace_doc, other.to_dict(), ignore_timings=True
        )
        assert deltas, "changing k must move some counter"
        paths = {d.path for d in deltas}
        assert any("leap" in p or "candidates" in p for p in paths)
        rendered = format_diff(deltas)
        assert "counters changed" in rendered

    def test_ignore_timings_drops_phase_noise(self, db, trace_doc):
        rerun = QueryTrace()
        RingKnnEngine(db).evaluate(
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 4)"), trace=rerun
        )
        deltas = diff_traces(
            trace_doc, rerun.to_dict(), ignore_timings=True
        )
        # Same query, same engine, deterministic counters: only the
        # timings could differ, and those are suppressed.
        assert deltas == []


# ----------------------------------------------------------------------
# engine integrations beyond the core engines
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_auto_records_selection(self, db):
        trace = QueryTrace()
        result = AutoEngine(db).evaluate(
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)"), trace=trace
        )
        assert trace.meta["auto"]["selected"] == result.engine
        assert trace.engine == result.engine

    def test_materialize_traces_its_own_ring(self, db):
        trace = QueryTrace()
        result = MaterializeEngine(db).evaluate(
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)"), trace=trace
        )
        assert trace.meta["materialized_pairs"] > 0
        assert "materialize" in trace.to_dict()["phases"]
        assert trace.wavelets["materialized_ring"].total > 0
        assert trace.solutions == len(result.solutions)
        validate_trace(trace.to_dict())

    def test_kstar_traces_winning_k(self, db):
        trace = QueryTrace()
        result = evaluate_k_star(
            RingKnnEngine(db),
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 1)"),
            k_star=1,
            max_k=5,
            trace=trace,
        )
        assert trace.meta["kstar"]["k"] == result.k
        assert trace.meta["kstar"]["evaluations"] == result.evaluations
        assert trace.stats, "winning k must have been re-run traced"
        validate_trace(trace.to_dict())


# ----------------------------------------------------------------------
# phases are the engine's spans
# ----------------------------------------------------------------------
#: The top-level keys of a trace document (TRACE_VERSION 1).
TRACE_KEYS = {
    "version", "engine", "query", "solutions", "elapsed", "timed_out",
    "stats", "phases", "variables", "ordering", "ordering_dropped",
    "relations", "wavelets", "meta",
}


class TestSpans:
    @pytest.mark.parametrize(
        "engine_class, names",
        [
            (BaselineEngine, {"bgp", "postprocess"}),
            (MaterializeEngine, {"materialize", "query"}),
        ],
    )
    def test_phases_are_per_name_span_sums(self, db, engine_class, names):
        trace = QueryTrace()
        engine_class(db).evaluate(
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)"), trace=trace
        )
        sums: dict[str, float] = {}
        for span in trace.spans.records:
            sums[span.name] = sums.get(span.name, 0.0) + span.seconds
        phases = trace.to_dict()["phases"]
        assert set(phases) == names
        assert phases == pytest.approx(sums)

    def test_shared_recorder_nests_engine_spans(self, db):
        """A trace opened inside a request's span sums only the engine's
        spans, which nest under that span."""
        spans = Spans(request=7)
        with spans.span("evaluate") as outer:
            trace = QueryTrace(spans=spans)
            RingKnnEngine(db).evaluate(
                parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)"), trace=trace
            )
        inner = [s for s in spans.records if s.parent == outer.id]
        assert [s.name for s in inner] == ["evaluate"]
        assert inner[0].request == 7
        assert inner[0].seconds <= outer.seconds
        assert trace.to_dict()["phases"] == {"evaluate": inner[0].seconds}

    def test_result_spans_are_the_trace_recorder(self, db):
        query = parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)")
        trace = QueryTrace()
        traced = BaselineEngine(db).evaluate(query, trace=trace)
        assert traced.spans is trace.spans
        plain = BaselineEngine(db).evaluate(query)
        assert plain.spans is not trace.spans
        assert set(plain.spans.totals()) == {"bgp", "postprocess"}

    def test_one_clock(self):
        """Only the span module reads a clock: every other duration in
        the package is stamped by ``spans.now``."""
        import ast
        from pathlib import Path

        import repro

        clocks = {"perf_counter", "perf_counter_ns", "monotonic",
                  "monotonic_ns", "time", "time_ns"}
        root = Path(repro.__file__).parent
        readers = set()
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            modules = {"time"} | {
                alias.asname for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "time"
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr in clocks
                ) or (
                    isinstance(node, ast.ImportFrom) and node.module == "time"
                    and any(a.name in clocks for a in node.names)
                ):
                    readers.add(path.relative_to(root).as_posix())
        assert readers == {"obs/spans.py"}

    def test_figure2_trace_documents_keep_their_keys(self, figure2):
        for family, queries in sorted(figure2.workload.items()):
            trace = QueryTrace()
            RingKnnEngine(figure2.db).evaluate(queries[0], trace=trace)
            document = trace.to_dict()
            assert set(document) == TRACE_KEYS, family
            assert set(document["phases"]) == {"evaluate"}, family
            validate_trace(document)


# ----------------------------------------------------------------------
# CLI and EXPLAIN ANALYZE
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "bench.npz"
    assert main(
        [
            "generate", "--out", str(path),
            "--entities", "60", "--images", "30",
            "--misc-triples", "200", "--K", "5",
        ]
    ) == 0
    return path


class TestCli:
    QUERY = "(?e, 0, ?img) . knn(?img, ?other, 3)"

    def test_trace_subcommand_stdout(self, bundle_path, capsys):
        code = main(
            ["trace", "--data", str(bundle_path), "--query", self.QUERY]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        validate_trace(document)
        assert document["query"] == self.QUERY
        assert document["variables"]
        assert document["relations"]

    def test_trace_subcommand_file(self, bundle_path, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--data", str(bundle_path),
                "--query", self.QUERY,
                "--engine", "ring-knn-s",
                "--out", str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        validate_trace(document)
        assert document["engine"] == "ring-knn-s"

    def test_explain_analyze_cli(self, bundle_path, capsys):
        code = main(
            [
                "explain", "--data", str(bundle_path),
                "--query", self.QUERY, "--analyze",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analyze (ring-knn):" in out
        assert "var ?img:" in out
        assert "wavelet ring:" in out
        assert "phase evaluate:" in out


class TestExplainAnalyze:
    def test_report_carries_trace(self, db):
        report = explain(
            db,
            parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)"),
            analyze=True,
        )
        assert report.analysis is not None
        assert report.analysis.stats["leap_calls"] > 0
        text = report.format()
        assert "analyze (ring-knn):" in text
        assert "totals: leaps=" in text
        assert "step 0: chose" in text
        validate_trace(report.analysis.to_dict())

    def test_static_explain_unchanged(self, db):
        report = explain(
            db, parse_query("(?x, 20, ?y) . knn(?x, ?y, 3)")
        )
        assert report.analysis is None
        assert "analyze" not in report.format()
