"""Invariants of the query-trace recorder across engines.

Three families:

* counter arithmetic — per-variable leaps bound the intersection
  members emitted (unless the variable was enumerated: the last
  variable of a branch, alone in its atom, gets all its candidates from
  one leap), which bound the bindings; variable counters add up
  to the engine's :class:`EvaluationStats` totals; every value a
  variable takes in a solution was emitted as a candidate at least
  once;
* zero-interference — tracing changes no result and no engine counter,
  and a disabled (``trace=None``) run leaves no recorder attached to
  any shared structure;
* early-exit — abandoning a solution generator still finalizes stats
  and the trace (the ``finally`` contract of :meth:`LTJEngine.run`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.baseline import BaselineEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.distance_index import DistanceRangeIndex
from repro.ltj.engine import LTJEngine
from repro.ltj.triple_relation import RingTripleRelation
from repro.obs import QueryTrace, validate_trace
from repro.query.parser import parse_query

TRACED_ENGINES = [
    RingKnnEngine,
    RingKnnSEngine,
    ClassicSixPermEngine,
    BaselineEngine,
]

MIXED_QUERIES = [
    "(?x, 20, ?y) . knn(?x, ?y, 4)",
    "(?x, 20, ?y) . (?y, 21, ?z) . knn(?x, ?z, 3)",
    "(?x, 20, ?y) . knn(?x, ?y, 3) . dist(?y, ?z, 1.2)",
    "(?x, 20, ?y) . sim(?x, ?y, 5)",
    # ?z ends every branch alone in a triple pattern: enumerated, by a
    # range report (Ring) or the base class's leap loop (six tries).
    "(?x, 20, ?y) . knn(?x, ?y, 4) . (?y, 21, ?z)",
]


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(5)
    triples = [
        (
            int(rng.integers(0, 15)),
            int(20 + rng.integers(0, 2)),
            int(rng.integers(0, 15)),
        )
        for _ in range(80)
    ]
    points = rng.normal(size=(15, 2))
    knn = build_knn_graph_bruteforce(points, K=5)
    index = DistanceRangeIndex(points, d_max=2.0)
    return GraphDatabase(GraphData(triples), knn, distance_index=index)


def _traced(engine_cls, db, text):
    query = parse_query(text)
    trace = QueryTrace()
    result = engine_cls(db).evaluate(query, trace=trace)
    return result, trace


@pytest.mark.parametrize("text", MIXED_QUERIES)
@pytest.mark.parametrize("engine_cls", TRACED_ENGINES)
def test_per_variable_counter_ordering(engine_cls, db, text):
    """leaps >= candidates >= bindings, per variable — the first only
    where no level was enumerated, which takes a single-atom variable;
    an enumeration is one leap, so a leap per choice is the floor."""
    result, trace = _traced(engine_cls, db, text)
    assert trace.variables, "trace recorded no variables"
    for var, c in trace.variables.items():
        assert c.leaps >= (c.candidates if c.fanout > 1 else c.times_chosen), var
        assert c.candidates >= c.bindings, var
        assert c.candidates == c.bindings + c.failed_bindings, var
        assert c.times_chosen >= 1
        assert c.fanout >= 1


@pytest.mark.parametrize("text", MIXED_QUERIES)
@pytest.mark.parametrize("engine_cls", TRACED_ENGINES)
def test_candidates_cover_solution_values(engine_cls, db, text):
    """Every value a variable takes in some solution was emitted (and
    bound) at least once — so candidate counts bound the distinct
    values per variable, not the total solution count."""
    result, trace = _traced(engine_cls, db, text)
    per_var_values: dict = {}
    for solution in result.solutions:
        for var, value in solution.items():
            per_var_values.setdefault(var, set()).add(value)
    for var, values in per_var_values.items():
        # The baseline extends clause-only variables outside LTJ, so
        # those variables legitimately have no trace entry.
        if var not in trace.variables:
            assert engine_cls is BaselineEngine
            continue
        assert trace.variables[var].candidates >= len(values)
        assert trace.variables[var].bindings >= len(values)


@pytest.mark.parametrize("text", MIXED_QUERIES)
@pytest.mark.parametrize("engine_cls", TRACED_ENGINES)
def test_variable_counters_sum_to_stats(engine_cls, db, text):
    result, trace = _traced(engine_cls, db, text)
    totals = trace.stats
    assert totals["leap_calls"] == sum(
        c.leaps for c in trace.variables.values()
    )
    assert totals["attempts"] == sum(
        c.candidates for c in trace.variables.values()
    )
    assert totals["bindings"] == sum(
        c.bindings for c in trace.variables.values()
    )
    assert trace.solutions == len(result.solutions)
    # Every engine leap lands in exactly one relation adapter.
    assert totals["leap_calls"] == sum(r.leaps for r in trace.relations)
    validate_trace(trace.to_dict())


@pytest.mark.parametrize("text", MIXED_QUERIES)
def test_tracing_does_not_change_results_or_stats(db, text):
    query = parse_query(text)
    plain = RingKnnEngine(db).evaluate(query)
    traced = RingKnnEngine(db).evaluate(query, trace=QueryTrace())
    assert traced.sorted_solutions() == plain.sorted_solutions()
    assert traced.stats.leap_calls == plain.stats.leap_calls
    assert traced.stats.attempts == plain.stats.attempts
    assert traced.stats.bindings == plain.stats.bindings
    assert traced.stats.solutions == plain.stats.solutions


def test_disabled_run_attaches_no_recorders(db):
    query = parse_query(MIXED_QUERIES[0])
    engine = RingKnnEngine(db)
    relations = engine.compile(query)
    assert all(rel.obs is None for rel in relations)
    engine.evaluate(query)
    for coord in "spo":
        assert db.ring.column(coord).ops is None
    assert db.knn_ring.S.ops is None
    assert db.knn_ring.Sprime.ops is None
    assert db.distance_index.D.ops is None


def test_traced_run_detaches_wavelet_recorders(db):
    query = parse_query(MIXED_QUERIES[2])
    trace = QueryTrace()
    RingKnnEngine(db).evaluate(query, trace=trace)
    assert trace.wavelets["ring"].total > 0
    for coord in "spo":
        assert db.ring.column(coord).ops is None
    assert db.knn_ring.S.ops is None
    assert db.distance_index.D.ops is None


# ----------------------------------------------------------------------
# generator early-exit (the stats-finalization regression)
# ----------------------------------------------------------------------
def test_run_finalizes_stats_on_early_close(db):
    """Breaking out of ``run()`` used to leave ``elapsed`` unset."""
    query = parse_query("(?x, 20, ?y)")
    engine = RingKnnEngine(db)
    ltj = LTJEngine(
        [RingTripleRelation(db.ring, t) for t in query.triples],
        trace=None,
    )
    run = ltj.run()
    first = next(run)
    assert first
    assert ltj.stats.elapsed == 0.0  # not yet finalized mid-iteration
    run.close()
    assert ltj.stats.elapsed > 0.0
    assert not ltj.stats.timed_out


def test_run_finalizes_trace_on_early_close(db):
    query = parse_query(MIXED_QUERIES[0])
    trace = QueryTrace()
    engine = RingKnnEngine(db)
    relations = engine.compile(query)
    ltj = LTJEngine(relations, trace=trace)
    run = ltj.run()
    next(run)
    run.close()
    assert trace.elapsed > 0.0
    assert trace.stats["leap_calls"] == ltj.stats.leap_calls


def test_projection_distinct_limit_finalizes_stats(db):
    """The engine's project/distinct path breaks out of the generator;
    stats (and the trace) must still be finalized."""
    query = parse_query(MIXED_QUERIES[0])
    trace = QueryTrace()
    result = RingKnnEngine(db).evaluate(
        query,
        project=list(query.variables)[:1],
        distinct=True,
        limit=1,
        trace=trace,
    )
    assert len(result.solutions) == 1
    assert result.stats.elapsed > 0.0
    assert trace.elapsed > 0.0
