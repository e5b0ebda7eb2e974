"""``Solutions``: the row matrix an evaluation emits, read as the list of
binding dicts it replaced — and what the engine's three ways of handing
rows out (whole, one at a time, until the budget ran out) leave behind.

The pinned counters were taken on the commit before the last level
stopped binding (``run()`` abandoned after ``take`` solutions, and a
budget that runs out at the third poll): solutions, bindings and
attempts must not move; ``leap_calls`` may, where the last variable is
alone in its atom and is enumerated in one leap.
"""

import numpy as np
import pytest

import repro.ltj.engine as ltj_engine
from repro.cache import QueryCache
from repro.engines.ring_knn import RingKnnEngine
from repro.engines.result import QueryResult, Solutions
from repro.ltj.engine import LTJEngine
from repro.ltj.stats import EvaluationStats
from repro.query.model import Var
from repro.query.parser import parse_query

X, Y, Z = Var("x"), Var("y"), Var("z")
ROWS = [[1, 2], [3, 4], [1, 2], [5, 6]]
DICTS = [{X: a, Y: b} for a, b in ROWS]


@pytest.fixture()
def solutions() -> Solutions:
    return Solutions((X, Y), np.array(ROWS, dtype="<i8"))


class TestSequenceOfDicts:
    def test_len_index_and_negative_index(self, solutions):
        assert len(solutions) == 4
        assert solutions[0] == {X: 1, Y: 2}
        assert solutions[-1] == {X: 5, Y: 6}
        assert list(solutions[1]) == [X, Y]  # slot order
        assert all(type(v) is int for v in solutions[1].values())
        with pytest.raises(IndexError):
            solutions[4]

    def test_slice_keeps_the_type_and_the_variables(self, solutions):
        head = solutions[:2]
        assert isinstance(head, Solutions)
        assert head.variables == (X, Y)
        assert head == DICTS[:2]
        assert solutions[::-1] == DICTS[::-1]
        assert solutions[10:] == []

    def test_iteration_and_membership(self, solutions):
        assert list(solutions) == DICTS
        assert {X: 3, Y: 4} in solutions
        assert {X: 3, Y: 5} not in solutions
        assert solutions.count({X: 1, Y: 2}) == 2

    def test_equality_both_ways_against_lists_of_dicts(self, solutions):
        assert solutions == DICTS
        assert DICTS == solutions
        assert not (solutions != DICTS)
        assert solutions != DICTS[:3]
        assert DICTS[::-1] != solutions
        # Column order is representation, not content.
        swapped = Solutions((Y, X), np.array(ROWS, dtype="<i8")[:, ::-1])
        assert swapped == solutions
        assert solutions != Solutions((X, Z), np.array(ROWS, dtype="<i8"))
        assert solutions != "not a sequence of dicts"

    def test_repr_is_the_list_of_dicts(self, solutions):
        assert repr(solutions) == repr(DICTS)
        assert repr(solutions[:0]) == "[]"

    def test_from_dicts_round_trips_and_misses_loudly(self):
        packed = Solutions.from_dicts([{Y: 2, X: 1}, {X: 3, Y: 4}])
        assert packed.variables == (Y, X)
        assert packed.rows.dtype == np.dtype("<i8")
        assert packed == [{X: 1, Y: 2}, {X: 3, Y: 4}]
        with pytest.raises(KeyError):
            Solutions.from_dicts([{X: 1, Y: 2}, {X: 3}])
        # QueryResult packs what it is given.
        result = QueryResult("test", list(DICTS), EvaluationStats())
        assert isinstance(result.solutions, Solutions)
        assert result.solutions == DICTS

    def test_empty_and_zero_variable_answers(self, small_db):
        empty = Solutions.from_dicts([])
        assert len(empty) == 0 and not empty and list(empty) == []
        assert empty == [] and repr(empty) == "[]"
        engine = RingKnnEngine(small_db)
        none = engine.evaluate(parse_query("(?x, 20, ?y) . (?y, 20, ?x) . (?x, 21, ?x)"))
        assert none.solutions == [] and none.solutions.variables == (X, Y)
        assert none.solutions.rows.shape == (0, 2)
        triple = small_db.graph.spo[0].tolist()
        holds = engine.evaluate(parse_query("({}, {}, {})".format(*triple)))
        assert holds.solutions == [{}] and holds.solutions.rows.shape == (1, 0)
        assert holds.solutions[0] == {} and list(holds.solutions) == [{}]
        fails = engine.evaluate(parse_query("(0, 999, 0)"))
        assert fails.solutions == [] and fails.solutions.rows.shape == (0, 0)


class TestSelect:
    def test_project_distinct_limit_in_enumeration_order(self, solutions):
        assert solutions.select() == DICTS
        assert solutions.select(limit=3) == DICTS[:3]
        assert solutions.select(project=[Y]) == [{Y: 2}, {Y: 4}, {Y: 2}, {Y: 6}]
        assert solutions.select(distinct=True) == [DICTS[0], DICTS[1], DICTS[3]]
        first_seen = solutions.select(project=[X], distinct=True)
        assert first_seen == [{X: 1}, {X: 3}, {X: 5}]
        assert first_seen.variables == (X,)

    def test_limit_caps_the_enumeration_unless_rows_can_merge(self, solutions):
        # distinct alone: the first two rows, then dedup.
        assert solutions.select(distinct=True, limit=3) == DICTS[:2]
        assert solutions.select(project=[X], limit=3) == [{X: 1}, {X: 3}, {X: 1}]
        # project and distinct: dedup everything, then cap.
        assert solutions.select(project=[X], distinct=True, limit=3) == [
            {X: 1}, {X: 3}, {X: 5}
        ]
        assert solutions.select(project=[X], distinct=True, limit=0) == []

    def test_unknown_projection_variable_raises(self, solutions):
        with pytest.raises(KeyError):
            solutions.select(project=[Z])


def test_cache_hit_hands_out_the_stored_matrix_read_only(small_db):
    query = parse_query("(?x, 20, ?y) . knn(?x, ?y, 4)")
    cold = RingKnnEngine(small_db).evaluate(query)
    cache = QueryCache()
    assert cache.fill(small_db, query, cold)
    hit = cache.probe(small_db, query, engine="ring-knn")
    again = cache.probe(small_db, query, engine="ring-knn")
    assert hit.solutions == cold.solutions
    assert hit.solutions.rows is again.solutions.rows
    assert not hit.solutions.rows.flags.writeable
    with pytest.raises(ValueError):
        hit.solutions.rows[0, 0] = 99
    # The filling result keeps its own, untouched rows.
    assert cold.solutions.rows is not hit.solutions.rows


# ----------------------------------------------------------------------
# what the search leaves behind
# ----------------------------------------------------------------------
def _engine(db, text: str, **kwargs) -> LTJEngine:
    driver = RingKnnEngine(db)
    query = parse_query(text)
    return LTJEngine(
        driver.compile(query), ordering=driver._ordering(query), **kwargs
    )


# text, take -> (solutions, bindings, attempts), leap_calls, and whether
# the last variable is enumerated (alone in its atom). The counts are
# those of issue 18's parent commit, except the first query's leaps: the
# cyclic leapfrog of issue 19 needs fewer (36 / 53 / 111 there).
ABANDONED = [
    ("(?x, 20, ?y) . knn(?x, ?y, 4)", 1, (1, 6, 6), 29, False),
    ("(?x, 20, ?y) . knn(?x, ?y, 4)", 3, (3, 10, 10), 45, False),
    ("(?x, 20, ?y) . knn(?x, ?y, 4)", 7, (7, 21, 21), 98, False),
    ("(?x, 20, ?y) . (?y, 21, ?z)", 1, (1, 3, 3), 4, True),
    ("(?x, 20, ?y) . (?y, 21, ?z)", 3, (3, 7, 7), 11, True),
    ("(?x, 20, ?y) . (?y, 21, ?z)", 7, (7, 12, 12), 17, True),
    ("(?x, 20, ?y) . knn(?y, ?z, 3)", 3, (3, 5, 5), 6, True),
    ("(?x, 20, ?y) . knn(?y, ?z, 3)", 7, (7, 12, 12), 17, True),
]


@pytest.mark.parametrize("text, take, counts, leaps, enumerated", ABANDONED)
def test_abandoned_run_searched_no_further_than_asked(
    small_db, text, take, counts, leaps, enumerated
):
    engine = _engine(small_db, text)
    run = engine.run()
    taken = [next(run) for _ in range(take)]
    run.close()
    stats = engine.stats
    assert (stats.solutions, stats.bindings, stats.attempts) == counts
    if enumerated:
        assert stats.leap_calls <= leaps
    else:
        assert stats.leap_calls == leaps
    assert taken == _engine(small_db, text).evaluate()[:take]
    assert taken == _engine(small_db, text, limit=take).evaluate()


def test_run_and_evaluate_emit_the_same_rows(small_db):
    for text, *_ in ABANDONED[::3]:
        assert list(_engine(small_db, text).run()) == _engine(small_db, text).evaluate()


class ThirdPoll:
    """A budget that runs out at the third poll: the entry check,
    attempt 256, attempt 512."""

    def __init__(self, budget):
        self.polls = 0

    def expired(self):
        self.polls += 1
        return self.polls >= 3

    def elapsed(self):
        return 0.0


def test_timed_out_run_returns_the_prefix_emitted_so_far(small_db, monkeypatch):
    text = "(?a, ?p, ?b) . (?b, ?q, ?c)"
    full = RingKnnEngine(small_db).evaluate(parse_query(text))
    monkeypatch.setattr(ltj_engine, "Stopwatch", ThirdPoll)
    cut = RingKnnEngine(small_db).evaluate(parse_query(text), timeout=1.0)
    assert cut.timed_out and not full.timed_out
    stats = cut.stats
    # The 512th attempt is counted, not tried. Slots are numbered by first
    # occurrence, so ``?p`` is searched before ``?b`` (249 rows by then).
    assert (stats.solutions, stats.bindings, stats.attempts) == (249, 511, 512)
    assert len(cut.solutions) == 249
    assert cut.solutions == full.solutions[:249]


# ----------------------------------------------------------------------
# the per-query memo leaves with its query
# ----------------------------------------------------------------------
MEMOS = ("_memo_rank", "_memo_next", "_memo_values", "_memo_select")
# Ring and K-NN trees both; with one end of a pattern bound, the other
# end leaps on a 1-arc (the Ring's `select_next`), so all four memos fill.
MEMO_QUERY = "(?x, 20, ?y) . (?z, 21, ?y) . knn(?x, ?z, 5)"


def _memo_released(engine: LTJEngine) -> bool:
    return all(
        tree._memo_users == 0 and all(getattr(tree, m) is None for m in MEMOS)
        for tree in engine._trees
    )


def _complete(engine):
    engine.evaluate()


def _closed_after_first_row(engine):
    run = engine.run()
    next(run)
    run.close()


def _consumer_raises(engine):
    with pytest.raises(KeyError):
        for row in engine.run():
            raise KeyError(row)


@pytest.mark.parametrize(
    "kwargs, consume",
    [
        ({}, _complete),
        ({}, _closed_after_first_row),
        ({"timeout": 0}, _complete),
        ({"limit": 1}, _complete),
        ({"limit": 1}, lambda engine: list(engine.run())),
        ({}, _consumer_raises),
    ],
    ids=["evaluate", "run-closed", "timeout-0", "limit-1", "run-limit-1", "raises"],
)
def test_memo_leaves_with_its_query(small_db, kwargs, consume):
    engine = _engine(small_db, MEMO_QUERY, **kwargs)
    assert engine._trees and _memo_released(engine)
    consume(engine)
    assert _memo_released(engine)
    assert engine.stats.timed_out == ("timeout" in kwargs)


def test_memo_leaves_when_the_budget_expires_mid_search(small_db, monkeypatch):
    monkeypatch.setattr(ltj_engine, "Stopwatch", ThirdPoll)
    engine = _engine(small_db, "(?a, ?p, ?b) . (?b, ?q, ?c)", timeout=1.0)
    engine.evaluate()
    assert engine.stats.timed_out and engine.stats.solutions
    assert _memo_released(engine)


def test_overlapping_runs_share_the_memo_until_the_last_one_ends(small_db):
    first = _engine(small_db, MEMO_QUERY)
    second = _engine(small_db, MEMO_QUERY)
    shared = [tree for tree in first._trees if tree in second._trees]
    assert shared
    run_a, run_b = first.run(), second.run()
    next(run_a)
    rows = [next(run_b)]
    assert all(tree._memo_users == 2 for tree in shared)
    assert any(tree._memo_select for tree in shared)
    held = [(tree, m, getattr(tree, m)) for tree in second._trees for m in MEMOS]
    run_a.close()
    assert all(getattr(tree, m) is memo for tree, m, memo in held)
    assert all(tree._memo_users == 1 for tree in shared)
    rows += list(run_b)
    assert rows == _engine(small_db, MEMO_QUERY).evaluate()
    assert _memo_released(second)
