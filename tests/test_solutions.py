"""``Solutions``: the flat int64 rows an evaluation emits, read as the list
of binding dicts it replaced — and what the engine's three ways of handing
rows out (whole, one at a time, until the budget ran out) leave behind.

The pinned counters were taken on the commit before the last level
stopped binding (``run()`` abandoned after ``take`` solutions, and a
budget that runs out at the third poll): solutions, bindings and
attempts must not move; ``leap_calls`` may, where the last variable is
alone in its atom and is enumerated in one leap. A 600-value leaf
pins where a limit, an abandoned ``run()`` and a spent budget cut a
report that is emitted in blocks.
"""

import sys
import threading
from array import array

import pytest

import repro.ltj.engine as ltj_engine
from repro.cache import QueryCache
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine
from repro.engines.result import QueryResult, Solutions
from repro.graph.triples import GraphData
from repro.ltj.engine import LTJEngine
from repro.ltj.stats import EvaluationStats
from repro.query.model import Var
from repro.query.parser import parse_query
from repro.succinct import wavelet_tree

X, Y, Z = Var("x"), Var("y"), Var("z")
ROWS = [[1, 2], [3, 4], [1, 2], [5, 6]]
FLAT = array("q", [value for row in ROWS for value in row])
DICTS = [{X: a, Y: b} for a, b in ROWS]


@pytest.fixture()
def solutions() -> Solutions:
    return Solutions.from_flat((X, Y), array("q", FLAT), len(ROWS))


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
        swapped = Solutions.from_flat((Y, X), solutions.columns((Y, X)), 4)
        assert swapped == solutions
        assert solutions != Solutions.from_flat((X, Z), FLAT, 4)
        assert solutions != "not a sequence of dicts"

    def test_repr_is_the_list_of_dicts(self, solutions):
        assert repr(solutions) == repr(DICTS)
        assert repr(solutions[:0]) == "[]"

    def test_from_dicts_round_trips_and_misses_loudly(self):
        packed = Solutions.from_dicts([{Y: 2, X: 1}, {X: 3, Y: 4}])
        assert packed.variables == (Y, X)
        assert packed.columns((X, Y)) == array("q", [1, 2, 3, 4])
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
        assert none.solutions.columns((Y, X)) == array("q")
        triple = small_db.graph.spo[0].tolist()
        holds = engine.evaluate(parse_query("({}, {}, {})".format(*triple)))
        assert holds.solutions == [{}] and len(holds.solutions) == 1
        assert holds.solutions.variables == ()
        assert holds.solutions.columns(()) == array("q")
        assert holds.solutions[0] == {} and list(holds.solutions) == [{}]
        fails = engine.evaluate(parse_query("(0, 999, 0)"))
        assert fails.solutions == [] and fails.solutions.variables == ()


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


def test_columns_permute_and_copy_the_rows(solutions):
    assert solutions.columns((Y, X)) == array("q", [2, 1, 4, 3, 2, 1, 6, 5])
    assert solutions.columns((Y,)) == array("q", [2, 4, 2, 6])
    assert solutions.columns(()) == array("q")
    same = solutions.columns((X, Y))
    assert same == FLAT
    same[0] = 99
    assert solutions[0] == {X: 1, Y: 2}
    with pytest.raises(KeyError):
        solutions.columns((X, Z))
    # an empty answer has no row to miss a variable in
    assert Solutions.from_dicts([]).columns((X, Z)) == array("q")


def test_a_cache_hit_cannot_change_the_stored_entry(small_db):
    """A hit cannot change the stored entry, and the filling result keeps
    its own rows: neither a hit's nor the filler's buffer is the
    entry's."""
    query = parse_query("(?x, 20, ?y) . knn(?x, ?y, 4)")
    cold = RingKnnEngine(small_db).evaluate(query)
    kept = list(cold.solutions)
    cache = QueryCache()
    assert cache.fill(small_db, query, cold)
    cold.solutions._flat[0] += 99  # the filling result writes its rows
    hit = cache.probe(small_db, query, engine="ring-knn")
    assert hit.solutions == kept != cold.solutions
    hit.solutions._flat[0] += 99  # so does a reader of the hit
    assert cache.probe(small_db, query, engine="ring-knn").solutions == kept


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


def test_a_reused_engine_starts_from_the_compiled_plan(small_db, monkeypatch):
    """An abandoned ``run()`` and a spent budget leave the search deep in
    its plan; the engine's next evaluation must not start from there."""

    def answer(engine):
        rows = engine.evaluate()
        stats = engine.stats.replace(elapsed=0.0)
        return rows, stats

    text = "(?x, 20, ?y) . knn(?x, ?y, 4)"
    fresh = answer(_engine(small_db, text))
    engine = _engine(small_db, text)
    run = engine.run()
    for _ in range(2):
        next(run)
    run.close()
    assert answer(engine) == fresh
    assert list(engine.run()) == fresh[0]

    text = "(?a, ?p, ?b) . (?b, ?q, ?c)"
    fresh = answer(_engine(small_db, text, timeout=60.0))
    engine = _engine(small_db, text, timeout=60.0)
    with monkeypatch.context() as patched:
        patched.setattr(ltj_engine, "Stopwatch", ThirdPoll)
        engine.evaluate()
        assert engine.stats.timed_out
    assert answer(engine) == fresh


# ----------------------------------------------------------------------
# a long lonely leaf: every cut point falls inside one report
# ----------------------------------------------------------------------
# Subject 1 has 600 objects on predicate 20 and subject 0 three. Under
# ``(1, 20, ?y)`` the leaf is the whole search; under ``(?x, 20, ?y)``
# (``?x`` first) the leaf of ``?x = 1`` starts at attempt 6, so neither
# a poll nor a limit falls on a chunk boundary by accident. The counts
# (solutions, bindings, attempts, leap_calls) are those of the commit
# before leaves emitted as blocks.
WIDE = ("(1, 20, ?y)", "(?x, 20, ?y)")
WIDE_LIMIT = {
    1: ((1, 1, 1, 1), (1, 2, 2, 2)),
    255: ((255, 255, 255, 1), (255, 257, 257, 4)),
    256: ((256, 256, 256, 1), (256, 258, 258, 4)),
    257: ((257, 257, 257, 1), (257, 259, 259, 4)),
    599: ((599, 599, 599, 1), (599, 601, 601, 4)),
}
WIDE_TAKE = {
    1: ((1, 1, 1, 1), (1, 2, 2, 2)),
    256: ((256, 256, 256, 1), (256, 258, 258, 4)),
    300: ((300, 300, 300, 1), (300, 302, 302, 4)),
}


class SecondPoll(ThirdPoll):
    """A budget that runs out at the second poll: attempt 256."""

    def expired(self):
        return super().expired() or self.polls >= 2


# a budget that runs out at attempt 256 or 512
WIDE_POLL = {
    SecondPoll: ((255, 255, 256, 1), (253, 255, 256, 4)),
    ThirdPoll: ((511, 511, 512, 1), (509, 511, 512, 4)),
}


@pytest.fixture(scope="module")
def wide_db() -> GraphDatabase:
    triples = [(0, 20, o) for o in (700, 701, 702)]
    triples += [(1, 20, o) for o in range(2, 602)]
    return GraphDatabase(GraphData(triples))


def _counts(stats: EvaluationStats) -> tuple[int, int, int, int]:
    return stats.solutions, stats.bindings, stats.attempts, stats.leap_calls


@pytest.mark.parametrize("which", range(len(WIDE)))
def test_a_long_leaf_is_cut_where_one_row_at_a_time_was(wide_db, which, monkeypatch):
    """A limit, an abandoned ``run()`` and an expired budget stop a long
    leaf at the very row, and with the very counts, of emitting it one
    row at a time; the 256th attempt of a spent budget is counted, not
    emitted."""
    text = WIDE[which]
    engine = _engine(wide_db, text)
    full = engine.evaluate()
    assert len(full) == (600, 603)[which]
    assert engine.stats.first_descent_order == [X, Y][1 - which :]
    for limit, counts in WIDE_LIMIT.items():
        engine = _engine(wide_db, text, limit=limit)
        assert engine.evaluate() == full[:limit]
        assert _counts(engine.stats) == counts[which], limit
    for take, counts in WIDE_TAKE.items():
        engine = _engine(wide_db, text)
        run = engine.run()
        taken = [next(run) for _ in range(take)]
        run.close()
        assert taken == full[:take]
        assert _counts(engine.stats) == counts[which], take
    for budget, counts in WIDE_POLL.items():
        monkeypatch.setattr(ltj_engine, "Stopwatch", budget)
        engine = _engine(wide_db, text, timeout=1.0)
        cut = engine.evaluate()
        assert engine.stats.timed_out
        assert _counts(engine.stats) == counts[which], budget
        assert cut == full[: counts[which][0]]


# ----------------------------------------------------------------------
# the memo lives as long as its tree
# ----------------------------------------------------------------------
MEMOS = ("_memo_rank", "_memo_next", "_memo_values", "_memo_select")
# 72 distinct queries over Ring and K-NN trees both; with one end of a
# pattern bound, the other end leaps on a 1-arc (the Ring's
# `select_next`), so the rank, report and select memos fill, and a
# clause whose lonely `x` is bound last places backward ranges.
P = (20, 21, 22)
MANY_QUERIES = (
    [f"(?x, {p}, ?y) . knn(?x, ?z, {k})" for p in P for k in range(1, 6)]
    + [f"(?x, {p}, ?y) . knn(?y, ?x, {k})" for p in P for k in range(1, 6)]
    + [f"(?x, {p}, ?y) . knn(?z, ?y, {k})" for p in P for k in range(1, 6)]
    + [f"(?x, {p}, ?y) . (?y, {q}, ?z)" for p in P for q in P]
    + [
        f"(?x, {p}, ?y) . (?z, {q}, ?y) . knn(?x, ?z, {k})"
        for p in P
        for q in P
        for k in (2, 5)
    ]
)


def _trees(db) -> list:
    trees = [db.ring.column(coord) for coord in "spo"]
    for knn_ring in db.knn_rings.values():
        trees += [knn_ring.S, knn_ring.Sprime]
    return trees


def _answer(db, text: str):
    result = RingKnnEngine(db).evaluate(parse_query(text))
    return list(result.solutions), result.stats.replace(elapsed=0.0)


def test_the_caps_bound_a_memo_that_never_ends(small_graph, small_knn, monkeypatch):
    """No query drops the memo any more, so only the caps bound it:
    with them small, every dict of every tree and each K-NN ring's
    backward-range memo stay within the cap after each of many distinct
    queries, ``_memo_held`` is the symbols the report memo holds, and
    every answer and count is the uncapped one."""
    uncapped = GraphDatabase(small_graph, small_knn)
    expected = [_answer(uncapped, text) for text in MANY_QUERIES]
    cap, symbols = 16, 24
    # the uncapped memos outgrew both caps, so the capped ones restarted
    assert max(len(getattr(t, m)) for t in _trees(uncapped) for m in MEMOS) > cap
    assert max(t._memo_held for t in _trees(uncapped)) > symbols
    assert max(len(r._memo_backward) for r in uncapped.knn_rings.values()) > cap
    monkeypatch.setattr(wavelet_tree, "_MEMO_CAP", cap)
    monkeypatch.setattr(wavelet_tree, "_MEMO_SYMBOLS", symbols)
    db = GraphDatabase(small_graph, small_knn)
    for text, want in zip(MANY_QUERIES, expected):
        assert _answer(db, text) == want, text
        for tree in _trees(db):
            assert all(len(getattr(tree, m)) <= cap for m in MEMOS)
            assert tree._memo_held == sum(map(len, tree._memo_values.values()))
            assert tree._memo_held <= symbols
        for ring in db.knn_rings.values():
            assert len(ring._memo_backward) <= cap


def test_threads_share_one_database_and_its_memos(small_graph, small_knn, monkeypatch):
    """Four threads (more than the cores CI has) evaluate different
    queries over one database, round after round, switching often and
    with caps small enough that one thread's restart of a tree's memo or
    a K-NN ring's backward-range memo lands in the middle of another's
    search: each result is the serial answer with the serial counters."""
    reference = GraphDatabase(small_graph, small_knn)
    shares = [MANY_QUERIES[i::4] for i in range(4)]
    expected = [[_answer(reference, text) for text in share] for share in shares]
    monkeypatch.setattr(wavelet_tree, "_MEMO_CAP", 64)
    monkeypatch.setattr(wavelet_tree, "_MEMO_SYMBOLS", 96)
    db = GraphDatabase(small_graph, small_knn)
    wrong = []

    def loop(queries, want):
        for _ in range(3):
            for text, answer in zip(queries, want):
                try:
                    if _answer(db, text) != answer:
                        wrong.append(text)
                except Exception as exc:  # a thread's error fails the test
                    wrong.append((text, repr(exc)))

    threads = [threading.Thread(target=loop, args=pair) for pair in zip(shares, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_a_leaf_neither_keeps_nor_changes_the_memo_report(wide_db):
    """The leaf reads the tree's memoized report in place: evaluating
    twice leaves the same object in the memo, with the same symbols."""
    _engine(wide_db, WIDE[0]).evaluate()
    reports = [
        (memo, key, report, list(report))
        for memo in (wide_db.ring.column(c)._memo_values for c in "spo")
        for key, report in memo.items()
        if len(report) == 600
    ]
    assert reports
    _engine(wide_db, WIDE[0]).evaluate()
    for memo, key, report, symbols in reports:
        assert memo[key] is report
        assert list(report) == symbols
