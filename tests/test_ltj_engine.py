"""Tests for the LTJ engine on plain BGPs (classic behavior, Sec. 2.2)."""

import hashlib
import itertools
import json
from bisect import bisect_left
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine
from repro.graph.naive import evaluate_naive
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph
from repro.knn.distance_index import DistanceRangeIndex
from repro.ltj import engine as ltj_engine
from repro.ltj.engine import LTJEngine
from repro.ltj.ordering import FixedOrdering
from repro.ltj.plan import JoinPlan
from repro.ltj.relation import LeapRelation
from repro.ltj.triple_relation import RingTripleRelation
from repro.query.model import ExtendedBGP, TriplePattern, Var
from repro.query.parser import parse_query
from repro.ring.index import NEXT_COORD, PREV_COORD, RingIndex
from repro.utils.errors import QueryError


def run_bgp(graph: GraphData, query: ExtendedBGP, **kwargs):
    ring = RingIndex(graph)
    relations = [RingTripleRelation(ring, t) for t in query.triples]
    engine = LTJEngine(relations, **kwargs)
    return engine, engine.evaluate()


def canonical(solutions):
    return sorted(
        tuple(sorted((v.name, c) for v, c in s.items())) for s in solutions
    )


class TestBasicJoins:
    def test_single_pattern_scan(self, small_graph):
        q = parse_query("(?x, 20, ?y)")
        _engine, sols = run_bgp(small_graph, q)
        assert canonical(sols) == canonical(evaluate_naive(q, small_graph))

    def test_path_join(self, small_graph):
        q = parse_query("(?x, 20, ?y) . (?y, 21, ?z)")
        _engine, sols = run_bgp(small_graph, q)
        assert canonical(sols) == canonical(evaluate_naive(q, small_graph))

    def test_triangle_join(self, small_graph):
        q = parse_query("(?x, 20, ?y) . (?y, 20, ?z) . (?z, 20, ?x)")
        _engine, sols = run_bgp(small_graph, q)
        assert canonical(sols) == canonical(evaluate_naive(q, small_graph))

    def test_variable_predicate(self, small_graph):
        q = parse_query("(?x, ?p, ?y) . (?y, ?p, ?x)")
        _engine, sols = run_bgp(small_graph, q)
        assert canonical(sols) == canonical(evaluate_naive(q, small_graph))

    def test_repeated_variable_in_pattern(self, small_graph):
        q = parse_query("(?x, 20, ?x)")
        _engine, sols = run_bgp(small_graph, q)
        assert canonical(sols) == canonical(evaluate_naive(q, small_graph))

    def test_constants_narrow(self, small_graph):
        some = list(small_graph)[0]
        q = ExtendedBGP([TriplePattern(some[0], some[1], Var("o"))])
        _engine, sols = run_bgp(small_graph, q)
        expected = {
            (int(r[2]),)
            for r in small_graph.matching(some[0], some[1], None)
        }
        assert {(s[Var("o")],) for s in sols} == expected

    def test_empty_result(self, small_graph):
        q = parse_query("(?x, 19, ?y)")  # predicate 19 unused
        _engine, sols = run_bgp(small_graph, q)
        assert sols == []

    def test_diamond_motif(self, small_graph):
        """The Twitter diamond of the introduction (all one predicate)."""
        q = parse_query(
            "(?x, 20, ?y) . (?x, 20, ?z) . (?y, 20, ?z) . (?y, 20, ?w) . (?z, 20, ?w)"
        )
        _engine, sols = run_bgp(small_graph, q)
        assert canonical(sols) == canonical(evaluate_naive(q, small_graph))


class TestEngineControls:
    def test_limit_truncates(self, small_graph):
        q = parse_query("(?x, 20, ?y)")
        _engine, all_sols = run_bgp(small_graph, q)
        engine, limited = run_bgp(small_graph, q, limit=3)
        assert len(limited) == 3
        assert len(all_sols) > 3
        assert not engine.stats.timed_out

    def test_timeout_flag(self, small_graph):
        q = parse_query("(?a, ?b, ?c) . (?c, ?d, ?e) . (?e, ?f, ?g)")
        engine, _sols = run_bgp(small_graph, q, timeout=0.0)
        assert engine.stats.timed_out

    def test_stats_populated(self, small_graph):
        q = parse_query("(?x, 20, ?y) . (?y, 21, ?z)")
        engine, sols = run_bgp(small_graph, q)
        assert engine.stats.solutions == len(sols)
        assert engine.stats.bindings >= len(sols)
        assert engine.stats.attempts >= engine.stats.bindings
        assert engine.stats.leap_calls > 0
        assert engine.stats.elapsed >= 0
        assert engine.stats.first_descent_order  # at least one choice made

    def test_fixed_ordering_same_answers(self, small_graph):
        q = parse_query("(?x, 20, ?y) . (?y, 21, ?z)")
        ring = RingIndex(small_graph)
        baseline = canonical(run_bgp(small_graph, q)[1])
        import itertools

        for order in itertools.permutations([Var("x"), Var("y"), Var("z")]):
            relations = [RingTripleRelation(ring, t) for t in q.triples]
            engine = LTJEngine(relations, ordering=FixedOrdering(list(order)))
            assert canonical(engine.evaluate()) == baseline

    def test_no_relations_rejected(self):
        with pytest.raises(QueryError):
            LTJEngine([])

    def test_run_is_a_generator(self, small_graph):
        q = parse_query("(?x, 20, ?y)")
        ring = RingIndex(small_graph)
        engine = LTJEngine(
            [RingTripleRelation(ring, t) for t in q.triples]
        )
        it = engine.run()
        first = next(it)
        assert isinstance(first, dict)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 6)),
        min_size=3,
        max_size=40,
    ),
    st.data(),
)
def test_random_bgps_match_naive(triples, data):
    """Random 2-pattern BGPs over random graphs match brute force."""
    graph = GraphData(triples)
    terms = [Var("a"), Var("b"), Var("c"), 0, 1, 2]
    patterns = []
    for _ in range(data.draw(st.integers(1, 2))):
        s = data.draw(st.sampled_from(terms))
        p = data.draw(st.sampled_from([Var("p"), 0, 1, 2, 3]))
        o = data.draw(st.sampled_from(terms))
        patterns.append(TriplePattern(s, p, o))
    query = ExtendedBGP(patterns)
    ring = RingIndex(graph)
    engine = LTJEngine([RingTripleRelation(ring, t) for t in patterns])
    assert canonical(engine.evaluate()) == canonical(
        evaluate_naive(query, graph)
    )


class SortedSetRelation(LeapRelation):
    """A unary atom over a sorted list: the stub the intersection loop is
    held against. It is never bound — its variable is always its last
    free position — and says so loudly."""

    kind = "triple"

    def __init__(self, var: Var, members) -> None:
        self.terms = (var,)
        self._members = sorted(set(members))

    def seeker(self, pos: int):
        members = self._members

        def seek(lower: int):
            at = bisect_left(members, lower)
            return members[at] if at < len(members) else None

        return seek

    def bind(self, pos: int, value: int) -> bool:
        raise AssertionError("bind at an atom's last free position")

    def unbind(self, pos: int) -> None:
        raise AssertionError("unbind at an atom's last free position")

    def estimate(self, pos: int) -> int:
        return len(self._members)


class TestIntersection:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 40), max_size=30), min_size=2, max_size=4
        )
    )
    def test_sorted_set_intersection_within_the_leap_bound(self, sets):
        x = Var("x")
        engine = LTJEngine([SortedSetRelation(x, m) for m in sets])
        found = [row[x] for row in engine.evaluate()]
        assert found == sorted(set.intersection(*map(set, sets)))
        smallest = min(len(set(members)) for members in sets)
        assert engine.stats.leap_calls <= len(sets) * (smallest + 1)
        assert engine.stats.attempts == len(found)

    def disjoint(self, **kwargs):
        evens = SortedSetRelation(Var("x"), range(0, 200_000, 2))
        odds = SortedSetRelation(Var("x"), range(1, 200_000, 2))
        return LTJEngine([evens, odds], **kwargs)

    def test_zero_budget_on_a_rejecting_intersection(self):
        engine = self.disjoint(timeout=0.0)
        assert len(engine.evaluate()) == 0
        assert engine.stats.timed_out

    def test_budget_is_polled_while_nothing_is_found(self, monkeypatch):
        """No candidate ever comes out of this intersection, so nothing
        polls per attempt: the 1,024th leap must."""

        class SecondPoll:
            def __init__(self, budget):
                self.polls = 0

            def expired(self):
                self.polls += 1
                return self.polls >= 2

            def elapsed(self):
                return 0.0

        monkeypatch.setattr(ltj_engine, "Stopwatch", SecondPoll)
        engine = self.disjoint(timeout=1.0)
        assert len(engine.evaluate()) == 0
        assert engine.stats.timed_out
        assert (engine.stats.attempts, engine.stats.leap_calls) == (0, 1024)


# ----------------------------------------------------------------------
# every bind case under every order
# ----------------------------------------------------------------------
BIND_CASES = (
    # Patterns with no, one and two constants: the first binds a 1-arc,
    # then a 2-arc either way round; the second its one fixed 2-arc; the
    # third is only leaped (its one variable is never bound).
    "(?x, ?p, ?y) . (?y, 30, ?z) . (?z, 31, 4)",
    # A repeated variable: a 1-arc then a 2-arc, or a 2-arc then a count.
    "(?x, 30, ?x) . (?x, ?p, ?y)",
    # Q5's lonely (?y, ?l1, ?l2) beside a K-NN clause.
    "(?x, 30, ?y) . (?x, 30, ?v) . knn(?y, ?v, 3) . (?y, ?l1, ?l2)",
    "(?x, 31, ?y) . dist(?y, ?z, 0.4) . (?z, 30, ?w)",
)
# Per case and order: the number of Ring binds and a digest of their
# frames, recorded from the branching bind that preceded the resolved
# binders. Not to be regenerated from the code it checks.
BIND_FRAMES = Path(__file__).parent / "golden" / "bind_frames.json"


@pytest.fixture(scope="module")
def bind_case_db():
    rng = np.random.default_rng(48)
    n = 12
    graph = GraphData(
        [
            (int(rng.integers(0, n)), int(30 + rng.integers(0, 2)),
             int(rng.integers(0, n)))
            for _ in range(60)
        ]
    )
    points = rng.uniform(size=(n, 2))
    knn = build_knn_graph(points, K=4)
    distances = {
        (i, j): float(np.hypot(*(points[i] - points[j])))
        for i in range(n) for j in range(n) if i != j
    }
    db = GraphDatabase(graph, knn, DistanceRangeIndex(points, d_max=0.8))
    return db, graph, knn, distances


def slow_frame(spo, tables, bound):
    """A Ring frame's (bound, arc_first, lo, hi, matches, stored) for the
    coordinates ``bound`` in bind order, from the raw triples: the arc's
    rows in ``tables[first]``, the triples rotated to start at the arc's
    first coordinate and sorted."""
    coords = [coord for coord, _value in bound]
    first = coords[0]
    if len(coords) > 1 and NEXT_COORD[coords[1]] == coords[0]:
        first = coords[1]
    table = tables[first]
    values = dict(bound)
    arc = tuple(values[c] for c in (first, NEXT_COORD[first])[:len(coords)])
    lo = bisect_left(table, arc)
    hi = bisect_left(table, (*arc, 1 << 62)) - 1
    if hi < lo:
        lo, hi = 0, -1
    matches = sum(
        all(row["spo".index(c)] == v for c, v in bound) for row in spo
    )
    stored = PREV_COORD[first] if len(bound) < 3 else None
    return [[list(pair) for pair in bound], first, lo, hi, matches, stored]


def test_every_bind_case_under_every_order(bind_case_db):
    """Each FixedOrdering of the bind cases answers as the naive oracle,
    and each Ring bind the plan makes (through the binder its relation
    resolved) leaves the frame the raw triples give — the same frames,
    bind for bind, that the branching bind made before the binders were
    resolved once (their digests are pinned)."""
    db, graph, knn, distances = bind_case_db
    spo = [tuple(int(v) for v in row) for row in graph.spo]
    tables = {
        first: sorted(
            tuple(row[("spo".index(first) + i) % 3] for i in range(3))
            for row in spo
        )
        for first in "spo"
    }
    pinned = json.loads(BIND_FRAMES.read_text())
    for text in BIND_CASES:
        query = parse_query(text)
        expected = canonical(evaluate_naive(query, graph, knn, distances))
        variables = JoinPlan(RingKnnEngine(db).compile(query)).state.variables
        for order in itertools.permutations(variables):
            relations = RingKnnEngine(db).compile(query)
            frames: list[list] = []
            for relation in relations:
                if isinstance(relation, RingTripleRelation):
                    relation.resolve = partial(
                        _recording, relation, relation.resolve, frames
                    )
            engine = LTJEngine(relations, ordering=FixedOrdering(order))
            where = (text, [v.name for v in order])
            assert canonical(engine.evaluate()) == expected, where
            for frame in frames:
                assert frame == slow_frame(spo, tables, frame[0]), where
            blob = json.dumps(frames, separators=(",", ":")).encode()
            digest = f"{len(frames)}:{hashlib.sha256(blob).hexdigest()[:16]}"
            assert digest == pinned[text][" ".join(where[1])], where


def _recording(relation, resolve, frames, pos):
    """``relation.resolve`` with each bind followed by a copy of the
    pattern's frame."""
    seeker, bind, unbind, estimate = resolve(pos)

    def recorded(value):
        ok = bind(value)
        f = relation._state.frame
        frames.append(
            [[list(pair) for pair in f.bound], f.arc_first, f.lo, f.hi,
             f.matches, f.stored]
        )
        return ok

    return seeker, recorded, unbind, estimate
