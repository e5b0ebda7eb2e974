"""Rule-based stateful property tests (hypothesis state machines).

These drive long random interleavings of bind/unbind/leap against
reference models, checking that backtracking never corrupts state —
the property the whole LTJ search tree depends on.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.graph.sixperm import SixPermIndex
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.succinct import KnnRing
from repro.ltj.knn_relation import KnnClauseRelation
from repro.query.model import SimClause, Var
from repro.ring.index import RingIndex
from repro.ring.pattern import RingPatternState

# Shared static data: small graph + oracle (built once; machines only
# mutate their own pattern states).
_RNG = np.random.default_rng(99)
_GRAPH = GraphData(_RNG.integers(0, 10, size=(120, 3)))
_RING = RingIndex(_GRAPH)
_ORACLE = SixPermIndex(_GRAPH)

_POINTS = np.random.default_rng(3).normal(size=(12, 2))
_KNN_GRAPH = build_knn_graph_bruteforce(_POINTS, K=4)
_KNN_RING = KnnRing(_KNN_GRAPH)

X, Y = Var("x"), Var("y")


class RingPatternMachine(RuleBasedStateMachine):
    """Random bind/unbind/leap walks over one triple pattern."""

    @initialize()
    def setup(self):
        self.state = RingPatternState(_RING, {})
        self.bound: dict[str, int] = {}

    @rule(
        coord=st.sampled_from("spo"),
        value=st.integers(0, 11),
    )
    def bind(self, coord, value):
        if coord in self.bound:
            return
        self.state.bind(coord, value)
        self.bound[coord] = value

    @precondition(lambda self: self.bound)
    @rule()
    def unbind(self):
        # RingPatternState unbinds in LIFO order; track via stack depth.
        # We emulate by replaying: pop the most recent via state depth.
        self.state.unbind()
        # Remove the most recently bound coordinate (insertion order).
        last = list(self.bound)[-1]
        del self.bound[last]

    @rule(coord=st.sampled_from("spo"), lower=st.integers(0, 12))
    def leap_matches_oracle(self, coord, lower):
        if coord in self.bound:
            return
        assert self.state.leap(coord, lower) == _ORACLE.leap(
            self.bound, coord, lower
        )

    @invariant()
    def count_matches_oracle(self):
        if hasattr(self, "state"):
            assert self.state.count() == _ORACLE.count(self.bound)


class KnnRelationMachine(RuleBasedStateMachine):
    """Random walks over a similarity-clause relation vs the KnnGraph."""

    @initialize(k=st.integers(1, 4))
    def setup(self, k):
        self.k = k
        self.rel = KnnClauseRelation(_KNN_RING, SimClause(X, k, Y))
        self.values: dict[Var, int] = {}
        self.order: list[Var] = []

    @rule(var=st.sampled_from([X, Y]), value=st.integers(0, 13))
    def bind(self, var, value):
        if var in self.values:
            return
        self.rel.bind(self.rel.position(var), value)
        self.values[var] = value
        self.order.append(var)

    @precondition(lambda self: self.order)
    @rule()
    def unbind(self):
        var = self.order.pop()
        self.rel.unbind(self.rel.position(var))
        del self.values[var]

    @rule(var=st.sampled_from([X, Y]), lower=st.integers(0, 13))
    def leap_matches_reference(self, var, lower):
        if var in self.values or self.rel.is_empty():
            return
        got = self.rel.leap(self.rel.position(var), lower)
        if var == Y and X in self.values:
            candidates = [
                int(v)
                for v in _KNN_GRAPH.neighbors_of(self.values[X], self.k)
                if v >= lower
            ]
        elif var == X and Y in self.values:
            y = self.values[Y]
            candidates = [
                u
                for u in range(12)
                if u >= lower and u != y and _KNN_GRAPH.is_knn(u, y, self.k)
            ]
        elif var == X:
            candidates = [u for u in range(12) if u >= lower]
        else:
            candidates = [
                v
                for v in range(12)
                if v >= lower
                and any(
                    _KNN_GRAPH.is_knn(u, v, self.k)
                    for u in range(12)
                    if u != v
                )
            ]
        expected = min(candidates) if candidates else None
        assert got == expected, (var, lower, self.values)

    @invariant()
    def emptiness_matches_reference(self):
        if not hasattr(self, "rel"):
            return
        if X in self.values and Y in self.values:
            expected_nonempty = _KNN_GRAPH.is_knn(
                self.values[X], self.values[Y], self.k
            )
            assert self.rel.is_empty() == (not expected_nonempty)


TestRingPatternMachine = RingPatternMachine.TestCase
TestRingPatternMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestKnnRelationMachine = KnnRelationMachine.TestCase
TestKnnRelationMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
