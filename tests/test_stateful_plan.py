"""Stateful property test of the compiled join plan (hypothesis).

:class:`~repro.ltj.plan.JoinPlan` caches one candidate-count estimate
per (atom, variable) and refreshes only the atoms a ``bind`` touched,
restoring them on ``unbind``, and it passes over an atom when the slot
is the atom's last free variable: ``leap`` already admitted the value.
This machine drives random legal bind/unbind sequences over triple, K-NN
and distance adapters — legal means the value is one every passed-over
atom leaps to; the atoms that are asked may still refuse it — and checks
after every step that

* every cached estimate equals a fresh ``estimate()`` of the live atom,
  and ``l_x`` is their minimum;
* the live atoms answer ``leap`` and ``estimate`` exactly like freshly
  constructed atoms that replay the same bindings — backtracking left
  nothing behind;
* what an atom resolved when it was bound — a clause's leap range, a
  triple pattern's frame — is what the structures' public methods
  compute from scratch for the same binding, its ``leap`` is their leap,
  and an ``unbind`` took it away again — where "bound" is what the model
  says the plan really bound in that atom, so a passed-over atom must
  still hold the frame or range it had, and every ``unbind`` and every
  refused ``bind`` must leave atoms and plan exactly as they were;
* the contract the engine's last level rests on: whatever ``leap``
  returns for an atom's last free position, ``bind`` accepts (so a
  candidate of the last unbound variable is a solution without being
  bound) — for any free position, in fact, but the root of a distance
  clause; ``values`` is the ``leap`` loop, and ``seeker(pos)`` answers
  every ``lower`` like ``leap(pos, lower)``, for every adapter, dispatch
  and state, including an atom left failed by a rejected bind; an
  enumeration counts as one leap, and a traced seek is a counted leap.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.graph.sixperm import SixPermIndex
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.distance_index import DistanceRangeIndex
from repro.knn.succinct import KnnRing
from repro.ltj.distance_relation import DistanceClauseRelation
from repro.ltj.knn_relation import KnnClauseRelation
from repro.ltj.plan import JoinPlan
from repro.ltj.sixperm_relation import SixPermTripleRelation
from repro.ltj.triple_relation import RingTripleRelation
from repro.obs.trace import RelationCounters
from repro.query.model import DistClause, SimClause, TriplePattern, Var
from repro.ring.index import RingIndex
from repro.ring.pattern import RingPatternState

N_NODES = 12
_RNG = np.random.default_rng(23)
_GRAPH = GraphData(
    [
        (int(_RNG.integers(0, N_NODES)), int(_RNG.choice((50, 51))),
         int(_RNG.integers(0, N_NODES)))
        for _ in range(60)
    ]
)
_RING = RingIndex(_GRAPH)
_SIX = SixPermIndex(_GRAPH)
_POINTS = _RNG.normal(size=(N_NODES, 2))
_KNN = KnnRing(build_knn_graph_bruteforce(_POINTS, K=4))
_DIST = DistanceRangeIndex(_POINTS, d_max=1.5)

X, Y, Z, W, P, V, Q = (Var(name) for name in "xyzwpvq")
LOWERS = (0, N_NODES // 3, N_NODES - 2)


def compile_atoms(k: int):
    """Every adapter kind, sharing variables in every way the plan has
    to track: two clauses over the same pair, a repeated variable, a
    variable predicate, a constant on either side of a clause (one of
    them no member of the K-NN graph: an empty range), a lonely
    variable, and the six-permutation backend (which reports through
    the base class's ``leap`` loop) over a loop and a plain pattern."""
    return [
        RingTripleRelation(_RING, TriplePattern(X, 50, Y)),
        RingTripleRelation(_RING, TriplePattern(Y, P, Z)),
        RingTripleRelation(_RING, TriplePattern(Z, 51, Z)),
        KnnClauseRelation(_KNN, SimClause(X, k, Z)),
        KnnClauseRelation(_KNN, SimClause(Z, k, X)),
        KnnClauseRelation(_KNN, SimClause(3, k, Y)),
        KnnClauseRelation(_KNN, SimClause(W, k, 5)),
        KnnClauseRelation(_KNN, SimClause(50, k, Q)),
        DistanceClauseRelation(_DIST, DistClause(Y, 0.9, W)),
        DistanceClauseRelation(_DIST, DistClause(2, 0.9, V)),
        SixPermTripleRelation(_SIX, TriplePattern(X, P, X)),
        SixPermTripleRelation(_SIX, TriplePattern(W, 50, Y)),
    ]


def slow_clause(relation, pos: int, anchor: int):
    """The range a clause's ``pos`` side leaps in when the other side
    holds ``anchor``, and the leap itself, from the public methods."""
    if isinstance(relation, DistanceClauseRelation):
        d = relation.clause.d
        return (
            _DIST.range_within(anchor, d),
            lambda lower: _DIST.leap_within(anchor, d, lower),
        )
    k = relation.clause.k
    if pos:
        return (
            _KNN.forward_range(anchor, k),
            lambda lower: _KNN.leap_forward(anchor, k, lower),
        )
    return (
        _KNN.backward_range(anchor, k),
        lambda lower: _KNN.leap_backward(anchor, k, lower),
    )


class JoinPlanMachine(RuleBasedStateMachine):
    @initialize(k=st.integers(1, 4))
    def setup(self, k):
        self.fresh = lambda: JoinPlan(compile_atoms(k))
        self.plan = self.fresh()
        # (slot, value, snapshot taken before the bind)
        self.bound: list[tuple[int, int, object]] = []

    def unbound_slots(self):
        taken = {slot for slot, _value, _before in self.bound}
        return [s for s in range(len(self.plan.atoms)) if s not in taken]

    def snapshot(self):
        """Everything the atoms and the plan hold, by value."""
        atoms = []
        for relation in self.plan.relations:
            if isinstance(relation, RingTripleRelation):
                atoms.append(list(relation._state._stack))
            elif isinstance(relation, SixPermTripleRelation):
                atoms.append(dict(relation._bound_values))
            else:
                atoms.append(
                    (list(relation._values), list(relation._ranges),
                     relation._depth, relation._failed_depth)
                )
        state = self.plan.state
        return atoms, list(self.plan._est), list(state.lx), state.unbound

    def held(self):
        """Per relation (by ``id``), the values the plan really bound in
        it, in bind order: an atom is passed over by the bind of its
        last free variable."""
        variables = self.plan.state.variables
        held = {id(relation): {} for relation in self.plan.relations}
        free = set(variables)
        for slot, value, _before in self.bound:
            var = variables[slot]
            for relation, _pos, _mask in self.plan.atoms[slot]:
                if relation.variables & free != {var}:
                    held[id(relation)][var] = value
            free.discard(var)
        return held

    @precondition(lambda self: self.unbound_slots())
    @rule(pick=st.integers(0, 4), member=st.integers(0, N_NODES + 1),
          strict=st.integers(0, 3))
    def bind(self, pick, member, strict):
        slots = self.unbound_slots()
        slot = slots[pick % len(slots)]
        variables = self.plan.state.variables
        free = {variables[s] for s in slots}
        # Mostly members of the whole intersection, as the engine binds
        # (deep, successful descents); sometimes values only the atoms
        # that will be passed over admit (refused binds leave no trace).
        pools = [
            set(relation.values(pos))
            for relation, pos, _mask in self.plan.atoms[slot]
            if strict or relation.variables & free == {variables[slot]}
        ]
        members = sorted(set.intersection(*pools, set(range(N_NODES + 2))))
        if not members:
            return
        value = members[member % len(members)]
        before = self.snapshot()
        if self.plan.bind(slot, value):
            self.bound.append((slot, value, before))
        else:
            assert self.snapshot() == before, (slot, value, self.bound)

    @precondition(lambda self: self.bound)
    @rule()
    def unbind(self):
        slot, _value, before = self.bound.pop()
        self.plan.unbind(slot)
        assert self.snapshot() == before, (slot, self.bound)

    @invariant()
    def cache_is_current(self):
        plan = self.plan
        slots = self.unbound_slots()
        assert plan.state.unbound == sum(1 << s for s in slots)
        for slot in slots:
            live = [rel.estimate(pos) for rel, pos, _m in plan.atoms[slot]]
            assert plan.estimates(slot) == live, (slot, self.bound)
            assert plan.state.lx[slot] == min(live), (slot, self.bound)

    @invariant()
    def replay_on_fresh_atoms_agrees(self):
        replayed = self.fresh()
        for slot, value, _before in self.bound:
            assert replayed.bind(slot, value)
        for slot in self.unbound_slots():
            assert replayed.estimates(slot) == self.plan.estimates(slot)
            pairs = zip(self.plan.atoms[slot], replayed.atoms[slot])
            for (live, pos, mask), (fresh, fresh_pos, fresh_mask) in pairs:
                assert (pos, mask) == (fresh_pos, fresh_mask)
                for lower in LOWERS:
                    assert live.leap(pos, lower) == fresh.leap(pos, lower)

    @invariant()
    def resolved_ranges_are_current(self):
        held = self.held()
        for relation in self.plan.relations:
            where = (relation, self.bound)
            values = held[id(relation)]

            def value_of(term, values=values):
                return values.get(term) if isinstance(term, Var) else term

            if isinstance(relation, RingTripleRelation):
                self.check_frame(relation, values, where)
                continue
            if isinstance(relation, SixPermTripleRelation):
                continue  # resolves nothing at bind time
            for pos, term in enumerate(relation.terms):
                if value_of(term) is not None:
                    continue
                anchor = value_of(relation.terms[1 - pos])
                if anchor is None:
                    assert relation._ranges[pos] is None, where
                    continue
                (lo, hi), slow_leap = slow_clause(relation, pos, anchor)
                assert relation._ranges[pos] == (lo, hi), where
                assert relation.estimate(pos) == max(0, hi - lo + 1), where
                for lower in LOWERS:
                    assert relation.leap(pos, lower) == slow_leap(lower), where

    @invariant()
    def leaps_are_admissible_and_values_is_their_loop(self):
        variables = self.plan.state.variables
        free = {variables[slot] for slot in self.unbound_slots()}
        for slot in self.unbound_slots():
            for relation, pos, _mask in self.plan.atoms[slot]:
                where = (relation, pos, self.bound)
                others = [
                    p for p, term in enumerate(relation.terms)
                    if p != pos and term in free
                ]
                # With a second side free, a distance clause leaps over
                # all members, and one may have nobody within d.
                admissible = not (
                    others and isinstance(relation, DistanceClauseRelation)
                )
                self.check_enumeration(relation, pos, admissible, where)
                # A rejected bind leaves the atom failed until it is
                # undone: nothing leaps, nothing is reported.
                if not relation.bind(pos, N_NODES + 7):
                    for other in others:
                        assert relation.leap(other, 0) is None, where
                        assert relation.seeker(other)(0) is None, where
                        assert list(relation.values(other)) == [], where
                relation.unbind(pos)

    def check_enumeration(self, relation, pos, admissible, where):
        loop = []
        value = relation.leap(pos, 0)
        while value is not None:
            loop.append(value)
            assert relation.bind(pos, value) or not admissible, (value, where)
            relation.unbind(pos)
            value = relation.leap(pos, value + 1)
        assert loop == sorted(set(loop)), where
        seek = relation.seeker(pos)
        for lower in range(N_NODES + 2):
            assert seek(lower) == relation.leap(pos, lower), (lower, where)
        relation.obs = counters = RelationCounters("atom", "test")
        try:
            assert list(relation.values(pos)) == loop, where
            assert counters.leaps == 1, where
            relation.seeker(pos)(0)
            assert counters.leaps == 2, where
        finally:
            relation.obs = None

    def check_frame(self, relation, values, where):
        """The pattern's frame against a fresh state bound to the same
        constants and, in the order the machine bound them, variables."""
        pattern = relation.pattern
        fresh = RingPatternState(
            _RING,
            {
                coord: term
                for coord, term in zip("spo", pattern.terms)
                if not isinstance(term, Var)
            },
        )
        for var, value in values.items():
            for coord in pattern.coordinates_of(var) if var in relation.terms else ():
                fresh.bind(coord, value)
        frame = relation._state.frame
        assert frame == fresh.frame, where
        for pos, var in enumerate(relation.terms):
            coords = pattern.coordinates_of(var)
            if var in values or len(coords) != 1:
                continue
            for lower in LOWERS:
                found = relation.leap(pos, lower)
                assert found == fresh.leap(coords[0], lower), where
                if coords[0] == frame.stored and frame.matches:
                    assert found == _RING.leap_stored(
                        frame.arc_first, frame.lo, frame.hi, lower
                    ), where


TestJoinPlanMachine = JoinPlanMachine.TestCase
TestJoinPlanMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
