"""Tests for the variable-ordering strategies (Secs. 4-5)."""

import pytest

from repro.ltj.ordering import (
    ConstraintAwareOrdering,
    FixedOrdering,
    MinCandidatesOrdering,
    SlotState,
    TopologicalOrdering,
)
from repro.query.model import Var
from repro.utils.errors import QueryError

X, Y, Z, L = Var("x"), Var("y"), Var("z"), Var("l")


VARIABLES = (X, Y, Z, L)  # slot = position here: the query order


def mask(variables):
    return sum(1 << VARIABLES.index(v) for v in variables)


def make_state(unbound, estimates, lonely=(), edges=()):
    """The slot state the engine would hand a strategy: ``unbound`` and
    ``lonely`` as masks, ``l_x`` as an array, edges as slot pairs (the
    static ones — a test passes those of the clauses it imagines)."""
    return SlotState(
        variables=VARIABLES,
        lonely=mask(lonely),
        edges=tuple(
            (VARIABLES.index(x), VARIABLES.index(y)) for x, y in edges
        ),
        unbound=mask(unbound),
        lx=[estimates.get(v, -1) for v in VARIABLES],
    )


def choose(ordering, state):
    ordering.prepare(VARIABLES)
    return VARIABLES[ordering.choose(state)]


class TestMinCandidates:
    def test_picks_minimum_estimate(self):
        state = make_state([X, Y, Z], {X: 5, Y: 2, Z: 9})
        assert choose(MinCandidatesOrdering(), state) == Y

    def test_lonely_deferred(self):
        state = make_state([X, L], {X: 100, L: 1}, lonely=[L])
        assert choose(MinCandidatesOrdering(), state) == X

    def test_only_lonely_left(self):
        state = make_state([L], {L: 7}, lonely=[L])
        assert choose(MinCandidatesOrdering(), state) == L

    def test_tie_break_stable(self):
        state = make_state([X, Y], {X: 3, Y: 3})
        assert choose(MinCandidatesOrdering(), state) == X


class TestConstraintAware:
    def test_marked_targets_deferred(self):
        # x <|_k y: y is marked; choose x even though y is cheaper.
        state = make_state([X, Y], {X: 100, Y: 1}, edges=[(X, Y)])
        assert choose(ConstraintAwareOrdering(), state) == X

    def test_all_marked_falls_back_to_min(self):
        # 2-cycle: both marked; falls back to min estimate.
        state = make_state([X, Y], {X: 9, Y: 4}, edges=[(X, Y), (Y, X)])
        assert choose(ConstraintAwareOrdering(), state) == Y

    def test_edge_disappears_when_source_bound(self):
        # Once x is bound its (static) edge is no longer current, so y
        # is free to be chosen.
        state = make_state([Y, Z], {Y: 1, Z: 5}, edges=[(X, Y)])
        assert choose(ConstraintAwareOrdering(), state) == Y

    def test_lonely_still_last(self):
        state = make_state(
            [X, Y, L], {X: 10, Y: 1, L: 0}, lonely=[L], edges=[(X, Y)]
        )
        assert choose(ConstraintAwareOrdering(), state) == X

    def test_marked_nonlonely_beats_lonely(self):
        # Even fully-marked regular variables go before lonely ones.
        state = make_state(
            [X, Y, L], {X: 10, Y: 20, L: 0}, lonely=[L],
            edges=[(X, Y), (Y, X)],
        )
        assert choose(ConstraintAwareOrdering(), state) == X


class TestTopological:
    def test_respects_edges(self):
        ordering = TopologicalOrdering([(X, Y), (Y, Z)])
        state = make_state([X, Y, Z], {X: 9, Y: 1, Z: 1})
        assert choose(ordering, state) == X
        later = make_state([Y, Z], {Y: 9, Z: 1})
        assert choose(ordering, later) == Y

    def test_rejects_cycles(self):
        with pytest.raises(QueryError):
            TopologicalOrdering([(X, Y), (Y, X)])

    def test_no_edges_is_min_estimate(self):
        ordering = TopologicalOrdering([])
        state = make_state([X, Y], {X: 5, Y: 2})
        assert choose(ordering, state) == Y


class TestFixed:
    def test_follows_given_order(self):
        ordering = FixedOrdering([Z, X, Y])
        state = make_state([X, Y, Z], {X: 0, Y: 0, Z: 100})
        assert choose(ordering, state) == Z
        later = make_state([X, Y], {X: 0, Y: 0})
        assert choose(ordering, later) == X

    def test_uncovered_variable_raises(self):
        ordering = FixedOrdering([X])
        state = make_state([Y], {Y: 0})
        with pytest.raises(QueryError):
            choose(ordering, state)
