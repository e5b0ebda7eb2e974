"""LTJ relation adapter for a triple pattern over the Ring.

Wraps a :class:`~repro.ring.pattern.RingPatternState`, translating
position-level operations into coordinate-level ones. A variable may
occupy several coordinates of the same pattern (e.g. ``(?x, p, ?x)``);
``bind`` then descends once per coordinate and the seeker generates
candidates from one coordinate while probing the others.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

from repro.ltj.relation import LeapRelation, Resolved, Seeker
from repro.query.model import TriplePattern, Var
from repro.ring.index import RingIndex
from repro.ring.pattern import RingPatternState

# The Ring primitive a bind calls, by the number of coordinates bound.
_RANGE_KEYS = ("range_1arc", "range_2arc", "triple_count")


class RingTripleRelation(LeapRelation):
    """A triple pattern viewed as a leapfrog relation over a Ring.

    Positions index the pattern's distinct variables in ``s, p, o``
    order; the coordinates each one occupies are resolved here, once.
    """

    kind = "triple"

    def __init__(self, ring: RingIndex, pattern: TriplePattern) -> None:
        self._pattern = pattern
        self.terms = pattern.variables
        self._coords = tuple(pattern.coordinates_of(v) for v in self.terms)
        self._state = RingPatternState(
            ring,
            {
                coord: term
                for coord, term in zip("spo", pattern.terms)
                if not isinstance(term, Var)
            },
        )

    # ------------------------------------------------------------------
    @property
    def pattern(self) -> TriplePattern:
        return self._pattern

    def is_empty(self) -> bool:
        return self._state.is_empty()

    # ------------------------------------------------------------------
    def seeker(self, pos: int) -> Seeker:
        coords = self._coords[pos]
        state = self._state
        # Kept on the frame, however many intersections it sits under.
        seek = state.seeker(coords[0])
        if len(coords) == 1:
            return seek
        # Repeated variable: generate candidates from the first
        # coordinate and verify that binding *all* of them keeps the
        # pattern non-empty. Each verification is O(log) binds.
        def repeated(lower: int) -> int | None:
            candidate = seek(lower)
            while candidate is not None and not state.probe(
                dict.fromkeys(coords, candidate)
            ):
                candidate = seek(candidate + 1)
            return candidate

        return repeated

    def values(self, pos: int) -> Sequence[int]:
        coords = self._coords[pos]
        frame = self._state.frame
        if len(coords) != 1 or coords[0] != frame.stored:
            return super().values(pos)
        # The arc's stored column (always the case for the last free
        # coordinate of a pattern): one report over the frame's range.
        return frame.column._range_values_u(frame.lo, frame.hi)

    def resolve(self, pos: int) -> Resolved:
        """The state's own seeker, bind, unbind and count. The plan binds
        a position only while another is free, so in a pattern of two
        variables each binds its coordinate on the constants' frame
        alone, and its binder is fixed now; one of three looks its
        binder up at each bind, a pattern's only variable is never bound
        and resolves no binder, and a repeated variable binds through
        :meth:`bind`."""
        coords = self._coords[pos]
        if len(coords) > 1:
            return super().resolve(pos)
        state, coord = self._state, coords[0]
        if len(self.terms) == 2:
            bind = state.binder(coord)
        else:
            bind = partial(state.bind, coord)
        return partial(state.seeker, coord), bind, state.unbind, state.count

    def bind(self, pos: int, value: int) -> bool:
        state = self._state
        for coord in self._coords[pos]:
            ok = state.bind(coord, value)
        return ok

    def unbind(self, pos: int) -> None:
        state = self._state
        for _ in self._coords[pos]:
            state.unbind()

    def estimate(self, pos: int) -> int:
        """Candidate-count estimate for the variable at ``pos``: the
        size of the pattern's current range, whichever variable is asked
        about (Sec. 5, "we use the size e - b + 1 of the range")."""
        return self._state.count()

    def detail_keys(self, pos: int) -> tuple[str | None, str | None]:
        """The leap's dispatch (``leap_stored``, ``leap_ahead`` or, with
        nothing bound, ``leap_unbound``) and the range a bind opens
        (``range_1arc``, ``range_2arc`` or ``triple_count``); a repeated
        variable names those of its first coordinate."""
        frame = self._state.frame
        coord = self._coords[pos][0]
        if coord == frame.stored:
            seek = "leap_stored"
        elif frame.arc_first is None:
            seek = "leap_unbound"
        else:
            seek = "leap_ahead"
        return seek, _RANGE_KEYS[len(frame.bound)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingTripleRelation({self._pattern!r})"
