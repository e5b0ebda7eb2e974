"""LTJ relation adapter for a triple pattern over the Ring.

Wraps a :class:`~repro.ring.pattern.RingPatternState`, translating
position-level operations into coordinate-level ones. A variable may
occupy several coordinates of the same pattern (e.g. ``(?x, p, ?x)``);
``bind`` then descends once per coordinate and ``leap`` generates
candidates from one coordinate while probing the others.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial
from typing import TYPE_CHECKING

from repro.ltj.relation import LeapRelation
from repro.query.model import TriplePattern, Var
from repro.ring.index import RingIndex
from repro.ring.pattern import RingPatternState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RelationCounters
    from repro.succinct.wavelet_tree import WaveletTree


class RingTripleRelation(LeapRelation):
    """A triple pattern viewed as a leapfrog relation over a Ring.

    Positions index the pattern's distinct variables in ``s, p, o``
    order; the coordinates each one occupies are resolved here, once.
    """

    def __init__(self, ring: RingIndex, pattern: TriplePattern) -> None:
        self._ring = ring
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
    def obs(self) -> RelationCounters | None:
        """Optional :class:`repro.obs.trace.RelationCounters` (None when
        tracing is off). Setting it also instruments the underlying
        :class:`RingPatternState`, whose detail counters record which
        Ring primitives answered each call."""
        return self._state.obs

    @obs.setter
    def obs(self, counters: RelationCounters | None) -> None:
        self._state.obs = counters

    @property
    def pattern(self) -> TriplePattern:
        return self._pattern

    def wavelet_trees(self) -> tuple[WaveletTree, ...]:
        """Trees touched by this relation (engine memo hook)."""
        return self._ring.wavelet_trees()

    def is_empty(self) -> bool:
        return self._state.is_empty()

    def count(self) -> int:
        """Number of triples matching the current partial binding."""
        return self._state.count()

    # ------------------------------------------------------------------
    def leap(self, pos: int, lower: int) -> int | None:
        coords = self._coords[pos]
        state = self._state
        obs = state.obs
        if obs is not None:
            obs.leaps += 1
        if len(coords) == 1:
            return state.leap(coords[0], lower)
        # Repeated variable: generate candidates from the first free
        # coordinate and verify that binding *all* of them keeps the
        # pattern non-empty. Each verification is O(log) binds.
        candidate: int | None = lower
        while True:
            candidate = state.leap(coords[0], candidate)
            if candidate is None:
                return None
            if state.probe({coord: candidate for coord in coords}):
                return candidate
            candidate += 1

    def seeker(self, pos: int) -> Callable[[int], int | None]:
        frame = self._state.frame
        column = frame.column if self._state.obs is None else None
        if column is None or self._coords[pos] != (frame.stored,):
            return super().seeker(pos)
        # The arc's stored column: a leap is the kernel call itself.
        return partial(column._range_next_value_u, frame.lo, frame.hi)

    def values(self, pos: int) -> Sequence[int]:
        coords = self._coords[pos]
        frame = self._state.frame
        if len(coords) != 1 or coords[0] != frame.stored:
            return super().values(pos)
        # The arc's stored column (always the case for the last free
        # coordinate of a pattern): one report over the frame's range.
        obs = self._state.obs
        if obs is not None:
            obs.leaps += 1
        if frame.matches == 0:
            return ()
        if obs is not None:
            obs.bump("leap_stored")
        return frame.column._range_values_u(frame.lo, frame.hi)

    def bind(self, pos: int, value: int) -> bool:
        state = self._state
        for coord in self._coords[pos]:
            state.bind(coord, value)
        ok = not state.is_empty()
        obs = state.obs
        if obs is not None:
            if ok:
                obs.binds += 1
            else:
                obs.failed_binds += 1
        return ok

    def unbind(self, pos: int) -> None:
        state = self._state
        for _ in self._coords[pos]:
            state.unbind()
        if state.obs is not None:
            state.obs.unbinds += 1

    def estimate(self, pos: int) -> int:
        """Candidate-count estimate for the variable at ``pos``: the
        size of the pattern's current range, whichever variable is asked
        about (Sec. 5, "we use the size e - b + 1 of the range")."""
        state = self._state
        if state.obs is not None:
            state.obs.estimates += 1
        return state.count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingTripleRelation({self._pattern!r})"
