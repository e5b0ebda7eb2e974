"""LTJ relation adapter for a range clause ``dist(x, y) <= d``.

Implements the Sec. 3.3 extension: binding either side of the clause
selects the distance-sorted region of that node in the sequence ``D``
and binary-searches the prefix within distance ``d``; the resulting
range participates in leapfrog intersections exactly like a ``S``/``S'``
range. Because metric distance is symmetric, both sides use the same
index. As in :mod:`repro.ltj.knn_relation`, ``bind`` keeps the range it
resolves and ``leap``/``estimate`` read it back until ``unbind``, and
``D``'s member ranks are mapped to node ids the same way.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.knn.distance_index import DistanceRangeIndex
from repro.ltj.relation import LeapRelation
from repro.query.model import DistClause, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RelationCounters


class DistanceClauseRelation(LeapRelation):
    """A clause ``dist(x, y) <= d`` viewed as a leapfrog relation.

    Position 0 is the ``x`` side, position 1 the ``y`` side.
    """

    def __init__(self, index: DistanceRangeIndex, clause: DistClause) -> None:
        self._index = index
        self._clause = clause
        self._d = float(clause.d)
        self.terms = (clause.x, clause.y)
        self.obs: RelationCounters | None = None
        """Optional :class:`repro.obs.trace.RelationCounters`; detail
        keys name the distance-index primitive used per call."""
        self._values: list[int | None] = [
            None if isinstance(term, Var) else term for term in self.terms
        ]
        self._depth = 0
        self._failed_depth: int | None = None
        # The tree leaps descend and, per position, the closed range of
        # it they are confined to while the other side is bound.
        self._tree = index.D
        self._ids = index._members_i
        self._ranges: list[tuple[int, int] | None] = [
            None if anchor is None else index.range_within(anchor, self._d)
            for anchor in reversed(self._values)
        ]
        x, y = self._values
        if x is not None and y is not None and not index.contains(x, y, self._d):
            self._failed_depth = 0

    @property
    def clause(self) -> DistClause:
        return self._clause

    def is_empty(self) -> bool:
        return self._failed_depth is not None

    def leap(self, pos: int, lower: int) -> int | None:
        if self._failed_depth is not None:
            return None
        obs = self.obs
        if obs is not None:
            obs.leaps += 1
        span = self._ranges[pos]
        if span is not None:
            if obs is not None:
                obs.bump("leap_within")
            lo, hi = span
            if lo > hi:
                return None
            return self._tree._range_next_id_u(self._ids, lo, hi, lower)
        if obs is not None:
            obs.bump("leap_member")
        return self._index.next_member(lower)

    def seeker(self, pos: int) -> Callable[[int], int | None]:
        span = self._ranges[pos]
        if self.obs is not None or span is None:
            return super().seeker(pos)
        return self._tree.seeker(*span, self._ids)

    def values(self, pos: int) -> Sequence[int]:
        span = self._ranges[pos]
        if span is None or self._failed_depth is not None:
            return super().values(pos)
        obs = self.obs
        if obs is not None:
            obs.leaps += 1
            obs.bump("leap_within")
        lo, hi = span
        if lo > hi:
            return ()
        ranks = self._tree._range_values_u(lo, hi)
        return list(map(self._ids.__getitem__, ranks))

    def bind(self, pos: int, value: int) -> bool:
        anchor = self._values[1 - pos]
        self._values[pos] = value
        self._depth += 1
        obs = self.obs
        if self._failed_depth is not None:
            if obs is not None:
                obs.failed_binds += 1
            return False
        if anchor is None:
            if obs is not None:
                obs.bump("count_within")
            lo, hi = span = self._index.range_within(value, self._d)
            self._ranges[1 - pos] = span
            ok = lo <= hi
        else:
            if obs is not None:
                obs.bump("contains")
            ok = self._index.contains(anchor, value, self._d)
        if not ok:
            self._failed_depth = self._depth
        if obs is not None:
            if ok:
                obs.binds += 1
            else:
                obs.failed_binds += 1
        return ok

    def unbind(self, pos: int) -> None:
        self._depth -= 1
        if self.obs is not None:
            self.obs.unbinds += 1
        self._values[pos] = None
        self._ranges[1 - pos] = None
        if self._failed_depth is not None and self._failed_depth > self._depth:
            self._failed_depth = None

    def estimate(self, pos: int) -> int:
        """Per-binding candidate count (the data-dependent ``k`` the
        paper notes the algorithm knows and can use for ordering)."""
        if self.obs is not None:
            self.obs.estimates += 1
        span = self._ranges[pos]
        if span is not None:
            return span[1] - span[0] + 1
        return int(self._index.members.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistanceClauseRelation({self._clause!r})"
