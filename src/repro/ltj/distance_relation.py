"""LTJ relation adapter for a range clause ``dist(x, y) <= d``.

Implements the Sec. 3.3 extension: binding either side of the clause
selects the distance-sorted region of that node in the sequence ``D``
and binary-searches the prefix within distance ``d``; the resulting
range participates in leapfrog intersections exactly like a ``S``/``S'``
range. Because metric distance is symmetric, both sides use the same
index. As for a K-NN clause, :mod:`repro.ltj.clause_relation` keeps the
range ``bind`` resolves until ``unbind`` and maps ``D``'s member ranks
to node ids.
"""

from __future__ import annotations

from repro.knn.distance_index import DistanceRangeIndex
from repro.ltj.clause_relation import ClauseRelation, Span
from repro.query.model import DistClause


class DistanceClauseRelation(ClauseRelation):
    """A clause ``dist(x, y) <= d`` viewed as a leapfrog relation.

    Position 0 is the ``x`` side, position 1 the ``y`` side.
    """

    kind = "dist"
    seek_keys = (
        ("leap_member", "leap_within"), ("leap_member", "leap_within")
    )
    count_keys = ("count_within", "count_within")

    def __init__(self, index: DistanceRangeIndex, clause: DistClause) -> None:
        self._index = index
        self._d = float(clause.d)
        super().__init__(
            clause,
            (index.D, index.D),
            index,
            (index.next_member, index.next_member),
            len(index.members),
        )

    def _range(self, pos: int, anchor: int) -> Span:
        return self._index.range_within(anchor, self._d)

    def _holds(self, pos: int, value: int, anchor: int) -> bool:
        return self._index.contains(anchor, value, self._d)
