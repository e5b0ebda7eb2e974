"""LTJ relation adapter for a triple pattern over the six-permutation
index — the classic "6 tries" backend of Sec. 2.2.

Functionally interchangeable with
:class:`~repro.ltj.triple_relation.RingTripleRelation`; used as the
triple backend of the classic-index ablation engine and as a live
cross-check of the Ring (both backends must enumerate identical
solutions). Costs six copies of the data where the Ring costs about
one (see ``tests/test_sixperm.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.sixperm import SixPermIndex
from repro.ltj.relation import LeapRelation
from repro.query.model import TriplePattern, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RelationCounters


class SixPermTripleRelation(LeapRelation):
    """A triple pattern viewed as a leapfrog relation over six tries.

    Positions index the pattern's distinct variables in ``s, p, o``
    order, as in :class:`~repro.ltj.triple_relation.RingTripleRelation`.
    """

    def __init__(self, index: SixPermIndex, pattern: TriplePattern) -> None:
        self._index = index
        self._pattern = pattern
        self.obs: RelationCounters | None = None
        """Optional :class:`repro.obs.trace.RelationCounters` (None when
        tracing is off)."""
        self.terms = pattern.variables
        self._coords = tuple(pattern.coordinates_of(v) for v in self.terms)
        self._bound_values: dict[str, int] = {
            coord: term
            for coord, term in zip("spo", pattern.terms)
            if not isinstance(term, Var)
        }
        self._count_cache: int | None = None

    @property
    def pattern(self) -> TriplePattern:
        return self._pattern

    def _count(self) -> int:
        if self._count_cache is None:
            self._count_cache = self._index.count(self._bound_values)
        return self._count_cache

    def is_empty(self) -> bool:
        return self._count() == 0

    def leap(self, pos: int, lower: int) -> int | None:
        coords = self._coords[pos]
        if self.obs is not None:
            self.obs.leaps += 1
        if self._count() == 0:
            return None
        if len(coords) == 1:
            return self._index.leap(self._bound_values, coords[0], lower)
        # Repeated variable: generate from the first coordinate, verify
        # by counting with all coordinates bound.
        candidate: int | None = lower
        while True:
            candidate = self._index.leap(
                self._bound_values, coords[0], candidate
            )
            if candidate is None:
                return None
            probe = dict(self._bound_values)
            for coord in coords:
                probe[coord] = candidate
            if self._index.count(probe) > 0:
                return candidate
            candidate += 1

    def bind(self, pos: int, value: int) -> bool:
        for coord in self._coords[pos]:
            self._bound_values[coord] = value
        self._count_cache = None
        ok = self._count() > 0
        if self.obs is not None:
            if ok:
                self.obs.binds += 1
            else:
                self.obs.failed_binds += 1
        return ok

    def unbind(self, pos: int) -> None:
        for coord in self._coords[pos]:
            del self._bound_values[coord]
        self._count_cache = None
        if self.obs is not None:
            self.obs.unbinds += 1

    def estimate(self, pos: int) -> int:
        if self.obs is not None:
            self.obs.estimates += 1
        return self._count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SixPermTripleRelation({self._pattern!r})"
