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

from functools import partial

from repro.graph.sixperm import SixPermIndex
from repro.ltj.relation import LeapRelation, Seeker
from repro.query.model import TriplePattern, Var


class SixPermTripleRelation(LeapRelation):
    """A triple pattern viewed as a leapfrog relation over six tries.

    Positions index the pattern's distinct variables in ``s, p, o``
    order, as in :class:`~repro.ltj.triple_relation.RingTripleRelation`.
    """

    kind = "triple"

    def __init__(self, index: SixPermIndex, pattern: TriplePattern) -> None:
        self._index = index
        self._pattern = pattern
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

    def seeker(self, pos: int) -> Seeker:
        coords = self._coords[pos]
        index = self._index
        bound = self._bound_values
        if len(coords) == 1:
            return partial(index.leap, bound, coords[0])
        # Repeated variable: generate from the first coordinate, verify
        # by counting with all coordinates bound.
        def repeated(lower: int) -> int | None:
            candidate = index.leap(bound, coords[0], lower)
            while candidate is not None and not index.count(
                {**bound, **dict.fromkeys(coords, candidate)}
            ):
                candidate = index.leap(bound, coords[0], candidate + 1)
            return candidate

        return repeated

    def bind(self, pos: int, value: int) -> bool:
        for coord in self._coords[pos]:
            self._bound_values[coord] = value
        self._count_cache = None
        return self._count() > 0

    def unbind(self, pos: int) -> None:
        for coord in self._coords[pos]:
            del self._bound_values[coord]
        self._count_cache = None

    def estimate(self, pos: int) -> int:
        return self._count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SixPermTripleRelation({self._pattern!r})"
