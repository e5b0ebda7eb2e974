"""What the two clause adapters share: a clause over a pair of sides,
``x`` at position 0 and ``y`` at position 1, each leaping in a range of a
wavelet tree that the value on the other side selects.

A side's range depends only on the value bound on the other side, so it
is resolved there — in ``bind``, which needs it for its emptiness test
anyway — and every seeker and ``estimate`` until the matching ``unbind``
reads it back, and ``values`` reports it in one traversal. The range's
seeker is built on first use and kept until the other side is unbound.
The trees hold member ranks: a leap maps its ``lower`` to a rank and its
answer back to a node id through the sorted member list. With the other
side free, a side leaps over the clause's root: every member it can
take.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.ltj.relation import LeapRelation, Seeker
from repro.query.model import DistClause, SimClause, Var
from repro.succinct.wavelet_tree import WaveletTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.knn.distance_index import DistanceRangeIndex
    from repro.knn.succinct import KnnRing

Span = tuple[int, int]


def _nothing(lower: int) -> None:
    """The seeker of an empty range: no value, and nothing counted."""
    return None


class ClauseRelation(LeapRelation):
    """A binary clause viewed as a leapfrog relation (see module doc)."""

    seek_keys: tuple[tuple[str, str], tuple[str, str]]
    """Per position, the ``detail`` key of a seek over the root and of
    one within a resolved range."""

    count_keys: tuple[str, str]
    """Per position, the ``detail`` key of a bind that resolves the other
    side's range (``contains`` when the other side is bound)."""

    def __init__(
        self,
        clause: SimClause | DistClause,
        trees: tuple[WaveletTree, WaveletTree],
        owner: KnnRing | DistanceRangeIndex,
        roots: tuple[Seeker, Seeker],
        num_members: int,
    ) -> None:
        """Per position, ``trees`` and ``roots`` give the tree its leaps
        descend while the other side is bound and its seeker while that
        is free; ``owner._members_i`` is the sorted member list the
        trees' ranks index, read anew for each range (once an attached
        owner promotes it, as a plain list), ``num_members`` its length."""
        self._clause = clause
        self.terms = (clause.x, clause.y)
        # Current bindings of the two sides (None = unbound). Constants
        # are bound immediately and never count towards the depth.
        self._values: list[int | None] = [
            None if isinstance(term, Var) else term for term in self.terms
        ]
        self._depth = 0
        self._failed_depth: int | None = None
        self._trees = trees
        self._owner = owner
        self._roots = roots
        self._num_members = num_members
        x, y = self._values
        # Per position, while the other side is bound, the closed range
        # of its tree its leaps are confined to, and that range's seeker.
        self._ranges: list[Span | None] = [
            None if y is None else self._range(0, y),
            None if x is None else self._range(1, x),
        ]
        self._seekers: list[Seeker | None] = [None, None]
        if x is not None and y is not None and not self._holds(1, y, x):
            # Fully constant clause: a static filter.
            self._failed_depth = 0

    @abc.abstractmethod
    def _range(self, pos: int, anchor: int) -> Span:
        """The range of ``pos``'s tree its leaps are confined to while
        the other side holds ``anchor``."""

    @abc.abstractmethod
    def _holds(self, pos: int, value: int, anchor: int) -> bool:
        """Whether the clause holds with ``value`` at ``pos`` and
        ``anchor`` on the other side."""

    # ------------------------------------------------------------------
    @property
    def clause(self) -> SimClause | DistClause:
        return self._clause

    def is_empty(self) -> bool:
        return self._failed_depth is not None

    # ------------------------------------------------------------------
    def seeker(self, pos: int) -> Seeker:
        span = self._ranges[pos]
        if span is None:
            return self._roots[pos]
        seek = self._seekers[pos]
        if seek is None:
            lo, hi = span
            seek = self._seekers[pos] = (
                _nothing if lo > hi
                else self._trees[pos].seeker(lo, hi, self._owner._members_i)
            )
        return seek

    def values(self, pos: int) -> Sequence[int]:
        span = self._ranges[pos]
        if span is None:
            return super().values(pos)
        lo, hi = span
        if lo > hi:
            return ()
        ranks = self._trees[pos]._range_values_u(lo, hi)
        return list(map(self._owner._members_i.__getitem__, ranks))

    def bind(self, pos: int, value: int) -> bool:
        values = self._values
        anchor = values[1 - pos]
        values[pos] = value
        self._depth += 1
        if self._failed_depth is not None:
            # Already failed; the push only keeps unbind symmetric.
            return False
        if anchor is not None:
            ok = self._holds(pos, value, anchor)
        else:
            # First side bound: resolve the other side's range; the atom
            # stays non-empty exactly when that range is.
            lo, hi = self._ranges[1 - pos] = self._range(1 - pos, value)
            ok = lo <= hi
        if not ok:
            self._failed_depth = self._depth
        return ok

    def unbind(self, pos: int) -> None:
        self._depth -= 1
        self._values[pos] = None
        self._ranges[1 - pos] = None
        self._seekers[1 - pos] = None
        if self._failed_depth is not None and self._failed_depth > self._depth:
            self._failed_depth = None

    def estimate(self, pos: int) -> int:
        """Exact candidate counts (Sec. 5): the size of the side's range
        while the other side is bound, the member count while it is
        free."""
        span = self._ranges[pos]
        if span is None:
            return self._num_members
        return span[1] - span[0] + 1

    def detail_keys(self, pos: int) -> tuple[str | None, str | None]:
        """:attr:`seek_keys` and :attr:`count_keys` (or ``contains``) for
        the current binding; nothing once failed."""
        if self._failed_depth is not None:
            return None, None
        if self._values[1 - pos] is not None:
            bind = "contains"
        else:
            bind = self.count_keys[pos]
        return self.seek_keys[pos][self._ranges[pos] is not None], bind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._clause!r})"
