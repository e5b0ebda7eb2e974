"""LTJ relation adapter for a similarity clause ``x <|_k y``.

This realizes Sec. 3.3: the clause behaves exactly as if the relation
``kNN(x, y)`` had been materialized with tries ``T_xy`` and ``T_yx``,
but the trie nodes are simulated as ranges of the wavelet trees over
``S`` (when ``x`` is bound first) or ``S'`` (when ``y`` is bound first),
per Lemma 2. Leapfrog intersections run through ``range_next_value`` on
those ranges, never materializing anything.

A side's range depends only on the value bound on the other side, so it
is resolved there — in ``bind``, which needs it for its emptiness test
anyway — and every ``leap`` and ``estimate`` until the matching
``unbind`` reads it back — and ``values`` reports it in one traversal.
So does the span's seeker: built on first use, it is kept until the
other side is unbound.
``S`` and ``S'`` hold member ranks: a leap maps its ``lower`` to a rank
and its answer back to a node id through the sorted member list.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.knn.succinct import KnnRing
from repro.ltj.relation import LeapRelation
from repro.query.model import SimClause, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RelationCounters


class KnnClauseRelation(LeapRelation):
    """A clause ``x <|_k y`` viewed as a leapfrog relation.

    Position 0 is the ``x`` side, position 1 the ``y`` side.
    """

    def __init__(self, knn: KnnRing, clause: SimClause) -> None:
        self._knn = knn
        self._clause = clause
        self._k = clause.k
        self.terms = (clause.x, clause.y)
        self.obs: RelationCounters | None = None
        """Optional :class:`repro.obs.trace.RelationCounters`; detail
        keys name the kNN-ring primitive used per call (e.g.
        ``leap_forward_S`` for a descent of the simulated trie T_xy)."""
        # Current bindings of the two sides (None = unbound). Constants
        # are bound immediately and never count towards the depth.
        self._values: list[int | None] = [
            None if isinstance(term, Var) else term for term in self.terms
        ]
        self._depth = 0
        self._failed_depth: int | None = None
        # Per position, the tree its leaps descend and, while the other
        # side is bound, the closed range of it they are confined to.
        self._trees = (knn.Sprime, knn.S)
        self._ids = knn._members_i
        x, y = self._values
        self._ranges: list[tuple[int, int] | None] = [
            None if y is None else knn.backward_range(y, self._k),
            None if x is None else knn.forward_range(x, self._k),
        ]
        self._seekers: list[Callable[[int], int | None] | None] = [None, None]
        if x is not None and y is not None and not knn.contains(x, y, self._k):
            # Fully constant clause: a static filter.
            self._failed_depth = 0

    # ------------------------------------------------------------------
    @property
    def clause(self) -> SimClause:
        return self._clause

    def is_empty(self) -> bool:
        return self._failed_depth is not None

    # ------------------------------------------------------------------
    def leap(self, pos: int, lower: int) -> int | None:
        if self._failed_depth is not None:
            return None
        obs = self.obs
        if obs is not None:
            obs.leaps += 1
        span = self._ranges[pos]
        if span is not None:
            # Descend T_xy in S[(x-1)K+1 .. (x-1)K+k] (Lemma 2b), or
            # T_yx in S'[p_y(1) .. p_y(k+1)-1] (Lemma 2c).
            if obs is not None:
                obs.bump("leap_forward_S" if pos else "leap_backward_Sprime")
            lo, hi = span
            if lo > hi:
                return None
            return self._trees[pos]._range_next_id_u(self._ids, lo, hi, lower)
        if pos:
            # Root of T_yx: any member with a non-empty reverse range.
            if obs is not None:
                obs.bump("leap_root_reverse")
            return self._knn.next_reverse_nonempty(self._k, lower)
        # Root of T_xy: every member has k forward neighbors.
        if obs is not None:
            obs.bump("leap_root_member")
        return self._knn.next_member(lower)

    def seeker(self, pos: int) -> Callable[[int], int | None]:
        span = self._ranges[pos]
        if self.obs is not None or span is None:
            return super().seeker(pos)
        seek = self._seekers[pos]
        if seek is None:
            seek = self._seekers[pos] = self._trees[pos].seeker(
                *span, self._ids
            )
        return seek

    def values(self, pos: int) -> Sequence[int]:
        span = self._ranges[pos]
        if span is None or self._failed_depth is not None:
            return super().values(pos)
        obs = self.obs
        if obs is not None:
            obs.leaps += 1
            obs.bump("leap_forward_S" if pos else "leap_backward_Sprime")
        lo, hi = span
        if lo > hi:
            return ()
        ranks = self._trees[pos]._range_values_u(lo, hi)
        return list(map(self._ids.__getitem__, ranks))

    def bind(self, pos: int, value: int) -> bool:
        values = self._values
        anchor = values[1 - pos]
        values[pos] = value
        self._depth += 1
        obs = self.obs
        if self._failed_depth is not None:
            # Already failed; the push only keeps unbind symmetric.
            if obs is not None:
                obs.failed_binds += 1
            return False
        if anchor is not None:
            if obs is not None:
                obs.bump("contains")
            ok = self._knn.contains(
                anchor if pos else value, value if pos else anchor, self._k
            )
        else:
            # First side bound: resolve the other side's range; the atom
            # stays non-empty exactly when that range is.
            if pos:
                if obs is not None:
                    obs.bump("count_backward")
                lo, hi = span = self._knn.backward_range(value, self._k)
            else:
                if obs is not None:
                    obs.bump("count_forward")
                lo, hi = span = self._knn.forward_range(value, self._k)
            self._ranges[1 - pos] = span
            ok = lo <= hi
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
        self._seekers[1 - pos] = None
        if self._failed_depth is not None and self._failed_depth > self._depth:
            self._failed_depth = None

    def estimate(self, pos: int) -> int:
        """Exact candidate counts from the S/S' ranges (Sec. 5): ``k``
        when ``x`` is bound, the reverse-range size when ``y`` is bound,
        the member count when neither is."""
        if self.obs is not None:
            self.obs.estimates += 1
        span = self._ranges[pos]
        if span is None:
            return self._knn.num_members
        return span[1] - span[0] + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KnnClauseRelation({self._clause!r})"
