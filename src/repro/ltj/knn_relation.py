"""LTJ relation adapter for a similarity clause ``x <|_k y``.

This realizes Sec. 3.3: the clause behaves exactly as if the relation
``kNN(x, y)`` had been materialized with tries ``T_xy`` and ``T_yx``,
but the trie nodes are simulated as ranges of the wavelet trees over
``S`` (when ``x`` is bound first) or ``S'`` (when ``y`` is bound first),
per Lemma 2. Leapfrog intersections run through ``range_next_value`` on
those ranges, never materializing anything. How a range is resolved,
kept and leaped is :mod:`repro.ltj.clause_relation`'s.
"""

from __future__ import annotations

from functools import partial

from repro.knn.succinct import KnnRing
from repro.ltj.clause_relation import ClauseRelation, Span
from repro.query.model import SimClause


class KnnClauseRelation(ClauseRelation):
    """A clause ``x <|_k y`` viewed as a leapfrog relation.

    Position 0 is the ``x`` side, position 1 the ``y`` side.
    """

    kind = "knn"
    seek_keys = (
        ("leap_root_member", "leap_backward_Sprime"),
        ("leap_root_reverse", "leap_forward_S"),
    )
    count_keys = ("count_forward", "count_backward")

    def __init__(self, knn: KnnRing, clause: SimClause) -> None:
        self._knn = knn
        self._k = clause.k
        # The x side descends T_yx in S', the y side T_xy in S. At the
        # roots, T_xy's values are every member (each has k forward
        # neighbors), T_yx's every member with a non-empty reverse range.
        super().__init__(
            clause,
            (knn.Sprime, knn.S),
            knn,
            (knn.next_member, partial(knn.next_reverse_nonempty, self._k)),
            knn.num_members,
        )

    def _range(self, pos: int, anchor: int) -> Span:
        # T_xy in S[(x-1)K+1 .. (x-1)K+k] (Lemma 2b), or T_yx in
        # S'[p_y(1) .. p_y(k+1)-1] (Lemma 2c).
        if pos:
            return self._knn.forward_range(anchor, self._k)
        return self._knn.backward_range(anchor, self._k)

    def _holds(self, pos: int, value: int, anchor: int) -> bool:
        x, y = (anchor, value) if pos else (value, anchor)
        return self._knn.contains(x, y, self._k)
