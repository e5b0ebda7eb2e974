"""Succinct K-NN graph: sequences ``S``, ``S'`` and bitvector ``B``.

This is the structure of Defs. 7-8 of the paper. With members identified
by their dense index ``ui`` in the sorted member array:

* ``S[ui*K + j]`` (0-based ``j``) is the ``(j+1)``-th nearest neighbor of
  member ``ui`` — the concatenation ``S_1 S_2 ... S_n`` of Def. 7;
* ``S'`` concatenates, per member ``v``, the nodes ``u`` having ``v`` in
  their ``K``-NN list, sorted by the rank ``j_u`` at which ``v`` appears
  (Def. 8);
* ``B = B_1 ... B_n`` with ``B_v = 1 0^{s_1} 1 0^{s_2} ... 1 0^{s_K}``
  marks, in unary, how many entries of ``S'_v`` come from each rank.

Both sequences are wavelet trees (so they support ``range_next_value``
and participate in leapfrog intersections), and ``B`` is a plain
bitvector with constant-time select — mirroring the SDSL layout of
Sec. 5. Lemma 1 gives the position arithmetic implemented in
:meth:`KnnRing.backward_range`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.knn.graph import KnnGraph
from repro.succinct.bitvector import BitVector
from repro.succinct.fields import (
    INT,
    Array,
    Child,
    Layout,
    LazyMirrors,
    Scalar,
)
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import ValidationError


class KnnRing(LazyMirrors):
    """Succinct K-NN index supporting forward and backward k-NN ranges."""

    LAYOUT = Layout(
        "knn_ring",
        Scalar("_K"),
        Array("_members", INT, mirrored=True),
        Array("_s_offsets", INT, mirrored=True),
        Child("_S", WaveletTree),
        Child("_Sprime", WaveletTree),
        Child("_B", BitVector),
    )

    def __init__(self, graph: KnnGraph) -> None:
        self._members = graph.members.copy()
        self._members.setflags(write=False)
        self._K = graph.K
        n = graph.num_members
        K = self._K
        sigma = int(self._members.max()) + 1 if n else 1

        # S: concatenation of the valid neighbor prefixes (Def. 7). With
        # full rows this is the plain row-major flattening and regions
        # are located arithmetically; truncated rows (Sec. 3.1's
        # "fewer than K neighbors" relaxation) use the offsets table.
        lengths = graph.lengths
        self._s_offsets = np.concatenate(
            ([0], np.cumsum(lengths, dtype=np.int64))
        )
        table = graph.neighbor_table
        if graph.is_truncated:
            parts = [table[i, : lengths[i]] for i in range(n)]
            s_seq = (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
            valid_ranks = np.concatenate(
                [np.arange(le, dtype=np.int64) for le in lengths]
            ) if n else np.empty(0, dtype=np.int64)
            sources = np.repeat(self._members, lengths)
        else:
            s_seq = table.reshape(-1)
            valid_ranks = np.tile(np.arange(K, dtype=np.int64), n)
            sources = np.repeat(self._members, K)

        # S' and B (Def. 8): for each member v, the sources u that list v,
        # ordered by the rank at which they list it; B marks rank groups
        # in unary. Built with one stable sort over all (v, rank, u).
        member_index = {int(m): i for i, m in enumerate(self._members)}
        targets = np.array(
            [member_index[int(v)] for v in s_seq], dtype=np.int64
        )
        order = np.lexsort((sources, valid_ranks, targets))
        sprime_seq = sources[order]
        # counts[v, t] = number of u with K-NN(u)[t] == member v.
        counts = np.zeros((n, K), dtype=np.int64)
        if targets.size:
            np.add.at(counts, (targets, valid_ranks), 1)
        flat_counts = counts.reshape(-1)
        # The g-th 1-bit (0-based group g) sits after g earlier 1s and all
        # zeros of earlier groups.
        zeros_before = np.concatenate(([0], np.cumsum(flat_counts)[:-1]))
        one_positions = np.arange(n * K, dtype=np.int64) + zeros_before
        bits = np.zeros(n * K + int(flat_counts.sum()), dtype=np.uint8)
        bits[one_positions] = 1
        self._S = WaveletTree(s_seq, sigma)
        self._Sprime = WaveletTree(sprime_seq, sigma)
        self._B = BitVector(bits)
        # Plain-int mirrors for the per-call hot paths (index_of /
        # next_member bisect and forward_range offsets).
        self._members_i: list[int] = self._members.tolist()
        self._s_offsets_i: list[int] = self._s_offsets.tolist()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> np.ndarray:
        return self._members

    @property
    def num_members(self) -> int:
        return int(self._members.size)

    @property
    def K(self) -> int:
        return self._K

    @property
    def S(self) -> WaveletTree:
        """The wavelet tree over ``S`` (forward neighbor lists)."""
        return self._S

    @property
    def Sprime(self) -> WaveletTree:
        """The wavelet tree over ``S'`` (rank-ordered reverse lists)."""
        return self._Sprime

    def wavelet_trees(self) -> tuple[WaveletTree, WaveletTree]:
        """``(S, S')`` — for per-query memo attachment."""
        return (self._S, self._Sprime)

    def _check_k(self, k: int) -> int:
        if not 1 <= k <= self._K:
            raise ValidationError(
                f"k={k} outside [1, K={self._K}] fixed at construction"
            )
        return k

    def index_of(self, node: int) -> int | None:
        """Dense member index, or ``None`` for non-members."""
        members = self._members_i
        idx = bisect_left(members, node)
        if idx < len(members) and members[idx] == node:
            return idx
        return None

    # ------------------------------------------------------------------
    # the ranges of Lemma 2
    # ------------------------------------------------------------------
    def forward_range(self, u: int, k: int) -> tuple[int, int]:
        """Closed 0-based range of ``S`` listing ``k``-NN(``u``).

        Lemma 2(b): ``v in k-NN(u)`` iff ``v`` occurs in
        ``S[(u-1)K+1 .. (u-1)K+k]`` (1-based); with truncated rows the
        prefix is capped at the row's stored length. Returns an empty
        range (``lo > hi``) for non-member ``u`` — the paper's convention
        that predicates on non-participating nodes are false.
        """
        self._check_k(k)
        ui = self.index_of(u)
        if ui is None:
            return (0, -1)
        lo = self._s_offsets_i[ui]
        length = self._s_offsets_i[ui + 1] - lo
        return (lo, lo + min(k, length) - 1)

    def _sprime_boundary(self, vi: int, t: int) -> int:
        """0-based start position in ``S'`` of member ``vi``'s rank-``t``
        group (``t`` 1-based, ``1 <= t <= K+1``).

        Lemma 1: the ``j``-th 1 of ``B`` (with ``j = vi*K + t``) has
        ``j - 1`` ones before it, so the zeros before it — which are
        exactly the ``S'`` entries preceding the group — number
        ``select1(B, j) - (j - 1)``.
        """
        j = vi * self._K + t
        if j > self._B.n_ones:
            # Only happens for vi == n-1, t == K+1: end of S'.
            return len(self._Sprime)
        pos = self._B._select1_u(j)
        return pos - (j - 1)

    def backward_range(self, v: int, k: int) -> tuple[int, int]:
        """Closed 0-based range of ``S'`` listing ``{u : v in k-NN(u)}``.

        Lemma 2(c): ``v in k-NN(u)`` iff ``u`` occurs in
        ``S'[p_v(1) .. p_v(k+1) - 1]``. Empty for non-members.
        """
        self._check_k(k)
        vi = self.index_of(v)
        if vi is None:
            return (0, -1)
        lo = self._sprime_boundary(vi, 1)
        hi = self._sprime_boundary(vi, k + 1) - 1
        return (lo, hi)

    # ------------------------------------------------------------------
    # predicates and enumeration on top of the ranges
    # ------------------------------------------------------------------
    def contains(self, u: int, v: int, k: int) -> bool:
        """The predicate ``v in k-NN(u)`` answered on the succinct form.

        Values outside the structure's alphabet (non-members beyond the
        largest member id) are simply never similar.
        """
        if not 0 <= v < self._S.alphabet_size:
            return False
        lo, hi = self.forward_range(u, k)
        return self._S.rank_range(v, lo, hi) > 0

    def neighbors_of(self, u: int, k: int | None = None) -> list[int]:
        """Recover ``k``-NN(``u``) in distance order from ``S``.

        Demonstrates that the index replaces the raw K-NN graph (the
        space accounting in Sec. 6.2 relies on this).
        """
        k = self._K if k is None else self._check_k(k)
        lo, hi = self.forward_range(u, max(k, 1)) if k else (0, -1)
        return [self._S.access(i) for i in range(lo, hi + 1)]

    def reverse_neighbors_of(self, v: int, k: int | None = None) -> list[int]:
        """All ``u`` with ``v in k-NN(u)``, in increasing rank order."""
        k = self._K if k is None else self._check_k(k)
        lo, hi = self.backward_range(v, k)
        return [self._Sprime.access(i) for i in range(lo, hi + 1)]

    def leap_forward(self, u: int, k: int, lower: int) -> int | None:
        """Smallest ``v >= lower`` with ``v in k-NN(u)`` (leap in ``S``)."""
        lo, hi = self.forward_range(u, k)
        return self._S.range_next_value(lo, hi, lower) if lo <= hi else None

    def leap_backward(self, v: int, k: int, lower: int) -> int | None:
        """Smallest ``u >= lower`` with ``v in k-NN(u)`` (leap in ``S'``)."""
        lo, hi = self.backward_range(v, k)
        return self._Sprime.range_next_value(lo, hi, lower) if lo <= hi else None

    def next_member(self, lower: int) -> int | None:
        """Smallest member id ``>= lower`` (candidates for an unbound x)."""
        members = self._members_i
        idx = bisect_left(members, lower)
        if idx >= len(members):
            return None
        return members[idx]

    def next_reverse_nonempty(self, k: int, lower: int) -> int | None:
        """Smallest member ``v >= lower`` with a non-empty backward
        ``k``-range (candidates for ``y`` when ``x`` is still unbound)."""
        self._check_k(k)
        members = self._members_i
        idx = bisect_left(members, lower)
        while idx < len(members):
            v = members[idx]
            lo, hi = self.backward_range(v, k)
            if lo <= hi:
                return v
            idx += 1
        return None

    def forward_count(self, u: int, k: int) -> int:
        """Number of candidates for ``y`` given ``x = u`` (exactly ``k``
        for members, 0 otherwise) — used for the ``l_x`` estimates."""
        lo, hi = self.forward_range(u, k)
        return max(0, hi - lo + 1)

    def backward_count(self, v: int, k: int) -> int:
        """Number of candidates for ``x`` given ``y = v``."""
        lo, hi = self.backward_range(v, k)
        return max(0, hi - lo + 1)
