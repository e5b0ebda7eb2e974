"""Succinct K-NN graph: sequences ``S``, ``S'`` and bitvector ``B``.

This is the structure of Defs. 7-8 of the paper. With members identified
by their dense index ``ui`` (their *rank*) in the sorted member array:

* ``S[ui*K + j]`` (0-based ``j``) is the rank of the ``(j+1)``-th nearest
  neighbor of member ``ui`` — the concatenation ``S_1 S_2 ... S_n`` of
  Def. 7;
* ``S'`` concatenates, per member ``v``, the ranks of the nodes ``u``
  having ``v`` in their ``K``-NN list, sorted by the rank ``j_u`` at
  which ``v`` appears (Def. 8);
* ``B = B_1 ... B_n`` with ``B_v = 1 0^{s_1} 1 0^{s_2} ... 1 0^{s_K}``
  marks, in unary, how many entries of ``S'_v`` come from each rank.

Both sequences are wavelet trees (so they support ``range_next_value``
and participate in leapfrog intersections), and ``B`` is a plain
bitvector with constant-time select — mirroring the SDSL layout of
Sec. 5. Lemma 1 gives the position arithmetic implemented in
:meth:`KnnRing.backward_range`; the structure is immutable, so, as a
wavelet tree does, a ring keeps the ranges it placed for its lifetime.

The sequences hold member ranks, not node ids, so their alphabet is the
``n`` members, not the largest id: the sorted member array is the
monotone map back, and a node id crosses it once on the way in (a
bisect) and once on the way out (a subscript).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.succinct import wavelet_tree
from repro.succinct.bitvector import BitVector
from repro.succinct.fields import (
    INT,
    Array,
    Child,
    Derived,
    Layout,
    LazyMirrors,
    Scalar,
    Transient,
    check_sums,
    checked_ids,
    checked_offsets,
)
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.knn.graph import KnnGraph


class KnnRing(LazyMirrors):
    """Succinct K-NN index supporting forward and backward k-NN ranges."""

    LAYOUT = Layout(
        "knn_ring",
        Scalar("_K"),
        Scalar("_id_bound"),
        Array("_members", INT, "K-NN members"),
        Array("_s_offsets", INT, "K-NN row offsets"),
        Child("_S", WaveletTree),
        Child("_Sprime", WaveletTree),
        Child("_B", BitVector),
        Derived("_members_i", "_checked_members"),
        Derived("_s_offsets_i", "_checked_s_offsets"),
        Transient("_memo_backward", {}),
        Transient("_reverse_members", {}),
        promote="_promote",
    )

    def __init__(self, graph: KnnGraph) -> None:
        import numpy as np

        self._members = graph.members.copy()
        self._members.setflags(write=False)
        self._K = graph.K
        n = graph.num_members
        K = self._K
        # The sequences' alphabet, n, bounds ranks; an attached member
        # table's ids are checked against this bound instead.
        self._id_bound = int(self._members[-1]) + 1 if n else 0

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
        else:
            s_seq = table.reshape(-1)
            valid_ranks = np.tile(np.arange(K, dtype=np.int64), n)
        sources = np.repeat(np.arange(n, dtype=np.int64), lengths)

        # S holds each neighbor's member rank (neighbors are members).
        targets = np.searchsorted(self._members, s_seq)
        # S' and B (Def. 8): for each member v, the sources u that list v,
        # ordered by the rank at which they list it; B marks rank groups
        # in unary. Built with one stable sort over all (v, rank, u).
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
        self._S = WaveletTree(targets, max(n, 1))
        self._Sprime = WaveletTree(sprime_seq, max(n, 1))
        self._B = BitVector(bits)
        # Plain-int mirrors for the per-call hot paths (index_of /
        # next_member bisect and forward_range offsets).
        self._members_i: Sequence[int] = self._members.tolist()
        self._s_offsets_i: Sequence[int] = self._s_offsets.tolist()
        # Lifetime memos, empty after every attach (docs/data-structures.md).
        self._memo_backward: dict[tuple[int, int], tuple[int, int]] = {}
        self._reverse_members: dict[int, list[int]] = {}

    def _checked_members(self) -> Sequence[int]:
        return checked_ids(self, "K-NN members", self._members, self._id_bound)

    def _checked_s_offsets(self) -> Sequence[int]:
        return checked_offsets(
            self, "K-NN row offsets", self._s_offsets, len(self._members) + 1,
            len(self._S),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> Sequence[int]:
        """The sorted member ids: a numpy array when built, a read-only
        ``memoryview`` of the mapping when attached (held to its
        checksum first)."""
        check_sums(self)
        return self._members

    @property
    def num_members(self) -> int:
        return len(self._members)

    @property
    def K(self) -> int:
        return self._K

    @property
    def S(self) -> WaveletTree:
        """The wavelet tree over ``S`` (forward neighbor lists, as member
        ranks: ``members[S[i]]`` is the node)."""
        return self._S

    @property
    def Sprime(self) -> WaveletTree:
        """The wavelet tree over ``S'`` (rank-ordered reverse lists, as
        member ranks)."""
        return self._Sprime

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
        ``S'[p_v(1) .. p_v(k+1) - 1]``. Empty for non-members. Memoized,
        keyed ``(v, k)``.
        """
        self._check_k(k)
        memo = self._memo_backward
        span = memo.get((v, k))
        if span is None:
            vi = self.index_of(v)
            span = (0, -1) if vi is None else (
                self._sprime_boundary(vi, 1),
                self._sprime_boundary(vi, k + 1) - 1,
            )
            if len(memo) >= wavelet_tree._MEMO_CAP:
                memo.clear()
            memo[v, k] = span
        return span

    # ------------------------------------------------------------------
    # predicates and enumeration on top of the ranges
    # ------------------------------------------------------------------
    def contains(self, u: int, v: int, k: int) -> bool:
        """The predicate ``v in k-NN(u)`` answered on the succinct form.

        A non-member ``v`` has no rank in ``S`` and is simply never
        similar.
        """
        vi = self.index_of(v)
        if vi is None:
            return False
        lo, hi = self.forward_range(u, k)
        return self._S.rank_range(vi, lo, hi) > 0

    def neighbors_of(self, u: int, k: int | None = None) -> list[int]:
        """Recover ``k``-NN(``u``) in distance order from ``S``.

        Demonstrates that the index replaces the raw K-NN graph (the
        space accounting in Sec. 6.2 relies on this).
        """
        k = self._K if k is None else self._check_k(k)
        lo, hi = self.forward_range(u, max(k, 1)) if k else (0, -1)
        members = self._members_i
        return [members[self._S.access(i)] for i in range(lo, hi + 1)]

    def reverse_neighbors_of(self, v: int, k: int | None = None) -> list[int]:
        """All ``u`` with ``v in k-NN(u)``, in increasing rank order."""
        k = self._K if k is None else self._check_k(k)
        lo, hi = self.backward_range(v, k)
        members = self._members_i
        return [members[self._Sprime.access(i)] for i in range(lo, hi + 1)]

    def leap_forward(self, u: int, k: int, lower: int) -> int | None:
        """Smallest ``v >= lower`` with ``v in k-NN(u)`` (leap in ``S``)."""
        lo, hi = self.forward_range(u, k)
        if lo > hi:
            return None
        return self._S._range_next_id_u(self._members_i, lo, hi, lower)

    def leap_backward(self, v: int, k: int, lower: int) -> int | None:
        """Smallest ``u >= lower`` with ``v in k-NN(u)`` (leap in ``S'``)."""
        lo, hi = self.backward_range(v, k)
        if lo > hi:
            return None
        return self._Sprime._range_next_id_u(self._members_i, lo, hi, lower)

    def next_member(self, lower: int) -> int | None:
        """Smallest member id ``>= lower`` (candidates for an unbound x)."""
        members = self._members_i
        idx = bisect_left(members, lower)
        if idx >= len(members):
            return None
        return members[idx]

    def next_reverse_nonempty(self, k: int, lower: int) -> int | None:
        """Smallest member ``v >= lower`` with a non-empty backward
        ``k``-range (candidates for ``y`` when ``x`` is still unbound): one
        bisect of those members, listed at the first call with ``k``."""
        self._check_k(k)
        ids = self._reverse_members.get(k)
        if ids is None:
            boundary = self._sprime_boundary
            ids = self._reverse_members[k] = [
                v for vi, v in enumerate(self._members_i)
                if boundary(vi, k + 1) > boundary(vi, 1)
            ]
        idx = bisect_left(ids, lower)
        return ids[idx] if idx < len(ids) else None
