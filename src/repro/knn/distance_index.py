"""Range-based similarity index: the sequence ``D`` of Sec. 3.3.

For clauses ``dist(x, y) <= d`` (with ``d <= d_max`` fixed at
construction), the paper sketches a structure "much like S'": for every
member ``u``, all nodes within distance ``d_max`` of ``u`` in increasing
distance order, concatenated into a sequence ``D`` represented as a
wavelet tree, with a bitvector marking each member's region and a
parallel array of distances for the binary search of the ``<= d`` prefix.
As in :mod:`repro.knn.succinct`, ``D`` holds member ranks, not node ids:
its alphabet is the ``n`` members, and the sorted member array maps a
rank back to its node.

Euclidean distance is symmetric, so one structure serves both directions
of a clause.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.succinct.bitvector import BitVector
from repro.succinct.fields import (
    INT,
    Array,
    Child,
    Derived,
    Layout,
    LazyMirrors,
    Scalar,
    check_sums,
    checked_ids,
)
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class DistanceRangeIndex(LazyMirrors):
    """Succinct index answering ``{v : dist(u, v) <= d}`` as a range."""

    LAYOUT = Layout(
        "distance_index",
        Scalar("_d_max", float),
        Scalar("_id_bound"),
        Array("_members", INT, "distance-index members"),
        Array(
            "_distances", "<f8", "distance-index distances", mirrored=True
        ),
        Child("_D", WaveletTree),
        Child("_B", BitVector),
        Derived("_members_i", "_checked_members"),
        promote="_promote",
    )

    def __init__(
        self,
        points: np.ndarray,
        d_max: float,
        members: np.ndarray | None = None,
    ) -> None:
        """Precompute, per member, the ``d_max``-neighborhood by distance.

        Args:
            points: ``(n, dim)`` descriptors, parallel to ``members``.
            d_max: maximum distance of interest; queries must use
                ``d <= d_max``.
            members: node ids (default ``0..n-1``), sorted and distinct.
        """
        import numpy as np

        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValidationError("points must be (n, dim)")
        if pts.size and not np.isfinite(pts).all():
            raise ValidationError("points must be finite (no NaN/inf)")
        n = pts.shape[0]
        if members is None:
            mem = np.arange(n, dtype=np.int64)
        else:
            mem = np.asarray(members, dtype=np.int64)
            if mem.shape != (n,):
                raise ValidationError("members must be parallel to points")
            if (np.diff(mem) <= 0).any():
                raise ValidationError("members must be sorted and distinct")
        if d_max <= 0:
            raise ValidationError("d_max must be positive")
        self._members = mem
        self._members.setflags(write=False)
        # Plain-int mirror for the per-leap bisect lookups: indexing a
        # numpy array in the LTJ inner loop boxes a fresh scalar per
        # probe (see KnnRing, which keeps the same mirror).
        self._members_i: Sequence[int] = mem.tolist()
        # What an attached member table's ids are checked against (``D``
        # holds ranks, so its alphabet bounds none).
        self._id_bound = int(mem[-1]) + 1 if n else 0
        self._d_max = float(d_max)

        seq_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []
        lengths = np.zeros(n, dtype=np.int64)
        for i in range(n):
            # Exact differences, not the expansion |a|^2 + |b|^2 - 2 a.b,
            # which cancels away the distances of points far from the
            # origin (the fault the K-NN builder's exact re-rank avoids).
            dist = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
            dist[i] = np.inf
            within = np.flatnonzero(dist <= self._d_max)
            order = np.lexsort((within, dist[within]))
            chosen = within[order]
            seq_parts.append(chosen)
            dist_parts.append(dist[chosen])
            lengths[i] = chosen.size
        seq = (
            np.concatenate(seq_parts) if seq_parts else np.empty(0, dtype=np.int64)
        )
        self._distances = (
            np.concatenate(dist_parts)
            if dist_parts
            else np.empty(0, dtype=np.float64)
        )
        # Plain-float mirror of the parallel distance array: every
        # range_within() binary-searches one region, and doing that
        # with np.searchsorted on a slice of the canonical array costs
        # a view allocation plus numpy dispatch per *leap* — measured
        # at ~7-9% of the distance relation's leap loop on mmap-attached
        # structures. bisect on the list mirror is allocation-free.
        self._distances_i: list[float] = self._distances.tolist()
        self._D = WaveletTree(seq, max(n, 1))
        # Region marks: 1 0^{len_0} 1 0^{len_1} ... as in B of Def. 8.
        total = int(lengths.sum())
        bits = np.zeros(n + total, dtype=np.uint8)
        one_positions = np.arange(n, dtype=np.int64) + np.concatenate(
            ([0], np.cumsum(lengths)[:-1])
        )
        bits[one_positions] = 1
        self._B = BitVector(bits)

    def _checked_members(self) -> Sequence[int]:
        return checked_ids(
            self, "distance-index members", self._members, self._id_bound
        )

    @property
    def members(self) -> Sequence[int]:
        """The sorted member ids: a numpy array when built, a read-only
        ``memoryview`` of the mapping when attached (held to its
        checksum first)."""
        check_sums(self)
        return self._members

    @property
    def d_max(self) -> float:
        return self._d_max

    @property
    def D(self) -> WaveletTree:
        """The wavelet tree over the concatenated neighborhoods, as
        member ranks: ``members[D[i]]`` is the node."""
        return self._D

    def _index_of(self, node: int) -> int | None:
        members = self._members_i
        idx = bisect_left(members, node)
        if idx < len(members) and members[idx] == node:
            return idx
        return None

    def _region_of(self, ui: int) -> tuple[int, int]:
        """Closed 0-based range of member index ``ui``'s region in ``D``."""
        # ``ui`` comes from _index_of, so the select arguments are
        # in-range by construction and the unchecked kernels apply.
        pos = self._B._select1_u(ui + 1)
        lo = pos - ui  # zeros before the (ui+1)-th one
        if ui + 2 <= self._B.n_ones:
            hi = self._B._select1_u(ui + 2) - (ui + 1) - 1
        else:
            hi = len(self._D) - 1
        return lo, hi

    def range_within(self, u: int, d: float) -> tuple[int, int]:
        """Closed 0-based range of ``D`` listing ``{v : dist(u, v) <= d}``.

        The prefix of the (distance-sorted) region is located by binary
        search on the parallel distance array, as described in Sec. 3.3.
        """
        if d > self._d_max:
            raise ValidationError(
                f"query distance {d} exceeds construction d_max={self._d_max}"
            )
        ui = self._index_of(u)
        if ui is None:
            return (0, -1)
        lo, hi = self._region_of(ui)
        if lo > hi:
            return (0, -1)
        # Bounded bisect on the plain-float mirror: equivalent to
        # np.searchsorted(self._distances[lo:hi+1], d, "right") without
        # materializing a view or boxing a numpy scalar per call.
        cnt = bisect_right(self._distances_i, d, lo, hi + 1) - lo
        return (lo, lo + cnt - 1)

    def neighbors_within(self, u: int, d: float) -> list[int]:
        """All ``v`` with ``dist(u, v) <= d``, nearest first."""
        lo, hi = self.range_within(u, d)
        members = self._members_i
        return [members[self._D.access(i)] for i in range(lo, hi + 1)]

    def contains(self, u: int, v: int, d: float) -> bool:
        """The predicate ``dist(u, v) <= d`` answered on the index.

        A non-member ``v`` has no rank in ``D`` and is never within
        range.
        """
        vi = self._index_of(v)
        if vi is None:
            return False
        lo, hi = self.range_within(u, d)
        return lo <= hi and self._D.rank_range(vi, lo, hi) > 0

    def next_member(self, lower: int) -> int | None:
        """Smallest member id ``>= lower``."""
        members = self._members_i
        idx = bisect_left(members, lower)
        if idx >= len(members):
            return None
        return members[idx]
