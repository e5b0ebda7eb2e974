"""Range-based similarity index: the sequence ``D`` of Sec. 3.3.

For clauses ``dist(x, y) <= d`` (with ``d <= d_max`` fixed at
construction), the paper sketches a structure "much like S'": for every
member ``u``, all nodes within distance ``d_max`` of ``u`` in increasing
distance order, concatenated into a sequence ``D`` represented as a
wavelet tree, with a bitvector marking each member's region and a
parallel array of distances for the binary search of the ``<= d`` prefix.

Since metric distances are symmetric, one structure serves both
directions of a clause.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable

import numpy as np

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

Metric = Callable[[np.ndarray, np.ndarray], float]


class DistanceRangeIndex(LazyMirrors):
    """Succinct index answering ``{v : dist(u, v) <= d}`` as a range."""

    LAYOUT = Layout(
        "distance_index",
        Scalar("_d_max", float),
        Array("_members", INT, mirrored=True),
        Array("_distances", "<f8", mirrored=True),
        Child("_D", WaveletTree),
        Child("_B", BitVector),
    )

    def __init__(
        self,
        points: np.ndarray,
        d_max: float,
        members: np.ndarray | None = None,
        metric: Metric | None = None,
    ) -> None:
        """Precompute, per member, the ``d_max``-neighborhood by distance.

        Args:
            points: ``(n, dim)`` descriptors, parallel to ``members``.
            d_max: maximum distance of interest; queries must use
                ``d <= d_max``.
            members: node ids (default ``0..n-1``), sorted and distinct.
            metric: distance callable; defaults to Euclidean.
        """
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
            if not np.array_equal(mem, np.sort(mem)):
                raise ValidationError("members must be sorted")
        if d_max <= 0:
            raise ValidationError("d_max must be positive")
        self._members = mem
        self._members.setflags(write=False)
        # Plain-int mirror for the per-leap bisect lookups: indexing a
        # numpy array in the LTJ inner loop boxes a fresh scalar per
        # probe (see KnnRing, which keeps the same mirror).
        self._members_i: list[int] = mem.tolist()
        self._d_max = float(d_max)

        if metric is None:
            sq = (pts**2).sum(axis=1)
            dist = np.sqrt(
                np.maximum(sq[:, None] + sq[None, :] - 2.0 * pts @ pts.T, 0.0)
            )
        else:
            dist = np.empty((n, n), dtype=np.float64)
            for i in range(n):
                for j in range(n):
                    dist[i, j] = metric(pts[i], pts[j])
        np.fill_diagonal(dist, np.inf)

        seq_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []
        lengths = np.zeros(n, dtype=np.int64)
        for i in range(n):
            within = np.flatnonzero(dist[i] <= self._d_max)
            order = np.lexsort((within, dist[i][within]))
            chosen = within[order]
            seq_parts.append(mem[chosen])
            dist_parts.append(dist[i][chosen])
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
        # at ~7-9% of the whole leap_within loop on mmap-attached
        # structures. bisect on the list mirror is allocation-free.
        self._distances_i: list[float] = self._distances.tolist()
        sigma = int(mem.max()) + 1 if n else 1
        self._D = WaveletTree(seq, sigma)
        # Region marks: 1 0^{len_0} 1 0^{len_1} ... as in B of Def. 8.
        total = int(lengths.sum())
        bits = np.zeros(n + total, dtype=np.uint8)
        one_positions = np.arange(n, dtype=np.int64) + np.concatenate(
            ([0], np.cumsum(lengths)[:-1])
        )
        bits[one_positions] = 1
        self._B = BitVector(bits)

    @property
    def members(self) -> np.ndarray:
        return self._members

    @property
    def d_max(self) -> float:
        return self._d_max

    @property
    def D(self) -> WaveletTree:
        """The wavelet tree over the concatenated neighborhoods."""
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
        return [self._D.access(i) for i in range(lo, hi + 1)]

    def count_within(self, u: int, d: float) -> int:
        """Number of nodes within distance ``d`` of ``u`` (the per-binding
        ``k`` the paper notes could steer variable ordering)."""
        lo, hi = self.range_within(u, d)
        return max(0, hi - lo + 1)

    def leap_within(self, u: int, d: float, lower: int) -> int | None:
        """Smallest ``v >= lower`` with ``dist(u, v) <= d``."""
        lo, hi = self.range_within(u, d)
        if lo > hi:
            return None
        return self._D.range_next_value(lo, hi, lower)

    def contains(self, u: int, v: int, d: float) -> bool:
        """The predicate ``dist(u, v) <= d`` answered on the index.

        Values outside the alphabet (beyond the largest member id) are
        never within range.
        """
        if not 0 <= v < self._D.alphabet_size:
            return False
        lo, hi = self.range_within(u, d)
        return lo <= hi and self._D.rank_range(v, lo, hi) > 0

    def next_member(self, lower: int) -> int | None:
        """Smallest member id ``>= lower``."""
        members = self._members_i
        idx = bisect_left(members, lower)
        if idx >= len(members):
            return None
        return members[idx]
