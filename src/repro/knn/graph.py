"""The K-NN graph model (Def. 4 of the paper).

A :class:`KnnGraph` records, for each *member* node ``u`` (a graph
constant), the ordered list ``K-NN(u)`` of its nearest other members,
closest first. The paper assumes all graph nodes participate but
explicitly allows two relaxations (Sec. 3.1):

* subsets of ``V`` — we make the member set explicit;
* "fewer than K neighbors for some nodes, for example to disregard
  neighbors that are too far away" — rows may be *truncated*: an
  optional ``lengths`` array gives each member's actual list length
  (``<= K``); entries beyond a row's length are padding and ignored.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.succinct.fields import INT_BYTES
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class KnnGraph:
    """Ordered (possibly truncated) K-NN lists over an explicit member set."""

    def __init__(
        self,
        members: np.ndarray | Iterable[int],
        neighbors: np.ndarray,
        lengths: np.ndarray | None = None,
    ) -> None:
        """Build from a sorted member array and an ``(n, K)`` neighbor table.

        Args:
            members: node ids participating in the similarity relation.
            neighbors: ``neighbors[i, j]`` is the id of the ``(j+1)``-th
                nearest member to ``members[i]`` (closest first). Valid
                entries must themselves be members and differ from the
                row owner (Def. 3: ``u`` is not in ``k``-NN(``u``)).
            lengths: per-row valid-prefix lengths (default: all ``K``).
                Entries at positions ``>= lengths[i]`` are padding.
        """
        import numpy as np

        mem = np.asarray(
            list(members) if not isinstance(members, np.ndarray) else members,
            dtype=np.int64,
        )
        nbr = np.asarray(neighbors, dtype=np.int64)
        if mem.ndim != 1:
            raise ValidationError("members must be one-dimensional")
        if np.unique(mem).size != mem.size:
            raise ValidationError("members must be distinct")
        if not np.array_equal(mem, np.sort(mem)):
            raise ValidationError("members must be sorted")
        if nbr.ndim != 2 or nbr.shape[0] != mem.size:
            raise ValidationError(
                f"neighbors must be (n={mem.size}, K); got shape {nbr.shape}"
            )
        if mem.size and nbr.shape[1] >= mem.size:
            raise ValidationError(
                f"K={nbr.shape[1]} must satisfy K < |members|={mem.size} (Def. 3)"
            )
        if lengths is None:
            lens = np.full(mem.size, nbr.shape[1], dtype=np.int64)
        else:
            lens = np.asarray(lengths, dtype=np.int64)
            if lens.shape != (mem.size,):
                raise ValidationError("lengths must be parallel to members")
            if lens.size and (lens.min() < 0 or lens.max() > nbr.shape[1]):
                raise ValidationError(
                    f"lengths must lie in [0, K={nbr.shape[1]}]"
                )
        if nbr.size:
            member_set = set(mem.tolist())
            for i in range(nbr.shape[0]):
                row = nbr[i, : lens[i]]
                if row.size and not set(row.tolist()) <= member_set:
                    raise ValidationError(
                        f"row {i}: neighbor entries must be members"
                    )
                if (row == mem[i]).any():
                    raise ValidationError("a node cannot be its own neighbor")
                if np.unique(row).size != row.size:
                    raise ValidationError(
                        f"duplicate neighbor in row {i} (member {mem[i]})"
                    )
        self._members = mem
        self._members.setflags(write=False)
        self._neighbors = nbr
        self._neighbors.setflags(write=False)
        self._lengths = lens
        self._lengths.setflags(write=False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> np.ndarray:
        """Sorted node ids participating in the similarity relation."""
        return self._members

    @property
    def num_members(self) -> int:
        return int(self._members.size)

    @property
    def K(self) -> int:
        """The construction-time neighbor-list capacity (Sec. 3.2)."""
        return int(self._neighbors.shape[1])

    @property
    def neighbor_table(self) -> np.ndarray:
        """The raw padded ``(n, K)`` neighbor-id table (read-only).

        Only the ``lengths[i]``-prefix of row ``i`` is meaningful.
        """
        return self._neighbors

    @property
    def lengths(self) -> np.ndarray:
        """Valid-prefix length per member row."""
        return self._lengths

    @property
    def is_truncated(self) -> bool:
        """Whether any member has fewer than ``K`` neighbors."""
        return bool((self._lengths < self.K).any()) if self.num_members else False

    def size_in_bytes(self) -> int:
        """Bytes of the plain K-NN table, ids at the index's width."""
        return INT_BYTES * int(
            self._members.size + self._neighbors.size + self._lengths.size
        )

    # ------------------------------------------------------------------
    # membership and lookups
    # ------------------------------------------------------------------
    def index_of(self, node: int) -> int | None:
        """Dense member index of ``node``, or ``None`` if not a member."""
        import numpy as np

        idx = int(np.searchsorted(self._members, node))
        if idx < self._members.size and self._members[idx] == node:
            return idx
        return None

    def neighbors_of(self, node: int, k: int | None = None) -> np.ndarray:
        """``k``-NN(``node``) in distance order; empty for non-members.

        Truncated rows return at most their stored length.
        """
        import numpy as np

        idx = self.index_of(node)
        if idx is None:
            return np.empty(0, dtype=np.int64)
        k = self.K if k is None else k
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        return self._neighbors[idx, : min(k, self.K, int(self._lengths[idx]))]

    def rank_of(self, u: int, v: int) -> int | None:
        """1-based position of ``v`` in ``K-NN(u)``, or ``None``.

        ``rank_of(u, v) <= k`` is exactly the predicate ``v in k-NN(u)``.
        """
        import numpy as np

        idx = self.index_of(u)
        if idx is None:
            return None
        row = self._neighbors[idx, : int(self._lengths[idx])]
        hits = np.flatnonzero(row == v)
        if not hits.size:
            return None
        return int(hits[0]) + 1

    def is_knn(self, u: int, v: int, k: int) -> bool:
        """The predicate ``v in k-NN(u)`` (Def. 3)."""
        if k > self.K:
            raise ValidationError(
                f"query k={k} exceeds construction-time K={self.K} (Sec. 3.2)"
            )
        rank = self.rank_of(u, v)
        return rank is not None and rank <= k

    def reverse_lists(self) -> dict[int, list[tuple[int, int]]]:
        """For each member ``v``: the list of ``(rank, u)`` with
        ``K-NN(u)[rank] = v``, sorted by increasing rank (Def. 8 order).

        This is the transpose used to build ``S'`` and the baseline's
        reverse adjacency.
        """
        out: dict[int, list[tuple[int, int]]] = {int(v): [] for v in self._members}
        n, K = self._neighbors.shape
        for rank in range(K):
            column = self._neighbors[:, rank]
            for i in range(n):
                if rank < self._lengths[i]:
                    out[int(column[i])].append((rank + 1, int(self._members[i])))
        return out
