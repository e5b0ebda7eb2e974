"""Plain (uncompressed) K-NN adjacency, the baseline's representation.

Sec. 5.3: "Both graphs are represented as adjacency vectors in plain
form" — the direct K-NN lists and the reverse (who-lists-me) lists. This
is deliberately *not* succinct; the space experiment (Sec. 6.2) contrasts
its footprint with :class:`~repro.knn.succinct.KnnRing`.
"""

from __future__ import annotations

import numpy as np

from repro.knn.graph import KnnGraph
from repro.succinct.fields import INT_BYTES
from repro.utils.errors import ValidationError


class KnnAdjacency:
    """Direct + reverse K-NN adjacency in plain arrays."""

    def __init__(self, graph: KnnGraph) -> None:
        self._members = graph.members.copy()
        self._members.setflags(write=False)
        self._K = graph.K
        self._forward = graph.neighbor_table.copy()
        self._forward.setflags(write=False)
        self._lengths = graph.lengths.copy()
        self._lengths.setflags(write=False)
        # Reverse lists, each sorted by the rank at which the source lists
        # the target (so a k-prefix of the list is exactly the k-reverse
        # neighborhood).
        reverse = graph.reverse_lists()
        self._reverse_nodes: dict[int, np.ndarray] = {}
        self._reverse_ranks: dict[int, np.ndarray] = {}
        for v, pairs in reverse.items():
            if pairs:
                ranks = np.array([r for r, _u in pairs], dtype=np.int64)
                nodes = np.array([u for _r, u in pairs], dtype=np.int64)
            else:
                ranks = np.empty(0, dtype=np.int64)
                nodes = np.empty(0, dtype=np.int64)
            self._reverse_nodes[v] = nodes
            self._reverse_ranks[v] = ranks

    @property
    def members(self) -> np.ndarray:
        return self._members

    @property
    def K(self) -> int:
        return self._K

    def size_in_bytes(self) -> int:
        """Bytes of the plain forward and reverse tables, ids and ranks
        at the index's width."""
        total = int(
            self._members.size + self._forward.size + self._lengths.size
        )
        for v in self._reverse_nodes:
            total += int(self._reverse_nodes[v].size)
            total += int(self._reverse_ranks[v].size)
        return total * INT_BYTES

    def _index_of(self, node: int) -> int | None:
        idx = int(np.searchsorted(self._members, node))
        if idx < self._members.size and self._members[idx] == node:
            return idx
        return None

    def _check_k(self, k: int) -> int:
        if not 1 <= k <= self._K:
            raise ValidationError(f"k={k} outside [1, K={self._K}]")
        return k

    def neighbors_of(self, u: int, k: int) -> np.ndarray:
        """``k``-NN(``u``) from the direct graph; empty for non-members."""
        self._check_k(k)
        idx = self._index_of(u)
        if idx is None:
            return np.empty(0, dtype=np.int64)
        return self._forward[idx, : min(k, int(self._lengths[idx]))]

    def reverse_neighbors_of(self, v: int, k: int) -> np.ndarray:
        """All ``u`` with ``v in k-NN(u)`` from the reverse graph."""
        self._check_k(k)
        nodes = self._reverse_nodes.get(v)
        if nodes is None:
            return np.empty(0, dtype=np.int64)
        ranks = self._reverse_ranks[v]
        cutoff = int(np.searchsorted(ranks, k, side="right"))
        return nodes[:cutoff]

    def is_knn(self, u: int, v: int, k: int) -> bool:
        """The filtering predicate used on 2-ready clauses (Sec. 5.3)."""
        self._check_k(k)
        idx = self._index_of(u)
        if idx is None:
            return False
        row = self._forward[idx, : min(k, int(self._lengths[idx]))]
        return bool((row == v).any())
