"""Graph database container (Def. 1 of the paper).

A :class:`GraphData` holds the edge set ``E`` of a labeled graph
``G(V, E)`` as a deduplicated, SPO-sorted ``(N, 3)`` integer array. It
exposes the quantities the paper reasons with:

* ``num_edges`` — ``N = |E|``;
* ``domain_size`` — ``D = |dom(G)|`` (here: 1 + the largest constant used,
  so constants form the universe ``[0, D)``);
* ``nodes`` — the set ``V`` of subjects and objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.succinct.fields import INT_BYTES
from repro.utils.errors import ValidationError

Triple = tuple[int, int, int]


class GraphData:
    """Immutable set of labeled edges over integer constants.

    Triples are deduplicated and kept sorted in SPO order, which is also
    the order the Ring's construction starts from.
    """

    def __init__(self, triples: Iterable[Triple] | np.ndarray) -> None:
        if isinstance(triples, np.ndarray):
            arr = np.asarray(triples, dtype=np.int64)
        else:
            listed = list(triples)
            arr = (
                np.asarray(listed, dtype=np.int64)
                if listed
                else np.empty((0, 3), dtype=np.int64)
            )
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValidationError("triples must be an iterable of (s, p, o)")
        if arr.size and arr.min() < 0:
            raise ValidationError("constants must be non-negative integers")
        # Deduplicate and sort in SPO order.
        if arr.shape[0]:
            arr = np.unique(arr, axis=0)
            order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))
            arr = arr[order]
        self._spo = arr
        self._spo.setflags(write=False)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._spo.shape[0])

    def __iter__(self) -> Iterator[Triple]:
        for s, p, o in self._spo:
            yield (int(s), int(p), int(o))

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        return self._row_index(s, p, o) is not None

    def _row_index(self, s: int, p: int, o: int) -> int | None:
        """Binary-search the SPO-sorted table for a triple."""
        lo, hi = 0, self._spo.shape[0]
        target = (s, p, o)
        while lo < hi:
            mid = (lo + hi) // 2
            row = tuple(int(v) for v in self._spo[mid])
            if row < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < self._spo.shape[0]:
            row = tuple(int(v) for v in self._spo[lo])
            if row == target:
                return lo
        return None

    @property
    def spo(self) -> np.ndarray:
        """The SPO-sorted ``(N, 3)`` edge table (read-only view)."""
        return self._spo

    @property
    def num_edges(self) -> int:
        """``N``: the number of edges."""
        return int(self._spo.shape[0])

    @property
    def domain_size(self) -> int:
        """``D``: constants live in ``[0, D)`` (0 for an empty graph)."""
        if not self._spo.shape[0]:
            return 0
        return int(self._spo.max()) + 1

    @property
    def nodes(self) -> np.ndarray:
        """``V``: sorted array of constants used as subject or object."""
        if not self._spo.shape[0]:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate((self._spo[:, 0], self._spo[:, 2])))

    @property
    def predicates(self) -> np.ndarray:
        """Sorted array of constants used as predicate."""
        if not self._spo.shape[0]:
            return np.empty(0, dtype=np.int64)
        return np.unique(self._spo[:, 1])

    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return int(self.nodes.size)

    def size_in_bytes(self) -> int:
        """Bytes of the plain edge table (the "raw data" reference size),
        its ids at the width the index stores them."""
        return int(self._spo.size) * INT_BYTES

    # ------------------------------------------------------------------
    # convenience constructors / combinators
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls, subjects: np.ndarray, predicates: np.ndarray, objects: np.ndarray
    ) -> "GraphData":
        """Build from three parallel 1-D arrays."""
        stacked = np.stack(
            [
                np.asarray(subjects, dtype=np.int64),
                np.asarray(predicates, dtype=np.int64),
                np.asarray(objects, dtype=np.int64),
            ],
            axis=1,
        )
        return cls(stacked)

    def union(self, other: "GraphData") -> "GraphData":
        """Graph with the edges of both inputs (used by materialization)."""
        return GraphData(np.concatenate((self._spo, other._spo), axis=0))

    def matching(
        self, s: int | None, p: int | None, o: int | None
    ) -> np.ndarray:
        """All triples matching a pattern with optional constants.

        ``None`` positions are wildcards. Returns an ``(m, 3)`` array.
        A linear scan — only meant for tests and the naive evaluator.
        """
        mask = np.ones(self._spo.shape[0], dtype=bool)
        if s is not None:
            mask &= self._spo[:, 0] == s
        if p is not None:
            mask &= self._spo[:, 1] == p
        if o is not None:
            mask &= self._spo[:, 2] == o
        return self._spo[mask]
