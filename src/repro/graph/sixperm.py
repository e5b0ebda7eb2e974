"""The classic six-permutation index (the "6 tries" of Sec. 2.2).

Stores the edge table sorted under all ``3! = 6`` coordinate orders and
answers the same ``leap`` / ``bind`` / ``count`` questions as the Ring's
pattern state, by binary search over the appropriate permutation. It
costs six copies of the data — exactly the space overhead the Ring
eliminates — and serves two purposes here:

* a navigation *oracle* for property-testing the Ring, and
* the classic-LTJ backend for space/ablation comparisons.
"""

from __future__ import annotations

from itertools import permutations
from typing import TYPE_CHECKING

from repro.graph.triples import GraphData
from repro.succinct.fields import INT_BYTES
from repro.utils.errors import StructureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

_COORD_INDEX = {"s": 0, "p": 1, "o": 2}


class SixPermIndex:
    """Edge table under all six sort orders, with range navigation."""

    def __init__(self, graph: GraphData) -> None:
        import numpy as np

        spo = graph.spo
        self._num_edges = graph.num_edges
        self._tables: dict[tuple[str, ...], np.ndarray] = {}
        for perm in permutations("spo"):
            cols = [spo[:, _COORD_INDEX[c]] for c in perm]
            order = np.lexsort(tuple(reversed(cols)))
            self._tables[perm] = np.stack(
                [col[order] for col in cols], axis=1
            )

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def size_in_bytes(self) -> int:
        return sum(int(t.size) for t in self._tables.values()) * INT_BYTES

    def table(self, perm: tuple[str, ...]) -> np.ndarray:
        return self._tables[perm]

    # ------------------------------------------------------------------
    def _locate(self, bound: dict[str, int]) -> tuple[tuple[str, ...], int, int]:
        """Pick a permutation whose prefix covers ``bound`` and return the
        matching half-open row range."""
        import numpy as np

        for perm in self._tables:
            if set(perm[: len(bound)]) == set(bound):
                break
        else:  # pragma: no cover - all subsets are prefixes of some perm
            raise StructureError(f"no permutation covers {bound!r}")
        tab = self._tables[perm]
        lo, hi = 0, tab.shape[0]
        for level, coord in enumerate(perm[: len(bound)]):
            value = bound[coord]
            column = tab[lo:hi, level]
            lo, hi = (
                lo + int(np.searchsorted(column, value, side="left")),
                lo + int(np.searchsorted(column, value, side="right")),
            )
        return perm, lo, hi

    def count(self, bound: dict[str, int]) -> int:
        """Number of triples matching the bound coordinates."""
        _perm, lo, hi = self._locate(bound)
        return hi - lo

    def leap(self, bound: dict[str, int], coord: str, lower: int) -> int | None:
        """Smallest value ``>= lower`` at ``coord`` among matching triples.

        Uses a permutation whose prefix is the bound set followed by
        ``coord``, so candidate values are sorted within the range.
        """
        import numpy as np

        if coord in bound:
            raise StructureError(f"leap on bound coordinate {coord!r}")
        for perm in self._tables:
            if (
                set(perm[: len(bound)]) == set(bound)
                and perm[len(bound)] == coord
            ):
                break
        else:  # pragma: no cover
            raise StructureError(f"no permutation for {bound!r} + {coord!r}")
        tab = self._tables[perm]
        lo, hi = 0, tab.shape[0]
        for level, c in enumerate(perm[: len(bound)]):
            value = bound[c]
            column = tab[lo:hi, level]
            lo, hi = (
                lo + int(np.searchsorted(column, value, side="left")),
                lo + int(np.searchsorted(column, value, side="right")),
            )
        if lo >= hi:
            return None
        column = tab[lo:hi, len(bound)]
        idx = int(np.searchsorted(column, lower, side="left"))
        if idx >= column.size:
            return None
        return int(column[idx])
