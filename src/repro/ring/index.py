"""The Ring index: columns, cumulative arrays, and navigation primitives.

Construction follows Sec. 2.4 verbatim: sort the edge table in SPO order
and keep the last column (``C_O``); rotate to OSP order and keep ``C_P``;
rotate to POS order and keep ``C_S``. Each column is a wavelet tree; each
``A_j`` a cumulative-count array.

Coordinate cycle and naming. With the cycle ``s -> p -> o -> s``:

* a *1-arc* ``{f}`` (one bound coordinate, value ``x``) is the block
  ``A_f.range_of(x)`` — a row range of the table sorted starting at
  ``f`` (``s``: ``T_SPO``, ``p``: ``T_POS``, ``o``: ``T_OSP``);
* a *2-arc* ``{f, next(f)}`` is obtained from the ``next(f)``-block by
  one backward-search step through column ``C_f``
  (:meth:`RingIndex.pair_range`);
* the stored column of the table starting at ``f`` is ``C_{prev(f)}``,
  i.e. a row range exposes the values of coordinate ``prev(f)`` directly.

All ranges are 0-based and closed; empty ranges satisfy ``lo > hi``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.triples import GraphData
from repro.succinct.arrays import CumulativeCounts
from repro.succinct.fields import Child, Layout, Scalar
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import StructureError

NEXT_COORD = {"s": "p", "p": "o", "o": "s"}
PREV_COORD = {"s": "o", "p": "s", "o": "p"}


class RingIndex:
    """Succinct triple index supporting LTJ over all six trie orders."""

    LAYOUT = Layout(
        "ring_index",
        Scalar("_num_edges"),
        Scalar("_domain"),
        Child("_columns", WaveletTree, "dict", keys=("s", "p", "o")),
        Child("_blocks", CumulativeCounts, "dict", keys=("s", "p", "o")),
    )

    def __init__(self, graph: GraphData) -> None:
        self._num_edges = graph.num_edges
        self._domain = graph.domain_size
        sigma = max(self._domain, 1)
        spo = graph.spo
        # T_SPO is the graph's native order; C_O is its object column.
        c_o = spo[:, 2]
        # T_OSP: rotate object to the front, re-sort; C_P is its last column.
        osp_order = np.lexsort((spo[:, 1], spo[:, 0], spo[:, 2]))
        c_p = spo[osp_order, 1]
        # T_POS: rotate again; C_S is its last column.
        pos_order = np.lexsort((spo[:, 0], spo[:, 2], spo[:, 1]))
        c_s = spo[pos_order, 0]

        self._columns: dict[str, WaveletTree] = {
            "s": WaveletTree(c_s, sigma),
            "p": WaveletTree(c_p, sigma),
            "o": WaveletTree(c_o, sigma),
        }
        self._blocks: dict[str, CumulativeCounts] = {
            "s": CumulativeCounts(spo[:, 0], sigma),
            "p": CumulativeCounts(spo[:, 1], sigma),
            "o": CumulativeCounts(spo[:, 2], sigma),
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """``N``: number of indexed triples."""
        return self._num_edges

    @property
    def domain_size(self) -> int:
        """``D``: constants live in ``[0, D)``."""
        return self._domain

    def column(self, coord: str) -> WaveletTree:
        """The wavelet tree ``C_coord`` (symbols are ``coord`` values)."""
        return self._columns[coord]

    def blocks(self, coord: str) -> CumulativeCounts:
        """The cumulative array ``A_coord``."""
        return self._blocks[coord]

    def wavelet_trees(self) -> tuple[WaveletTree, ...]:
        """The three column trees (for per-query memo attachment)."""
        return tuple(self._columns.values())

    def size_in_bytes(self) -> int:
        """Bytes the three columns and three ``A_j`` arrays persist."""
        from repro.store.layout import persisted_bytes

        return persisted_bytes(self)

    def _in_domain(self, value: int) -> bool:
        return 0 <= value < self._domain

    # ------------------------------------------------------------------
    # arc ranges (binding)
    # ------------------------------------------------------------------
    def block_range(self, coord: str, value: int) -> tuple[int, int]:
        """Row range of the 1-arc ``coord = value`` (possibly empty)."""
        if not self._in_domain(value):
            return (0, -1)
        return self._blocks[coord].range_of(value)

    def pair_range(
        self, first: str, first_value: int, second_value: int
    ) -> tuple[int, int]:
        """Row range of the 2-arc ``(first, next(first))``.

        One backward-search step (cf. the ``F_j`` maps of Sec. 2.4): the
        occurrences of ``first_value`` in column ``C_first`` inside the
        ``second_value``-block are counted with two ranks, and the result
        is re-based at ``A_first[first_value]``.
        """
        second = NEXT_COORD[first]
        if not (self._in_domain(first_value) and self._in_domain(second_value)):
            return (0, -1)
        blo, bhi = self._blocks[second].range_of(second_value)
        if blo > bhi:
            return (0, -1)
        col = self._columns[first]
        r0 = col.rank(first_value, blo)
        r1 = col.rank(first_value, bhi + 1)
        if r1 == r0:
            return (0, -1)
        base = self._blocks[first].before(first_value)
        return (base + r0, base + r1 - 1)

    @staticmethod
    def arc_start(bound_coords: frozenset[str] | set[str]) -> str:
        """First coordinate of the (unique) arc covering a bound set.

        For a single coordinate the arc starts there; for two, it starts
        at the one whose cyclic successor is the other.
        """
        coords = set(bound_coords)
        if len(coords) == 1:
            return next(iter(coords))
        if len(coords) == 2:
            for f in sorted(coords):
                if NEXT_COORD[f] in coords:
                    return f
        raise StructureError(f"no arc for bound set {sorted(coords)}")

    def triple_count(
        self, arc_first: str, lo: int, hi: int, remaining_value: int
    ) -> int:
        """Number of triples in a 2-arc range whose remaining coordinate
        (``prev(arc_first)``) equals ``remaining_value``."""
        if lo > hi or not self._in_domain(remaining_value):
            return 0
        return self._columns[PREV_COORD[arc_first]].rank_range(
            remaining_value, lo, hi
        )

    def contains(self, s: int, p: int, o: int) -> bool:
        """Whether the triple ``(s, p, o)`` is in the graph."""
        lo, hi = self.pair_range("s", s, p)
        return self.triple_count("s", lo, hi, o) > 0

    # ------------------------------------------------------------------
    # leap primitives
    # ------------------------------------------------------------------
    def leap_unbound(self, coord: str, lower: int) -> int | None:
        """Smallest value ``>= lower`` used at coordinate ``coord`` by any
        triple (leap for a pattern with no bound coordinate)."""
        return self._blocks[coord].next_nonempty(lower)

    def leap_stored(
        self, arc_first: str, lo: int, hi: int, lower: int
    ) -> int | None:
        """Leap on the coordinate ``prev(arc_first)``, which is the stored
        column of the arc's table: a single ``range_next_value``."""
        if lo > hi:
            return None
        return self._columns[PREV_COORD[arc_first]].range_next_value(
            lo, hi, lower
        )

    def leap_ahead(
        self, arc_first: str, arc_value: int, lower: int
    ) -> int | None:
        """Leap on the coordinate ``next(arc_first)`` of a 1-arc.

        The rows of the arc's table are, under the ``F`` maps, the
        occurrences of ``arc_value`` in column ``C_{arc_first}`` — whose
        positions fall into the blocks of ``A_{next(arc_first)}`` in
        nondecreasing block order. The smallest qualifying value ``>=
        lower`` is therefore found by jumping to the first occurrence of
        ``arc_value`` at or after the start of ``lower``'s block and
        locating that position's block.
        """
        nxt = NEXT_COORD[arc_first]
        if lower >= self._domain or not self._in_domain(arc_value):
            return None
        col = self._columns[arc_first]
        start = self._blocks[nxt].before(max(lower, 0))
        pos = col.select_next(arc_value, start)
        if pos is None:
            return None
        return self._blocks[nxt].block_of(pos)

    # ------------------------------------------------------------------
    # cardinalities
    # ------------------------------------------------------------------
    def block_count(self, coord: str, value: int) -> int:
        """Number of triples with ``coord = value``."""
        if not self._in_domain(value):
            return 0
        lo, hi = self._blocks[coord].range_of(value)
        return max(0, hi - lo + 1)
