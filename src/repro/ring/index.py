"""The Ring index: columns, cumulative arrays, and navigation primitives.

Construction follows Sec. 2.4 verbatim: sort the edge table in SPO order
and keep the last column (``C_O``); rotate to OSP order and keep ``C_P``;
rotate to POS order and keep ``C_S``. Each column is a wavelet tree; each
``A_j`` a cumulative-count array.

Each coordinate ``c`` has its own alphabet ``[0, sigma_c)``, ``sigma_c``
being 1 + the largest value ``c`` takes, and ``C_c`` and ``A_c`` are both
built over it: a graph with a handful of predicates among thousands of
nodes keeps a wavelet level per bit of its predicates, not of its
domain. A value past ``sigma_c`` cannot occur at ``c``, so every
primitive answers it empty (or ``None``) before it touches a structure;
``sigma_c`` is read off ``A_c`` into a derived table, not stored twice.

Coordinate cycle and naming. With the cycle ``s -> p -> o -> s``:

* a *1-arc* ``{f}`` (one bound coordinate, value ``x``) is the block of
  ``x`` in ``A_f`` (:meth:`RingIndex.block_range`) — a row range of the
  table sorted starting at ``f`` (``s``: ``T_SPO``, ``p``: ``T_POS``,
  ``o``: ``T_OSP``);
* a *2-arc* ``{f, next(f)}`` is obtained from the ``next(f)``-block by
  one backward-search step through column ``C_f``
  (:meth:`RingIndex.pair_range`);
* the stored column of the table starting at ``f`` is ``C_{prev(f)}``,
  i.e. a row range exposes the values of coordinate ``prev(f)`` directly.

All ranges are 0-based and closed; empty ranges satisfy ``lo > hi``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.succinct.arrays import CumulativeCounts
from repro.succinct.fields import Child, Derived, Layout, LazyMirrors, Scalar
from repro.succinct.wavelet_tree import WaveletTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.triples import GraphData

NEXT_COORD = {"s": "p", "p": "o", "o": "s"}
PREV_COORD = {"s": "o", "p": "s", "o": "p"}


class RingIndex(LazyMirrors):
    """Succinct triple index supporting LTJ over all six trie orders."""

    LAYOUT = Layout(
        "ring_index",
        Scalar("_num_edges"),
        Scalar("_domain"),
        Child("_columns", WaveletTree, "dict", keys=("s", "p", "o")),
        Child("_blocks", CumulativeCounts, "dict", keys=("s", "p", "o")),
        Derived("_sigma", "_alphabets"),
    )

    def __init__(self, graph: GraphData) -> None:
        import numpy as np

        self._num_edges = graph.num_edges
        self._domain = graph.domain_size
        spo = graph.spo
        sigma = {
            coord: int(spo[:, j].max()) + 1 if spo.size else 1
            for j, coord in enumerate("spo")
        }
        # T_SPO is the graph's native order; C_O is its object column.
        c_o = spo[:, 2]
        # T_OSP: rotate object to the front, re-sort; C_P is its last column.
        osp_order = np.lexsort((spo[:, 1], spo[:, 0], spo[:, 2]))
        c_p = spo[osp_order, 1]
        # T_POS: rotate again; C_S is its last column.
        pos_order = np.lexsort((spo[:, 0], spo[:, 2], spo[:, 1]))
        c_s = spo[pos_order, 0]

        self._columns: dict[str, WaveletTree] = {
            "s": WaveletTree(c_s, sigma["s"]),
            "p": WaveletTree(c_p, sigma["p"]),
            "o": WaveletTree(c_o, sigma["o"]),
        }
        self._blocks: dict[str, CumulativeCounts] = {
            coord: CumulativeCounts(spo[:, j], sigma[coord])
            for j, coord in enumerate("spo")
        }
        self._sigma: dict[str, int] = sigma

    def _alphabets(self) -> dict[str, int]:
        """``sigma_c`` per coordinate: the values ``c`` can take are
        ``[0, sigma_c)``."""
        return {c: blocks.alphabet_size for c, blocks in self._blocks.items()}

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

    # ------------------------------------------------------------------
    # arc ranges (binding)
    # ------------------------------------------------------------------
    def block_range(self, coord: str, value: int) -> tuple[int, int]:
        """Row range of the 1-arc ``coord = value`` (possibly empty)."""
        if not 0 <= value < self._sigma[coord]:
            return (0, -1)
        cum = self._blocks[coord]._cum_i
        return cum[value], cum[value + 1] - 1

    def pair_range(
        self, first: str, first_value: int, second_value: int
    ) -> tuple[int, int]:
        """Row range of the 2-arc ``(first, next(first))``.

        One backward-search step (cf. the ``F_j`` maps of Sec. 2.4): the
        occurrences of ``first_value`` in column ``C_first`` inside the
        ``second_value``-block are counted with two ranks, and the result
        is re-based at ``A_first[first_value]``. This is the range a
        pattern state binding the two holds: the 2-arc has that one
        implementation (:meth:`RingPatternState.binder`).
        """
        from repro.ring.pattern import RingPatternState

        bound = {first: first_value, NEXT_COORD[first]: second_value}
        frame = RingPatternState(self, bound).frame
        return frame.lo, frame.hi

    def triple_count(
        self, arc_first: str, lo: int, hi: int, remaining_value: int
    ) -> int:
        """Number of triples in a 2-arc range whose remaining coordinate
        (``prev(arc_first)``) equals ``remaining_value``."""
        remaining = PREV_COORD[arc_first]
        if lo > hi or not 0 <= remaining_value < self._sigma[remaining]:
            return 0
        return self._columns[remaining].rank_range(
            remaining_value, lo, hi
        )

    # ------------------------------------------------------------------
    # leap primitives
    # ------------------------------------------------------------------
    def leap_unbound(self, coord: str, lower: int) -> int | None:
        """Smallest value ``>= lower`` used at coordinate ``coord`` by any
        triple (leap for a pattern with no bound coordinate)."""
        return self._blocks[coord].next_nonempty(lower)

    def ahead_seeker(
        self, arc_first: str, arc_value: int
    ) -> Callable[[int], int | None]:
        """The leap on the coordinate ``next(arc_first)`` of the 1-arc
        ``arc_first = arc_value``, as a function of ``lower``, with the
        arc resolved once.

        The rows of the arc's table are, under the ``F`` maps, the
        occurrences of ``arc_value`` in column ``C_{arc_first}`` — whose
        positions fall into the blocks of ``A_{next(arc_first)}`` in
        nondecreasing block order. The smallest qualifying value ``>=
        lower`` is therefore found by jumping to the first occurrence of
        ``arc_value`` at or after the start of ``lower``'s block and
        locating that position's block. The jump is the column's
        ``select_next``, which the column memoizes: a leap asked before,
        in this query or an earlier one, is a memo hit.
        """
        if not 0 <= arc_value < self._sigma[arc_first]:
            return lambda lower: None
        nxt = NEXT_COORD[arc_first]
        end = self._sigma[nxt]
        select_next = self._columns[arc_first].select_next
        blocks = self._blocks[nxt]

        def seek(lower: int) -> int | None:
            if lower >= end:
                return None
            # Read at each call: a seeker can outlive a query's promotion
            # of the table, and then reads the list, not the reader.
            cum = blocks._cum_i
            pos = select_next(arc_value, cum[lower] if lower > 0 else 0)
            return None if pos is None else bisect_right(cum, pos) - 1

        return seek
