"""Per-triple-pattern navigation state over the Ring.

During LTJ every triple pattern tracks which of its coordinates are bound
(to query constants or to already-eliminated variables) and the row range
of the corresponding arc (Sec. 2.4: "each triple pattern of Q is
associated with some range C_j[b..e]"). :class:`RingPatternState`
maintains that state with a stack so the engine can backtrack, and
answers:

* ``seeker(coord)`` — the leap on a free coordinate as a function of
  ``lower``: the smallest value ``>= lower`` the coordinate can take
  among the triples still matching the pattern, kept on the frame;
* ``bind(coord, value)`` / ``unbind()`` — descend/ascend in the virtual
  trie; a bind is a lookup of ``binder(coord)``, the case of the
  frame's bound coordinates, resolved once;
* ``count()`` — number of matching triples (the range size, used both
  for emptiness tests and for the ``l_x`` ordering estimates).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from repro.ring.index import NEXT_COORD, PREV_COORD, RingIndex
from repro.utils.errors import StructureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.succinct.wavelet_tree import WaveletTree

_Seeker = Callable[[int], int | None]
_Binder = Callable[[int], bool]
# Frames are built with tuple.__new__: a named tuple's own constructor
# is a Python function, and a bind builds one frame.
_new = tuple.__new__


class _Frame(NamedTuple):
    """One level of the virtual-trie descent.

    ``bound`` lists the ``(coordinate, value)`` pairs in bind order, and
    ``mask`` has their bits (``s``, ``p``, ``o``: 1, 2, 4). For 1- and
    2-arcs, ``arc_first``/``lo``/``hi`` describe the row range; for the
    empty binding they are ``None``/full; for a fully bound pattern they
    stay those of the 2-arc and ``matches`` is the number of matching
    triples. While a coordinate is still free, ``stored`` names the one
    whose values the row range exposes and ``column`` is its wavelet
    tree, so a leap on it is ``column``'s ``range_next_value`` over
    ``[lo, hi]``. ``kept`` caches the stored column's and a 1-arc's
    "ahead" seekers, which :meth:`RingPatternState.seeker` fills on
    first use; equality ignores it.
    """

    bound: tuple[tuple[str, int], ...]
    arc_first: str | None
    lo: int
    hi: int
    matches: int
    stored: str | None
    column: WaveletTree | None
    mask: int
    kept: list[_Seeker | None]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Frame) and self[:8] == other[:8]

    def __ne__(self, other: object) -> bool:
        return not self == other


class RingPatternState:
    """Backtrackable binding state of one triple pattern over a Ring."""

    def __init__(self, ring: RingIndex, constants: dict[str, int]) -> None:
        """Start with the pattern's constants already bound.

        Args:
            ring: the index.
            constants: coordinate -> constant for the pattern's constant
                positions (e.g. ``{"p": 5}`` for ``(?x, 5, ?y)``).
        """
        self._ring = ring
        n = ring.num_edges
        root = (), None, 0, n - 1, n, None, None, 0, [None, None]
        self._stack: list[_Frame] = [_new(_Frame, root)]
        self._binders: dict[tuple[str, int], _Binder] = {}
        # Constants descend in a canonical order; correctness does not
        # depend on the order because every bound subset is an arc.
        for coord in "spo":
            if coord in constants:
                self.bind(coord, constants[coord])

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def frame(self) -> _Frame:
        return self._stack[-1]

    def count(self) -> int:
        """Number of triples matching the current partial binding."""
        return self._stack[-1].matches

    def is_empty(self) -> bool:
        return self._stack[-1].matches == 0

    # ------------------------------------------------------------------
    # descent / ascent
    # ------------------------------------------------------------------
    def binder(self, coord: str) -> _Binder:
        """The bind of ``coord`` on a frame that binds the coordinates
        the current one binds: it pushes the refined frame and returns
        whether a triple still matches. Resolved once per (coordinate,
        bound coordinates) and kept; a caller that binds ``coord`` only
        on such frames may keep it too."""
        key = coord, self._stack[-1].mask
        bind = self._binders.get(key)
        if bind is None:
            bind = self._binders[key] = self._resolve(*key)
        return bind

    def bind(self, coord: str, value: int) -> bool:
        """Bind one coordinate and push the refined state: whether a
        triple still matches."""
        bind = self._binders.get((coord, self._stack[-1].mask))
        return (bind or self.binder(coord))(value)

    def _resolve(self, coord: str, mask: int) -> _Binder:
        """:meth:`binder`'s case for ``coord`` on frames binding ``mask``.

        With nothing bound it is ``RingIndex.block_range``'s 1-arc, and
        with two bound the 2-arc's ``triple_count``. With one bound it
        is the 2-arc (``RingIndex.pair_range`` reads it here): it starts
        at whichever of the two has the other as its cyclic successor
        (``s -> p -> o -> s``), two ranks in ``C_first`` count the first
        value over the second's block, re-based at ``A_first[first
        value]`` (Sec. 2.4's backward step), and the bound side's block
        or base is the frame's own row range. Alphabets and columns are
        looked up once; ``A``'s offsets are read through their owner at
        each call, so a promoted table is read as a list.
        """
        ring, stack = self._ring, self._stack
        bit = 1 << "spo".index(coord)
        if mask & bit:
            raise StructureError(f"coordinate {coord!r} already bound")
        if not mask or mask & (mask - 1):

            def bind_end(value: int) -> bool:
                frame = stack[-1]
                first, lo, hi = frame.arc_first, frame.lo, frame.hi
                stored: str | None = None
                if mask:
                    assert first is not None
                    matches = ring.triple_count(first, lo, hi, value)
                else:
                    first, stored = coord, PREV_COORD[coord]
                    lo, hi = ring.block_range(coord, value)
                    matches = hi - lo + 1
                stack.append(_new(_Frame, (
                    frame.bound + ((coord, value),), first, lo, hi, matches,
                    stored, ring.column(stored) if stored else None,
                    mask | bit, [None, None],
                )))
                return matches != 0

            return bind_end
        sigma = ring._sigma[coord]
        blocks = ring.blocks(coord)
        other = "spo"[mask.bit_length() - 1]
        starts = NEXT_COORD[coord] == other  # coord starts the 2-arc
        first = coord if starts else other
        first_sigma, first_blocks = ring._sigma[first], ring.blocks(first)
        rank = ring.column(first).rank
        stored = PREV_COORD[first]
        column = ring.column(stored)

        def bind(value: int) -> bool:
            frame = stack[-1]
            lo, hi = 0, -1  # an empty range ends at lo - 1
            ranked = value if starts else frame.bound[0][1]
            if 0 <= value < sigma and 0 <= ranked < first_sigma:
                if starts:
                    blo, bend = frame.lo, frame.hi + 1
                else:
                    cum = blocks._cum_i
                    blo, bend = cum[value], cum[value + 1]
                if blo < bend:
                    r0 = rank(ranked, blo)
                    r1 = rank(ranked, bend)
                    if r0 != r1:
                        base = (
                            first_blocks._cum_i[ranked] if starts
                            else frame.lo
                        )
                        lo, hi = base + r0, base + r1 - 1
            stack.append(_new(_Frame, (
                frame.bound + ((coord, value),), first, lo, hi, hi - lo + 1,
                stored, column, mask | bit, [None, None],
            )))
            return lo <= hi

        return bind

    def unbind(self) -> None:
        """Pop the most recent bind (backtracking)."""
        if len(self._stack) <= 1:
            raise StructureError("unbind on root state")
        self._stack.pop()

    # ------------------------------------------------------------------
    # leap
    # ------------------------------------------------------------------
    def seeker(self, coord: str) -> _Seeker:
        """The leap on a free ``coord`` as a function of ``lower``: the
        smallest value ``>= lower`` it takes among the matching triples,
        or ``None``, kept on the frame.

        Dispatches to the Ring primitive matching the coordinate's
        position relative to the current arc (Sec. 2.4 / DESIGN.md): the
        arc's stored column, a 1-arc's coordinate ahead, or, with
        nothing bound, every value the coordinate takes.
        """
        frame = self._stack[-1]
        kept = frame.kept
        if coord == frame.stored:
            seek = kept[0]
            if seek is None:
                assert frame.column is not None
                seek = kept[0] = frame.column.seeker(frame.lo, frame.hi)
            return seek
        first = frame.arc_first
        if first is None:
            return partial(self._ring.leap_unbound, coord)
        if len(frame.bound) != 1 or coord == first:
            raise StructureError(f"leap on bound coordinate {coord!r}")
        seek = kept[1]
        if seek is None:
            seek = kept[1] = self._ring.ahead_seeker(first, frame.bound[0][1])
        return seek

    def leap(self, coord: str, lower: int) -> int | None:
        """One call of :meth:`seeker`'s function."""
        return self.seeker(coord)(lower)

    def probe(self, assignments: dict[str, int]) -> bool:
        """Check non-emptiness if the given coords were bound (no state
        change). Used for variables occupying several coordinates."""
        for coord, value in assignments.items():
            self.bind(coord, value)
        nonempty = not self.is_empty()
        for _ in assignments:
            self.unbind()
        return nonempty
