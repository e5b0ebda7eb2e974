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
  trie;
* ``count()`` — number of matching triples (the range size, used both
  for emptiness tests and for the ``l_x`` ordering estimates).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.ring.index import NEXT_COORD, PREV_COORD, RingIndex
from repro.utils.errors import StructureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.succinct.wavelet_tree import WaveletTree

_Seeker = Callable[[int], int | None]


@dataclass(slots=True)
class _Frame:
    """One level of the virtual-trie descent.

    ``bound`` lists the ``(coordinate, value)`` pairs in bind order. For
    1- and 2-arcs, ``arc_first``/``lo``/``hi`` describe the row range;
    for the empty binding they are ``None``/full; for a fully bound
    pattern they stay those of the 2-arc and ``matches`` is the number
    of matching triples. While a coordinate is still free, ``stored``
    names the one whose values the row range exposes and ``column`` is
    its wavelet tree, so a leap on it is ``column``'s
    ``range_next_value`` over ``[lo, hi]``. Everything ``seeker``/``bind``
    dispatch on is read off the frame; nothing is rebuilt per call. The
    two seekers are caches :meth:`RingPatternState.seeker` fills on first
    use; equality ignores them.
    """

    bound: tuple[tuple[str, int], ...]
    arc_first: str | None
    lo: int
    hi: int
    matches: int
    stored: str | None = None
    column: WaveletTree | None = None
    stored_seek: _Seeker | None = field(default=None, compare=False)
    ahead_seek: _Seeker | None = field(default=None, compare=False)


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
        root = _Frame(
            bound=(), arc_first=None, lo=0, hi=ring.num_edges - 1,
            matches=ring.num_edges,
        )
        self._stack: list[_Frame] = [root]
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

    def depth(self) -> int:
        """Number of bound coordinates."""
        return len(self._stack[-1].bound)

    # ------------------------------------------------------------------
    # descent / ascent
    # ------------------------------------------------------------------
    def bind(self, coord: str, value: int) -> int:
        """Bind one coordinate, push the refined state, return its count."""
        frame = self._stack[-1]
        bound = frame.bound
        ring = self._ring
        if not bound:
            first = coord
            lo, hi = ring.block_range(coord, value)
            matches = hi - lo + 1  # an empty range ends at lo - 1
        elif len(bound) == 1:
            (other, other_value), = bound
            if coord == other:
                raise StructureError(f"coordinate {coord!r} already bound")
            # The 2-arc starts at the coordinate whose cyclic successor
            # is the other one (s -> p -> o -> s).
            if NEXT_COORD[other] == coord:
                first = other
                lo, hi = ring.pair_range(other, other_value, value)
            else:
                first = coord
                lo, hi = ring.pair_range(coord, value, other_value)
            matches = hi - lo + 1  # an empty range ends at lo - 1
        elif len(bound) == 2:
            assert frame.arc_first is not None
            first = frame.arc_first
            if coord != PREV_COORD[first]:
                raise StructureError(f"coordinate {coord!r} already bound")
            lo, hi = frame.lo, frame.hi
            matches = ring.triple_count(first, lo, hi, value)
        else:
            raise StructureError("triple pattern has only three coordinates")
        stored = PREV_COORD[first] if len(bound) < 2 else None
        self._stack.append(
            _Frame(
                bound + ((coord, value),), first, lo, hi, matches,
                stored, ring._columns[stored] if stored else None,
            )
        )
        return matches

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
        if coord == frame.stored:
            if frame.stored_seek is None:
                assert frame.column is not None
                frame.stored_seek = frame.column.seeker(frame.lo, frame.hi)
            return frame.stored_seek
        first = frame.arc_first
        if first is None:
            return partial(self._ring.leap_unbound, coord)
        if len(frame.bound) != 1 or coord == first:
            raise StructureError(f"leap on bound coordinate {coord!r}")
        if frame.ahead_seek is None:
            frame.ahead_seek = self._ring.ahead_seeker(
                first, frame.bound[0][1]
            )
        return frame.ahead_seek

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
