"""Per-triple-pattern navigation state over the Ring.

During LTJ every triple pattern tracks which of its coordinates are bound
(to query constants or to already-eliminated variables) and the row range
of the corresponding arc (Sec. 2.4: "each triple pattern of Q is
associated with some range C_j[b..e]"). :class:`RingPatternState`
maintains that state with a stack so the engine can backtrack, and
answers:

* ``leap(coord, lower)`` — smallest value ``>= lower`` the coordinate can
  take among the triples still matching the pattern;
* ``bind(coord, value)`` / ``unbind()`` — descend/ascend in the virtual
  trie;
* ``count()`` — number of matching triples (the range size, used both
  for emptiness tests and for the ``l_x`` ordering estimates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ring.index import NEXT_COORD, PREV_COORD, RingIndex
from repro.utils.errors import StructureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RelationCounters
    from repro.succinct.wavelet_tree import WaveletTree


@dataclass(slots=True)
class _Frame:
    """One level of the virtual-trie descent (never mutated once pushed).

    ``bound`` lists the ``(coordinate, value)`` pairs in bind order. For
    1- and 2-arcs, ``arc_first``/``lo``/``hi`` describe the row range;
    for the empty binding they are ``None``/full; for a fully bound
    pattern they stay those of the 2-arc and ``matches`` is the number
    of matching triples. While a coordinate is still free, ``stored``
    names the one whose values the row range exposes and ``column`` is
    its wavelet tree, so a leap on it is ``column``'s
    ``range_next_value`` over ``[lo, hi]``. Everything ``leap``/``bind``
    dispatch on is read off the frame; nothing is rebuilt per call.
    """

    bound: tuple[tuple[str, int], ...]
    arc_first: str | None
    lo: int
    hi: int
    matches: int
    stored: str | None = None
    column: WaveletTree | None = None


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
        self.obs: RelationCounters | None = None
        """Optional :class:`repro.obs.trace.RelationCounters`; when set,
        each navigation primitive bumps a ``detail`` counter recording
        which Ring operation answered it (ranges opened per arc kind,
        leap dispatch)."""
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

    @property
    def bound_coords(self) -> frozenset[str]:
        return frozenset(coord for coord, _v in self.frame.bound)

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
    def bind(self, coord: str, value: int) -> None:
        """Bind one coordinate and push the refined state."""
        frame = self._stack[-1]
        bound = frame.bound
        ring = self._ring
        obs = self.obs
        if not bound:
            if obs is not None:
                obs.bump("range_1arc")
            first = coord
            lo, hi = ring.block_range(coord, value)
            matches = max(0, hi - lo + 1)
        elif len(bound) == 1:
            (other, other_value), = bound
            if coord == other:
                raise StructureError(f"coordinate {coord!r} already bound")
            if obs is not None:
                obs.bump("range_2arc")
            # The 2-arc starts at the coordinate whose cyclic successor
            # is the other one (s -> p -> o -> s).
            if NEXT_COORD[other] == coord:
                first = other
                lo, hi = ring.pair_range(other, other_value, value)
            else:
                first = coord
                lo, hi = ring.pair_range(coord, value, other_value)
            matches = max(0, hi - lo + 1)
        elif len(bound) == 2:
            assert frame.arc_first is not None
            first = frame.arc_first
            if coord != PREV_COORD[first]:
                raise StructureError(f"coordinate {coord!r} already bound")
            if obs is not None:
                obs.bump("triple_count")
            lo, hi = frame.lo, frame.hi
            matches = ring.triple_count(first, lo, hi, value)
        else:
            raise StructureError("triple pattern has only three coordinates")
        stored = PREV_COORD[first] if len(bound) < 2 else None
        self._stack.append(
            _Frame(
                bound + ((coord, value),), first, lo, hi, matches,
                stored, ring.column(stored) if stored else None,
            )
        )

    def unbind(self) -> None:
        """Pop the most recent bind (backtracking)."""
        if len(self._stack) <= 1:
            raise StructureError("unbind on root state")
        self._stack.pop()

    # ------------------------------------------------------------------
    # leap
    # ------------------------------------------------------------------
    def leap(self, coord: str, lower: int) -> int | None:
        """Smallest value ``>= lower`` for an unbound ``coord``, or None.

        Dispatches to the Ring primitive matching the coordinate's
        position relative to the current arc (Sec. 2.4 / DESIGN.md).
        """
        frame = self._stack[-1]
        obs = self.obs
        column = frame.column
        if column is not None and coord == frame.stored:
            # The arc's stored column: the only free coordinate of a
            # 2-arc, one of the two of a 1-arc.
            if frame.matches == 0:
                return None
            if obs is not None:
                obs.bump("leap_stored")
            return column._range_next_value_u(frame.lo, frame.hi, lower)
        first = frame.arc_first
        if first is None:
            if frame.matches == 0:
                return None
            if obs is not None:
                obs.bump("leap_unbound")
            return self._ring.leap_unbound(coord, lower)
        if len(frame.bound) == 1 and coord != first:
            if frame.matches == 0:
                return None
            if obs is not None:
                obs.bump("leap_ahead")
            return self._ring.leap_ahead(first, frame.bound[0][1], lower)
        raise StructureError(f"leap on bound coordinate {coord!r}")

    def probe(self, assignments: dict[str, int]) -> bool:
        """Check non-emptiness if the given coords were bound (no state
        change). Used for variables occupying several coordinates."""
        if self.obs is not None:
            self.obs.bump("probe")
        for coord, value in assignments.items():
            self.bind(coord, value)
        nonempty = not self.is_empty()
        for _ in assignments:
            self.unbind()
        return nonempty
