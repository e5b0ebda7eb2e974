"""Wavelet matrix over an integer sequence (the class keeps the name
``WaveletTree``: it answers the same operations).

Supports the operation set of Sec. 2.3 of the paper:

* ``access(i)``, ``rank(c, i)``, ``select(c, j)`` — the classic trio, each
  in ``O(log sigma)`` bitvector operations;
* ``range_next_value(lo, hi, c)`` — smallest symbol ``>= c`` occurring in
  ``S[lo..hi]`` (the primitive behind ``leap`` in LTJ);
* ``distinct_values(lo, hi)`` — enumerate the distinct symbols of a range
  in increasing order (the ``range_symbols`` operation: one range-report
  traversal, visiting only the nodes the range reaches).

The layout is the wavelet matrix ("The wavelet matrix: an efficient
wavelet tree for large alphabets", Information Systems 47, 2015):
level ``l`` holds bit ``l`` (from the top) of every symbol, and the
next level stably partitions the *whole* sequence by that bit, zeros
first. A range
``[lo, hi]`` therefore maps down with two ranks at its own ends and the
level's zero count ``z`` — to ``[lo - x, hi - y]`` on a 0 bit and to
``[z + x, z + y - 1]`` on a 1 bit — and never needs its node's bounds.
``z`` is not stored: it is the level bitvector's own checked total. Nor
is a per-symbol count: a symbol's count is the size of its leaf range.

Hot-path notes (see ``docs/performance.md``): arguments are validated
once at this public boundary, after which every descent is one
iterative loop over the levels with the bitvector rank arithmetic
inlined; and each tree keeps a *memo* of ``rank``,
``range_next_value``, range-report traversals and ``select_next`` (the
Ring's leap on a 1-arc), which leapfrog intersections repeat heavily
while backtracking and queries repeat across each other. The structure
is immutable, so a remembered answer never goes stale: the memo lives
as long as the tree, and only its caps (``_MEMO_CAP`` entries a dict,
``_MEMO_SYMBOLS`` report symbols) bound its memory, each dict
restarting when full. Op counters (``self.ops``) count *logical*
operations and are incremented before any memo lookup (a remembered
``select_next`` bumps ``select`` only when its answer is a position, as
a fresh one does), so traced operation counts are the same on a fresh
tree and on one that has answered everything before.

A leapfrog intersection leaps through :meth:`seeker`, the leap over one
range as a function of ``c``: a range of at most ``_SHORT`` positions
is reported once (memoized) and each leap bisects its distinct symbols
(``O(_SHORT log sigma)`` once, still ``O(log sigma)``); a longer range
takes the memoized descent per leap. Either way a leap counts one
``range_next``.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from typing import TYPE_CHECKING

from repro.succinct.bitvector import BitVector
from repro.succinct.fields import (
    Child,
    Layout,
    LazyMirrors,
    Scalar,
    Transient,
)
from repro.utils.errors import StructureError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.obs.trace import OpCounters

# Per-memo entry cap: a (rank / range_next_value / select_next) memo
# that reaches this many argument tuples restarts, keeping the memory of
# a memo that lives as long as its tree bounded.
_MEMO_CAP = 1 << 15

# The range-report memo is capped by the symbols its reports hold
# together, not by entries (a report holds up to sigma of them): a
# report that would take the total past this restarts the dictionary,
# and one larger than the cap alone is not kept. Every kept report
# holds at least one symbol, so this also caps its entries.
_MEMO_SYMBOLS = 1 << 15

# A leap over a range of at most this many positions bisects the
# range's memoized report instead of descending: O(_SHORT log sigma)
# once per range, still O(log sigma).
_SHORT = 128

_MISS = object()

#: One level of the view: its words, the ones before each word, ``z``.
_Level = tuple[Sequence[int], Sequence[int], int]


def _drop_view(tree: weakref.ref[WaveletTree]) -> None:
    """A level of ``tree`` promoted: its next descent rebuilds the level
    view over the lists. Held weakly — the level belongs to the tree."""
    owner = tree()
    if owner is not None:
        owner._lv = None


class WaveletTree(LazyMirrors):
    """Immutable wavelet matrix over a sequence of ints in ``[0, sigma)``."""

    # The op-counter hook is evaluation-scoped recorder state, the memo
    # belongs to this process's copy of the tree (every attach gets its
    # own empty dicts), and the level view is rebuilt from the levels'
    # own mirrors: none of them crosses a process or file boundary.
    LAYOUT = Layout(
        "wavelet",
        Scalar("_n"),
        Scalar("_sigma"),
        Scalar("_height"),
        Child("_levels", BitVector, "list"),
        Transient("ops"),
        Transient("_memo_rank", {}),
        Transient("_memo_next", {}),
        Transient("_memo_values", {}),
        Transient("_memo_held", 0),
        Transient("_memo_select", {}),
        Transient("_lv"),
    )

    def __init__(self, sequence: Iterable[int] | np.ndarray, alphabet_size: int) -> None:
        import numpy as np

        seq = np.asarray(
            list(sequence) if not isinstance(sequence, np.ndarray) else sequence,
            dtype=np.int64,
        )
        if seq.ndim != 1:
            raise ValidationError("sequence must be one-dimensional")
        if alphabet_size <= 0:
            raise ValidationError("alphabet_size must be positive")
        if seq.size and (seq.min() < 0 or seq.max() >= alphabet_size):
            raise ValidationError(
                f"sequence values must lie in [0, {alphabet_size})"
            )
        self._n = int(seq.size)
        self._sigma = int(alphabet_size)
        self._height = max(1, int(alphabet_size - 1).bit_length())
        self._levels: list[BitVector] = []
        current = seq
        for level in range(self._height):
            ones = ((current >> (self._height - 1 - level)) & 1).astype(bool)
            self._levels.append(BitVector(ones.view(np.uint8)))
            if level + 1 < self._height:
                # The next level is the whole sequence stably
                # partitioned by this level's bit, zeros first.
                current = np.concatenate((current[~ones], current[ones]))
        self.ops: OpCounters | None = None
        """Optional :class:`repro.obs.trace.OpCounters`. ``None`` (the
        default) disables op counting entirely; a traced evaluation
        attaches counters for its duration and its thread (see
        :func:`repro.obs.trace.attach_wavelets`), so a count site reads
        ``ops`` once: another thread may detach between two reads."""
        self._memo_rank: dict[tuple[int, int], int] = {}
        self._memo_next: dict[tuple[int, int, int], int | None] = {}
        self._memo_values: dict[tuple[int, int], tuple[int, ...]] = {}
        self._memo_held = 0  # symbols held by ``_memo_values``
        self._memo_select: dict[tuple[int, int], int | None] = {}
        self._lv: list[_Level] | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def alphabet_size(self) -> int:
        return self._sigma

    @property
    def height(self) -> int:
        return self._height

    def _check_symbol(self, c: int) -> None:
        if not 0 <= c < self._sigma:
            raise ValidationError(f"symbol {c} out of range [0, {self._sigma})")

    def total_count(self, c: int) -> int:
        """Total occurrences of symbol ``c`` in the whole sequence: the
        size of its leaf range."""
        self._check_symbol(c)
        lo, hi = self._descend(c, 0, self._n - 1)
        return hi - lo + 1

    # ------------------------------------------------------------------
    # descents
    #
    # Every operation below is one iterative walk down the levels that
    # keeps a closed range ``[lo, hi]`` and ranks its two ends with the
    # arithmetic inlined on the level's plain-int mirrors: ``x``, the
    # ones before ``lo``, is ``cum[lo >> 6]`` plus the popcount of word
    # ``lo >> 6`` under ``(1 << (lo & 63)) - 1``; ``y``, the ones up to
    # and including ``hi``, uses the mask ``(2 << (hi & 63)) - 1``. Both
    # index a word that exists whenever the range is non-empty — no
    # branch for ``lo == n``. The range's zeros go to ``[lo - x, hi - y]``
    # and its ones to ``[z + x, z + y - 1]``: two ranks a level.
    # ------------------------------------------------------------------
    def _level_view(self) -> list[_Level]:
        """Each level's ``(words, cum1, z)``, top level first.

        Built on first use from the bitvectors' own mirrors (it holds
        references, not copies) and declared transient: an attached
        tree starts without it. ``z``, the level's zero count, is the
        bitvector's checked total, so it is derived and never stored.
        An attached level's mirrors are readers over the mapping until
        the level promotes; the promotion drops this view, and the next
        descent builds it again over the level's lists. A level that
        promoted while this view was built (another thread's read) may
        have dropped the view before it was kept, so it is dropped again.
        """
        view: list[_Level] = []
        for bv in self._levels:
            z = bv.n_zeros  # first: a cold level's read may promote it
            cum = bv._cum1_i
            if type(cum) is not list:
                bv._on_promote = partial(_drop_view, weakref.ref(self))
            view.append((bv._words_i, cum, z))
        self._lv = view
        for bv, (_, cum, _) in zip(self._levels, view):
            if cum is not bv._cum1_i:
                self._lv = None
        return view

    def _descend(self, c: int, lo: int, hi: int) -> tuple[int, int]:
        """Map ``[lo, hi]`` down ``c``'s bits: the leaf range of the
        occurrences of ``c`` in it, empty (``hi == lo - 1``) if none."""
        shift = self._height
        for words, cum, z in self._lv or self._level_view():
            if lo > hi:
                break
            shift -= 1
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count()
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count()
            if (c >> shift) & 1:
                lo = z + x
                hi = z + y - 1
            else:
                lo -= x
                hi -= y
        return lo, hi

    def _lift(self, c: int, i: int) -> int:
        """Map leaf position ``i`` of ``c``'s range back up to ``S``,
        one bitvector select a level."""
        levels = self._lv or self._level_view()
        for level in range(self._height - 1, -1, -1):
            bv = self._levels[level]
            if (c >> (self._height - 1 - level)) & 1:
                i = bv._select1_u(i - levels[level][2] + 1)
            else:
                i = bv._select0_u(i + 1)
        return i

    def access(self, i: int) -> int:
        """Return ``S[i]``."""
        if (ops := self.ops) is not None:
            ops.access += 1
        if not 0 <= i < self._n:
            raise ValidationError(f"access index {i} out of range [0, {self._n})")
        value = 0
        for words, cum, z in self._lv or self._level_view():
            w = i >> 6
            word = words[w]
            bit = i & 63
            x = cum[w] + (word & ((1 << bit) - 1)).bit_count()
            if (word >> bit) & 1:
                value = (value << 1) | 1
                i = z + x
            else:
                value <<= 1
                i -= x
        return value

    def rank(self, c: int, i: int) -> int:
        """Occurrences of ``c`` in positions ``[0, i)``."""
        if (ops := self.ops) is not None:
            ops.rank += 1
        self._check_symbol(c)
        if not 0 <= i <= self._n:
            raise ValidationError(f"rank index {i} out of range [0, {self._n}]")
        memo = self._memo_rank
        key = (c, i)
        hit = memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        lo, hi = self._descend(c, 0, i - 1)
        result = hi - lo + 1
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = result
        return result

    def rank_range(self, c: int, lo: int, hi: int) -> int:
        """Occurrences of ``c`` in the closed range ``[lo, hi]``."""
        if lo > hi:
            return 0
        return self.rank(c, hi + 1) - self.rank(c, lo)

    def select(self, c: int, j: int) -> int:
        """Position of the ``j``-th occurrence of ``c`` (``j`` from 1)."""
        if (ops := self.ops) is not None:
            ops.select += 1
        self._check_symbol(c)
        lo, hi = self._descend(c, 0, self._n - 1)
        if not 1 <= j <= hi - lo + 1:
            raise StructureError(
                f"select({c}, {j}) out of range: {hi - lo + 1} occurrences"
            )
        return self._lift(c, lo + j - 1)

    def select_next(self, c: int, start: int) -> int | None:
        """First position ``>= start`` holding symbol ``c``, or ``None``.

        Counted as the ``rank`` of ``start`` and, when there is such a
        position, the ``select`` that finds it; done as one descent of
        ``[start, n - 1]``, whose leaf range starts at the answer. A
        ``start`` at or past the end answers ``None`` without counting a
        rank. Memoized, keyed ``(c, start)``; a hit counts exactly as the
        descent it replaces.
        """
        if start >= self._n:
            return None
        ops = self.ops
        if ops is not None:
            ops.rank += 1
        self._check_symbol(c)
        memo = self._memo_select
        key = (c, start)
        result = memo.get(key, _MISS)
        if result is _MISS:
            lo, hi = self._descend(c, max(start, 0), self._n - 1)
            result = self._lift(c, lo) if lo <= hi else None
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = result
        if result is None:
            return None
        if ops is not None:
            ops.select += 1
        return result

    # ------------------------------------------------------------------
    # range operations (Sec. 2.3 extended set)
    # ------------------------------------------------------------------
    def range_next_value(self, lo: int, hi: int, c: int) -> int | None:
        """Smallest symbol ``>= c`` occurring in ``S[lo..hi]`` (closed).

        Returns ``None`` when no such symbol exists. This is the paper's
        ``range_next_value`` primitive powering ``leap`` (Sec. 2.4).
        """
        if lo > hi or self._n == 0:
            lo, hi = 0, -1  # any empty range: counted, answers None
        elif not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        return self._range_next_value_u(lo, hi, c)

    def _range_next_value_u(self, lo: int, hi: int, c: int) -> int | None:
        """Counted, memoized, unchecked :meth:`range_next_value`.

        The entry for callers whose range is in ``[0, n)`` by
        construction — an atom that resolved it when it was bound.
        """
        if (ops := self.ops) is not None:
            ops.range_next += 1
        if lo > hi or c >= self._sigma:
            return None
        if c < 0:
            c = 0
        memo = self._memo_next
        key = (lo, hi, c)
        hit = memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        result = self._next_value(lo, hi, c)
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = result
        return result

    def _range_next_id_u(
        self, ids: Sequence[int], lo: int, hi: int, c: int
    ) -> int | None:
        """:meth:`_range_next_value_u` over a sequence of ranks into the
        sorted ``ids`` (the member ranks a K-NN or distance sequence
        holds): ``c`` and the answer are ids. A ``c`` between two ids
        leaps from the rank of the larger; one past the last id is
        past the alphabet, counted and ``None`` as before it."""
        r = self._range_next_value_u(lo, hi, bisect_left(ids, c))
        return None if r is None else ids[r]

    def seeker(
        self, lo: int, hi: int, ids: Sequence[int] | None = None
    ) -> Callable[[int], int | None]:
        """:meth:`_range_next_value_u` over ``[lo, hi]`` as a function of
        ``c``, counted the same: one ``range_next`` per call; with
        ``ids``, :meth:`_range_next_id_u`.

        A range of at most ``_SHORT`` positions is reported once
        (uncounted, memoized; mapped to ``ids`` once) and each call
        bisects its distinct symbols; a longer range calls
        :meth:`_range_next_value_u` (or :meth:`_range_next_id_u`).
        """
        if hi - lo >= _SHORT:
            if ids is None:
                return partial(self._range_next_value_u, lo, hi)
            return partial(self._range_next_id_u, ids, lo, hi)
        values: Sequence[int] = self._report(lo, hi)
        if ids is not None:
            values = list(map(ids.__getitem__, values))
        end = len(values)

        def seek(c: int) -> int | None:
            if (ops := self.ops) is not None:
                ops.range_next += 1
            i = bisect_left(values, c)
            return values[i] if i < end else None

        return seek

    def _next_value(self, lo: int, hi: int, c: int) -> int | None:
        """The descent behind :meth:`range_next_value`, for a non-empty
        ``[lo, hi]`` and ``0 <= c < sigma``, in two phases.

        First follow ``c``'s bits. Wherever ``c`` turns left, the range's
        ones hold only larger symbols; the deepest such range that is
        non-empty holds the smallest of them, so only that one is kept.
        Arriving at ``c``'s leaf with the range non-empty means ``c``
        itself occurs. Otherwise the answer is the minimum of the kept
        range: from there, follow the range's zeros wherever it has any.
        """
        levels = self._lv or self._level_view()
        height = self._height
        sibling = None
        shift = height
        for words, cum, z in levels:
            shift -= 1
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count()
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count()
            if (c >> shift) & 1:
                lo = z + x
                hi = z + y - 1
            else:
                if y > x:
                    sibling = (shift, z + x, z + y - 1)
                lo -= x
                hi -= y
            if lo > hi:
                break
        else:
            return c
        if sibling is None:
            return None
        shift, lo, hi = sibling
        value = (c >> shift) | 1
        for words, cum, z in levels[height - shift:]:
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count()
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count()
            if hi - y >= lo - x:
                value <<= 1
                lo -= x
                hi -= y
            else:
                value = (value << 1) | 1
                lo = z + x
                hi = z + y - 1
        return value

    def range_count(self, lo: int, hi: int, a: int, b: int) -> int:
        """Occurrences of symbols in ``[a, b]`` within ``S[lo..hi]``.

        The classic 2-D dominance counting on a wavelet tree, in
        ``O(log sigma)``: those below ``b + 1`` less those below ``a``.
        """
        if (ops := self.ops) is not None:
            ops.range_count += 1
        if lo > hi or a > b or self._n == 0:
            return 0
        if not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        a = max(a, 0)
        b = min(b, self._sigma - 1)
        if a > b:
            return 0
        return self._count_below(lo, hi, b + 1) - self._count_below(lo, hi, a)

    def _count_below(self, lo: int, hi: int, v: int) -> int:
        """Positions of a non-empty ``[lo, hi]`` holding a symbol
        ``< v``, for ``0 <= v <= sigma``: follow ``v``'s bits, taking in
        the range's zeros wherever ``v`` turns right."""
        if v >> self._height:
            return hi - lo + 1
        count = 0
        shift = self._height
        for words, cum, z in self._lv or self._level_view():
            shift -= 1
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count()
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count()
            if (v >> shift) & 1:
                count += (hi - y) - (lo - x) + 1
                lo = z + x
                hi = z + y - 1
            else:
                lo -= x
                hi -= y
            if lo > hi:
                break
        return count

    def quantile(self, lo: int, hi: int, j: int) -> int:
        """The ``j``-th smallest symbol of ``S[lo..hi]`` (``j`` from 1,
        counting multiplicity) — the classic wavelet-tree quantile query
        in ``O(log sigma)``."""
        if (ops := self.ops) is not None:
            ops.quantile += 1
        if lo > hi or self._n == 0:
            raise ValidationError("quantile on an empty range")
        if not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        if not 1 <= j <= hi - lo + 1:
            raise ValidationError(
                f"quantile index {j} outside [1, {hi - lo + 1}]"
            )
        value = 0
        for words, cum, z in self._lv or self._level_view():
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count()
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count()
            zeros_in_range = (hi - y) - (lo - x) + 1
            if j <= zeros_in_range:
                value <<= 1
                lo -= x
                hi -= y
            else:
                j -= zeros_in_range
                value = (value << 1) | 1
                lo = z + x
                hi = z + y - 1
        return value

    def _range_values_u(self, lo: int, hi: int) -> tuple[int, ...]:
        """The distinct symbols of ``S[lo..hi]``, ascending: counted (as
        one ``range_next`` — a whole enumeration is one leap), memoized
        and unchecked like :meth:`_range_next_value_u`.

        One range-report traversal: depth-first, zeros first, over
        exactly the nodes the range reaches — ``O(d log(sigma / d))``
        nodes for ``d`` reported symbols, where leaping value by value
        walks ``d + 1`` root-to-leaf paths.
        """
        if (ops := self.ops) is not None:
            ops.range_next += 1
        return self._report(lo, hi)

    def _report(self, lo: int, hi: int) -> tuple[int, ...]:
        """The traversal behind :meth:`_range_values_u`, uncounted and
        memoized (capped by ``_MEMO_SYMBOLS``)."""
        if lo > hi:
            return ()
        memo = self._memo_values
        key = (lo, hi)
        hit = memo.get(key)
        if hit is not None:
            return hit
        levels = self._lv or self._level_view()
        height = self._height
        found: list[int] = []
        # (level, range start, range end, prefix)
        stack = [(0, lo, hi, 0)]
        while stack:
            level, lo, hi, value = stack.pop()
            while level < height:
                words, cum, z = levels[level]
                level += 1
                w = lo >> 6
                x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count()
                w = hi >> 6
                y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count()
                value <<= 1
                if hi - y >= lo - x:
                    if y > x:  # the ones wait their turn
                        stack.append((level, z + x, z + y - 1, value | 1))
                    lo -= x
                    hi -= y
                else:
                    value |= 1
                    lo = z + x
                    hi = z + y - 1
            found.append(value)
        result = tuple(found)
        if len(result) <= _MEMO_SYMBOLS:
            held = self._memo_held + len(result)
            if held > _MEMO_SYMBOLS:
                memo.clear()
                held = len(result)
            memo[key] = result
            self._memo_held = held
        return result

    def distinct_values(self, lo: int, hi: int) -> Iterator[int]:
        """The distinct symbols of ``S[lo..hi]`` in increasing order."""
        if lo > hi or self._n == 0:
            lo, hi = 0, -1  # any empty range: counted, reports nothing
        elif not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        return iter(self._range_values_u(lo, hi))

    def to_array(self) -> np.ndarray:
        """Reconstruct the full sequence (testing aid, O(n log sigma))."""
        import numpy as np

        return np.array([self.access(i) for i in range(self._n)], dtype=np.int64)
