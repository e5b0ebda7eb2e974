"""Pointerless (level-wise) wavelet tree over an integer sequence.

Supports the operation set of Sec. 2.3 of the paper:

* ``access(i)``, ``rank(c, i)``, ``select(c, j)`` — the classic trio, each
  in ``O(log sigma)`` bitvector operations;
* ``range_next_value(lo, hi, c)`` — smallest symbol ``>= c`` occurring in
  ``S[lo..hi]`` (the primitive behind ``leap`` in LTJ);
* ``count_distinct(lo, hi)`` — the ``range_symbols`` operation used to
  bound the number of candidate bindings of a variable;
* ``distinct_values(lo, hi)`` — enumerate the distinct symbols of a range
  in increasing order (one range-report traversal, visiting only the
  nodes the range reaches).

The construction performs a stable radix partition level by level, so the
bits of level ``l`` are laid out exactly as in the textbook pointerless
wavelet tree: the children of a node occupy the node's own position span
on the next level, zeros before ones.

Hot-path notes (see ``docs/performance.md``): arguments are validated
once at this public boundary, after which every descent is one
iterative loop over the levels with the bitvector rank arithmetic
inlined; and an optional *per-query memo*
(:meth:`begin_query_memo` / :meth:`end_query_memo`, attached by
:class:`repro.ltj.engine.LTJEngine` for the duration of one evaluation)
caches ``rank``, ``range_next_value`` and range-report traversals, which
leapfrog intersections repeat heavily while backtracking. The structure is
immutable, so cached answers can never go stale; the query scoping only
bounds the memo's memory. Op counters (``self.ops``) count *logical*
operations and are incremented before any memo lookup, so traced
operation counts are identical with and without memoization.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.succinct.bitvector import BitVector
from repro.succinct.fields import (
    INT,
    Array,
    Child,
    Layout,
    LazyMirrors,
    Scalar,
    Transient,
)
from repro.utils.errors import StructureError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import OpCounters

# Per-memo entry cap: a query that somehow accumulates more distinct
# (rank / range_next_value) argument tuples than this simply restarts
# the dictionary, keeping worst-case memory bounded.
_MEMO_CAP = 1 << 15

_MISS = object()


class WaveletTree(LazyMirrors):
    """Immutable wavelet tree over a sequence of ints in ``[0, sigma)``."""

    # The op-counter hook and the per-query memo are evaluation-scoped
    # recorder state, and the level view is rebuilt from the levels'
    # own mirrors: none of them crosses a process or file boundary.
    LAYOUT = Layout(
        "wavelet",
        Scalar("_n"),
        Scalar("_sigma"),
        Scalar("_height"),
        Child("_levels", BitVector, "list"),
        Array("_counts", INT, mirrored=True),
        Transient("ops"),
        Transient("_memo_users", 0),
        Transient("_memo_rank"),
        Transient("_memo_next"),
        Transient("_memo_values"),
        Transient("_lv"),
    )

    def __init__(self, sequence: Iterable[int] | np.ndarray, alphabet_size: int) -> None:
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
            shift = self._height - 1 - level
            bits = (current >> shift) & 1
            self._levels.append(BitVector(bits.astype(np.uint8)))
            if level + 1 < self._height:
                # Stable partition by the top (level+1) bits keeps each
                # node's span contiguous on the next level.
                prefix = current >> shift
                order = np.argsort(prefix, kind="stable")
                current = current[order]
        # Per-symbol totals allow O(1) total-count queries and power select.
        counts = np.bincount(seq, minlength=alphabet_size) if seq.size else (
            np.zeros(alphabet_size, dtype=np.int64)
        )
        self._counts = counts.astype(np.int64)
        self._counts_i: list[int] = self._counts.tolist()
        self.ops: OpCounters | None = None
        """Optional :class:`repro.obs.trace.OpCounters`. ``None`` (the
        default) disables op counting entirely; a traced evaluation
        attaches counters for its duration (see
        :func:`repro.obs.trace.attach_wavelets`)."""
        self._memo_users = 0
        self._memo_rank: dict[tuple[int, int], int] | None = None
        self._memo_next: dict[tuple[int, int, int], int | None] | None = None
        self._memo_values: dict[tuple[int, int], tuple[int, ...]] | None = None
        self._lv: list[tuple[list[int], list[int]]] | None = None

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

    def total_count(self, c: int) -> int:
        """Total occurrences of symbol ``c`` in the whole sequence."""
        if not 0 <= c < self._sigma:
            raise ValidationError(f"symbol {c} out of range [0, {self._sigma})")
        return self._counts_i[c]

    # ------------------------------------------------------------------
    # per-query memoization (attached by the LTJ engine)
    # ------------------------------------------------------------------
    def begin_query_memo(self) -> None:
        """Enable (or share) the per-query rank/leap memo.

        Reference-counted so overlapping evaluations over shared index
        structures compose: the memo is dropped when the last evaluation
        ends. Cached entries are always valid (the tree is immutable);
        scoping them to a query merely bounds memory.
        """
        if self._memo_users == 0:
            self._memo_rank = {}
            self._memo_next = {}
            self._memo_values = {}
        self._memo_users += 1

    def end_query_memo(self) -> None:
        """Release one memo user (see :meth:`begin_query_memo`)."""
        if self._memo_users > 0:
            self._memo_users -= 1
            if self._memo_users == 0:
                self._memo_rank = None
                self._memo_next = None
                self._memo_values = None

    # ------------------------------------------------------------------
    # descents
    #
    # Every operation below is one iterative walk down the levels that
    # keeps the current node as a closed span ``[nlo, nhi]`` and ranks
    # with the arithmetic inlined on the level's plain-int mirrors:
    # ones before ``i`` are ``cum[i >> 6]`` plus the popcount of word
    # ``i >> 6`` under ``(1 << (i & 63)) - 1``; ones up to and including
    # ``i`` use the mask ``(2 << (i & 63)) - 1``. Span starts take the
    # first form and span ends the second, so both index a word that
    # exists whenever the span is non-empty — no branch for ``i == n``.
    # A level costs at most four ranks: the node's two ends, which give
    # its zero count (where its right child starts), and the query's.
    # ------------------------------------------------------------------
    def _level_view(self) -> list[tuple[list[int], list[int]]]:
        """Each level's ``(words, cum1)`` mirrors, top level first.

        Built on first use from the bitvectors' own mirrors (it holds
        references, not copies) and declared transient: an attached
        tree starts without it.
        """
        view = self._lv = [(bv._words_i, bv._cum1_i) for bv in self._levels]
        return view

    def access(self, i: int) -> int:
        """Return ``S[i]``."""
        if self.ops is not None:
            self.ops.access += 1
        if not 0 <= i < self._n:
            raise ValidationError(f"access index {i} out of range [0, {self._n})")
        nlo, nhi = 0, self._n - 1
        value = 0
        for words, cum in self._lv or self._level_view():
            w = nlo >> 6
            a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
            w = nhi >> 6
            zeros = nhi - nlo + 1 + a - cum[w] - (
                words[w] & ((2 << (nhi & 63)) - 1)
            ).bit_count()
            w = i >> 6
            word = words[w]
            bit = i & 63
            x = cum[w] + (word & ((1 << bit) - 1)).bit_count() - a
            if (word >> bit) & 1:
                value = (value << 1) | 1
                nlo += zeros
                i = nlo + x
            else:
                value <<= 1
                nhi = nlo + zeros - 1
                i -= x
        return value

    def rank(self, c: int, i: int) -> int:
        """Occurrences of ``c`` in positions ``[0, i)``."""
        if self.ops is not None:
            self.ops.rank += 1
        if not 0 <= c < self._sigma:
            raise ValidationError(f"symbol {c} out of range [0, {self._sigma})")
        if not 0 <= i <= self._n:
            raise ValidationError(f"rank index {i} out of range [0, {self._n}]")
        memo = self._memo_rank
        if memo is not None:
            key = (c, i)
            hit = memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
        result = self._rank_u(c, i)
        if memo is not None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = result
        return result

    def _rank_u(self, c: int, i: int) -> int:
        nlo, nhi = 0, self._n - 1
        shift = self._height
        for words, cum in self._lv or self._level_view():
            if i <= nlo:
                return 0
            shift -= 1
            w = nlo >> 6
            a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
            w = nhi >> 6
            zeros = nhi - nlo + 1 + a - cum[w] - (
                words[w] & ((2 << (nhi & 63)) - 1)
            ).bit_count()
            w = (i - 1) >> 6
            x = cum[w] + (words[w] & ((2 << ((i - 1) & 63)) - 1)).bit_count() - a
            if (c >> shift) & 1:
                nlo += zeros
                i = nlo + x
            else:
                nhi = nlo + zeros - 1
                i -= x
        return i - nlo

    def rank_range(self, c: int, lo: int, hi: int) -> int:
        """Occurrences of ``c`` in the closed range ``[lo, hi]``."""
        if lo > hi:
            return 0
        return self.rank(c, hi + 1) - self.rank(c, lo)

    def select(self, c: int, j: int) -> int:
        """Position of the ``j``-th occurrence of ``c`` (``j`` from 1)."""
        if self.ops is not None:
            self.ops.select += 1
        if not 0 <= c < self._sigma:
            raise ValidationError(f"symbol {c} out of range [0, {self._sigma})")
        if not 1 <= j <= self._counts_i[c]:
            raise StructureError(
                f"select({c}, {j}) out of range: {self._counts_i[c]} occurrences"
            )
        # Descend to c's leaf noting each node's start and the ones
        # before it, then map the leaf offset back up with one bitvector
        # select per level. c occurs, so no node on its path is empty.
        path: list[tuple[int, int]] = []
        nlo, nhi = 0, self._n - 1
        shift = self._height
        for words, cum in self._lv or self._level_view():
            shift -= 1
            w = nlo >> 6
            a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
            path.append((nlo, a))
            w = nhi >> 6
            zeros = nhi - nlo + 1 + a - cum[w] - (
                words[w] & ((2 << (nhi & 63)) - 1)
            ).bit_count()
            if (c >> shift) & 1:
                nlo += zeros
            else:
                nhi = nlo + zeros - 1
        offset = j - 1  # 0-based offset inside the leaf's span
        for level in range(self._height - 1, -1, -1):
            nlo, a = path[level]
            bv = self._levels[level]
            if (c >> (self._height - 1 - level)) & 1:
                offset = bv._select1_u(a + offset + 1) - nlo
            else:
                offset = bv._select0_u(nlo - a + offset + 1) - nlo
        return offset

    def select_next(self, c: int, start: int) -> int | None:
        """First position ``>= start`` holding symbol ``c``, or ``None``."""
        if start >= self._n:
            return None
        r = self.rank(c, max(start, 0))
        if r + 1 > self._counts_i[c]:
            return None
        return self.select(c, r + 1)

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
        if self.ops is not None:
            self.ops.range_next += 1
        if lo > hi or c >= self._sigma:
            return None
        if c < 0:
            c = 0
        memo = self._memo_next
        if memo is not None:
            key = (lo, hi, c)
            hit = memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
        result = self._next_value(lo, hi, c)
        if memo is not None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = result
        return result

    def _next_value(self, lo: int, hi: int, c: int) -> int | None:
        """The descent behind :meth:`range_next_value`, for a non-empty
        ``[lo, hi]`` and ``0 <= c < sigma``, in two phases.

        First follow ``c``'s bits. Wherever ``c`` turns left, the right
        sibling holds only larger symbols; the deepest sibling the range
        reaches holds the smallest of them, so only that one is kept.
        Arriving at ``c``'s leaf with the range non-empty means ``c``
        itself occurs. Otherwise the answer is the minimum of the kept
        sibling: from there, take the leftmost child the range reaches.
        """
        levels = self._lv or self._level_view()
        height = self._height
        nlo, nhi = 0, self._n - 1
        sibling = None
        shift = height
        for words, cum in levels:
            shift -= 1
            w = nlo >> 6
            a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
            w = nhi >> 6
            zeros = nhi - nlo + 1 + a - cum[w] - (
                words[w] & ((2 << (nhi & 63)) - 1)
            ).bit_count()
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count() - a
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count() - a
            # x, y: ones of the node before lo and up to hi. The range
            # maps to [lo - x, hi - y] on the left, [mid + x, mid + y - 1]
            # on the right, where mid is the right child's start.
            if (c >> shift) & 1:
                nlo += zeros
                lo = nlo + x
                hi = nlo + y - 1
            else:
                if y > x:
                    mid = nlo + zeros
                    sibling = (shift, mid, nhi, mid + x, mid + y - 1)
                nhi = nlo + zeros - 1
                lo -= x
                hi -= y
            if lo > hi:
                break
        else:
            return c
        if sibling is None:
            return None
        shift, nlo, nhi, lo, hi = sibling
        value = (c >> shift) | 1
        for words, cum in levels[height - shift:]:
            w = nlo >> 6
            a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
            w = nhi >> 6
            zeros = nhi - nlo + 1 + a - cum[w] - (
                words[w] & ((2 << (nhi & 63)) - 1)
            ).bit_count()
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count() - a
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count() - a
            if hi - y >= lo - x:
                value <<= 1
                nhi = nlo + zeros - 1
                lo -= x
                hi -= y
            else:
                value = (value << 1) | 1
                nlo += zeros
                lo = nlo + x
                hi = nlo + y - 1
        return value

    def range_count(self, lo: int, hi: int, a: int, b: int) -> int:
        """Occurrences of symbols in ``[a, b]`` within ``S[lo..hi]``.

        The classic 2-D dominance counting on a wavelet tree, in
        ``O(log sigma)``: those below ``b + 1`` less those below ``a``.
        """
        if self.ops is not None:
            self.ops.range_count += 1
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
        the whole left child wherever ``v`` turns right."""
        if v >> self._height:
            return hi - lo + 1
        nlo, nhi = 0, self._n - 1
        count = 0
        shift = self._height
        for words, cum in self._lv or self._level_view():
            shift -= 1
            w = nlo >> 6
            a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
            w = nhi >> 6
            zeros = nhi - nlo + 1 + a - cum[w] - (
                words[w] & ((2 << (nhi & 63)) - 1)
            ).bit_count()
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count() - a
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count() - a
            if (v >> shift) & 1:
                count += (hi - y) - (lo - x) + 1
                nlo += zeros
                lo = nlo + x
                hi = nlo + y - 1
            else:
                nhi = nlo + zeros - 1
                lo -= x
                hi -= y
            if lo > hi:
                break
        return count

    def quantile(self, lo: int, hi: int, j: int) -> int:
        """The ``j``-th smallest symbol of ``S[lo..hi]`` (``j`` from 1,
        counting multiplicity) — the classic wavelet-tree quantile query
        in ``O(log sigma)``."""
        if self.ops is not None:
            self.ops.quantile += 1
        if lo > hi or self._n == 0:
            raise ValidationError("quantile on an empty range")
        if not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        if not 1 <= j <= hi - lo + 1:
            raise ValidationError(
                f"quantile index {j} outside [1, {hi - lo + 1}]"
            )
        nlo, nhi = 0, self._n - 1
        value = 0
        for words, cum in self._lv or self._level_view():
            w = nlo >> 6
            a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
            w = nhi >> 6
            zeros = nhi - nlo + 1 + a - cum[w] - (
                words[w] & ((2 << (nhi & 63)) - 1)
            ).bit_count()
            w = lo >> 6
            x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count() - a
            w = hi >> 6
            y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count() - a
            zeros_in_range = (hi - y) - (lo - x) + 1
            if j <= zeros_in_range:
                value <<= 1
                nhi = nlo + zeros - 1
                lo -= x
                hi -= y
            else:
                j -= zeros_in_range
                value = (value << 1) | 1
                nlo += zeros
                lo = nlo + x
                hi = nlo + y - 1
        return value

    def _range_values_u(self, lo: int, hi: int) -> tuple[int, ...]:
        """The distinct symbols of ``S[lo..hi]``, ascending: counted (as
        one ``range_next`` — a whole enumeration is one leap), memoized
        and unchecked like :meth:`_range_next_value_u`.

        One range-report traversal: depth-first, left child first, over
        exactly the nodes the range reaches — ``O(d log(sigma / d))``
        nodes for ``d`` reported symbols, where leaping value by value
        walks ``d + 1`` root-to-leaf paths.
        """
        if self.ops is not None:
            self.ops.range_next += 1
        if lo > hi:
            return ()
        memo = self._memo_values
        if memo is not None:
            key = (lo, hi)
            hit = memo.get(key)
            if hit is not None:
                return hit
        levels = self._lv or self._level_view()
        height = self._height
        found: list[int] = []
        # (level, node start, node end, range start, range end, prefix)
        stack = [(0, 0, self._n - 1, lo, hi, 0)]
        while stack:
            level, nlo, nhi, lo, hi, value = stack.pop()
            while level < height:
                words, cum = levels[level]
                level += 1
                w = nlo >> 6
                a = cum[w] + (words[w] & ((1 << (nlo & 63)) - 1)).bit_count()
                w = nhi >> 6
                zeros = nhi - nlo + 1 + a - cum[w] - (
                    words[w] & ((2 << (nhi & 63)) - 1)
                ).bit_count()
                w = lo >> 6
                x = cum[w] + (words[w] & ((1 << (lo & 63)) - 1)).bit_count() - a
                w = hi >> 6
                y = cum[w] + (words[w] & ((2 << (hi & 63)) - 1)).bit_count() - a
                value <<= 1
                mid = nlo + zeros
                if hi - y >= lo - x:
                    if y > x:  # the right child waits its turn
                        stack.append(
                            (level, mid, nhi, mid + x, mid + y - 1, value | 1)
                        )
                    nhi = mid - 1
                    lo -= x
                    hi -= y
                else:
                    value |= 1
                    nlo = mid
                    lo = mid + x
                    hi = mid + y - 1
            found.append(value)
        result = tuple(found)
        if memo is not None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = result
        return result

    def count_distinct(self, lo: int, hi: int, cap: int | None = None) -> int:
        """Number of distinct symbols in ``S[lo..hi]`` (closed range),
        or ``cap`` if that is smaller (cardinality estimation only needs
        "at least this many")."""
        count = len(list(self.distinct_values(lo, hi)))
        return count if cap is None else min(count, cap)

    def distinct_values(self, lo: int, hi: int) -> Iterator[int]:
        """The distinct symbols of ``S[lo..hi]`` in increasing order."""
        if lo > hi or self._n == 0:
            lo, hi = 0, -1  # any empty range: counted, reports nothing
        elif not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        return iter(self._range_values_u(lo, hi))

    def to_array(self) -> np.ndarray:
        """Reconstruct the full sequence (testing aid, O(n log sigma))."""
        return np.array([self.access(i) for i in range(self._n)], dtype=np.int64)
