"""Pointerless (level-wise) wavelet tree over an integer sequence.

Supports the operation set of Sec. 2.3 of the paper:

* ``access(i)``, ``rank(c, i)``, ``select(c, j)`` — the classic trio, each
  in ``O(log sigma)`` bitvector operations;
* ``range_next_value(lo, hi, c)`` — smallest symbol ``>= c`` occurring in
  ``S[lo..hi]`` (the primitive behind ``leap`` in LTJ);
* ``count_distinct(lo, hi)`` — the ``range_symbols`` operation used to
  bound the number of candidate bindings of a variable;
* ``distinct_values(lo, hi)`` — enumerate the distinct symbols of a range
  in increasing order (one ``O(log sigma)`` step per reported symbol).

The construction performs a stable radix partition level by level, so the
bits of level ``l`` are laid out exactly as in the textbook pointerless
wavelet tree: the children of a node occupy the node's own position span
on the next level, zeros before ones.

Hot-path notes (see ``docs/performance.md``): arguments are validated
once at this public boundary, after which every descent uses the
bitvectors' unchecked ``_*_u`` kernels; and an optional *per-query memo*
(:meth:`begin_query_memo` / :meth:`end_query_memo`, attached by
:class:`repro.ltj.engine.LTJEngine` for the duration of one evaluation)
caches ``rank`` and ``range_next_value`` traversals, which leapfrog
intersections repeat heavily while backtracking. The structure is
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
    # recorder state: they never cross a process or file boundary.
    LAYOUT = Layout(
        "wavelet",
        Scalar("_n"),
        Scalar("_sigma"),
        Scalar("_height"),
        Child("_levels", BitVector, "list"),
        Array("_counts", "<i8", mirrored=True),
        Transient("ops"),
        Transient("_memo_users", 0),
        Transient("_memo_rank"),
        Transient("_memo_next"),
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

    def size_in_bytes(self) -> int:
        """Bytes used by the level bitvectors and the count table."""
        return sum(bv.size_in_bytes() for bv in self._levels) + self._counts.nbytes

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
        self._memo_users += 1

    def end_query_memo(self) -> None:
        """Release one memo user (see :meth:`begin_query_memo`)."""
        if self._memo_users > 0:
            self._memo_users -= 1
            if self._memo_users == 0:
                self._memo_rank = None
                self._memo_next = None

    # ------------------------------------------------------------------
    # classic operations
    # ------------------------------------------------------------------
    def access(self, i: int) -> int:
        """Return ``S[i]``."""
        if self.ops is not None:
            self.ops.access += 1
        if not 0 <= i < self._n:
            raise ValidationError(f"access index {i} out of range [0, {self._n})")
        lo, hi = 0, self._n
        value = 0
        for bv in self._levels:
            bit = bv._access_u(i)
            value = (value << 1) | bit
            ones_before_node = bv._rank1_u(lo)
            zeros_in_node = (hi - lo) - (bv._rank1_u(hi) - ones_before_node)
            if bit == 0:
                i = lo + (bv._rank0_u(i) - bv._rank0_u(lo))
                hi = lo + zeros_in_node
            else:
                i = lo + zeros_in_node + (bv._rank1_u(i) - ones_before_node)
                lo = lo + zeros_in_node
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
        lo, hi = 0, self._n
        pos = i
        shift = self._height - 1
        for bv in self._levels:
            if pos <= lo:
                return 0
            ones_before_node = bv._rank1_u(lo)
            zeros_in_node = (hi - lo) - (bv._rank1_u(hi) - ones_before_node)
            if (c >> shift) & 1:
                pos = lo + zeros_in_node + (bv._rank1_u(pos) - ones_before_node)
                lo = lo + zeros_in_node
            else:
                pos = lo + (bv._rank0_u(pos) - bv._rank0_u(lo))
                hi = lo + zeros_in_node
            shift -= 1
        return pos - lo

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
        # Descend to the leaf to collect node boundaries, then walk back up.
        nodes: list[tuple[int, int]] = []
        lo, hi = 0, self._n
        for level, bv in enumerate(self._levels):
            nodes.append((lo, hi))
            bit = (c >> (self._height - 1 - level)) & 1
            ones_before_node = bv._rank1_u(lo)
            zeros_in_node = (hi - lo) - (bv._rank1_u(hi) - ones_before_node)
            if bit == 0:
                hi = lo + zeros_in_node
            else:
                lo = lo + zeros_in_node
        offset = j - 1  # 0-based offset inside the leaf interval
        for level in range(self._height - 1, -1, -1):
            bv = self._levels[level]
            node_lo, _node_hi = nodes[level]
            bit = (c >> (self._height - 1 - level)) & 1
            if bit == 0:
                offset = bv._select0_u(bv._rank0_u(node_lo) + offset + 1) - node_lo
            else:
                offset = bv._select1_u(bv._rank1_u(node_lo) + offset + 1) - node_lo
        return nodes[0][0] + offset

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
        if self.ops is not None:
            self.ops.range_next += 1
        if lo > hi or self._n == 0:
            return None
        if not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        if c >= self._sigma:
            return None
        return self._next_value_cached(lo, hi + 1, c if c > 0 else 0)

    def _next_value_cached(self, lo: int, hi_excl: int, c: int) -> int | None:
        """Memo wrapper over :meth:`_next_value` (args pre-validated)."""
        memo = self._memo_next
        if memo is not None:
            key = (lo, hi_excl, c)
            hit = memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
        result = self._next_value(0, 0, self._n, lo, hi_excl, 0, c)
        if memo is not None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = result
        return result

    def _next_value(
        self,
        level: int,
        node_lo: int,
        node_hi: int,
        r_lo: int,
        r_hi: int,
        prefix: int,
        c: int,
    ) -> int | None:
        """Recursive helper over node (``[node_lo, node_hi)``, value prefix).

        ``[r_lo, r_hi)`` is the query range mapped into this node. Finds the
        minimum symbol >= c within the node's value span intersected with
        the mapped range.
        """
        if r_lo >= r_hi:
            return None
        span_bits = self._height - level
        node_min = prefix << span_bits
        if node_min + (1 << span_bits) - 1 < c:
            return None
        if level == self._height:
            return prefix
        bv = self._levels[level]
        ones_before_node = bv._rank1_u(node_lo)
        zeros_node = (node_hi - node_lo) - (bv._rank1_u(node_hi) - ones_before_node)
        zeros_before_node = bv._rank0_u(node_lo)
        zeros_before_rlo = bv._rank0_u(r_lo) - zeros_before_node
        zeros_before_rhi = bv._rank0_u(r_hi) - zeros_before_node
        ones_before_rlo = (r_lo - node_lo) - zeros_before_rlo
        ones_before_rhi = (r_hi - node_lo) - zeros_before_rhi
        left_lo = node_lo
        left_hi = node_lo + zeros_node
        right_lo = left_hi
        if node_min >= c:
            # Entire node qualifies: return its range minimum.
            if zeros_before_rhi > zeros_before_rlo:
                return self._next_value(
                    level + 1, left_lo, left_hi,
                    left_lo + zeros_before_rlo, left_lo + zeros_before_rhi,
                    prefix << 1, c,
                )
            return self._next_value(
                level + 1, right_lo, node_hi,
                right_lo + ones_before_rlo, right_lo + ones_before_rhi,
                (prefix << 1) | 1, c,
            )
        # Node straddles c: try the left child first, then the right one.
        found = self._next_value(
            level + 1, left_lo, left_hi,
            left_lo + zeros_before_rlo, left_lo + zeros_before_rhi,
            prefix << 1, c,
        )
        if found is not None:
            return found
        return self._next_value(
            level + 1, right_lo, node_hi,
            right_lo + ones_before_rlo, right_lo + ones_before_rhi,
            (prefix << 1) | 1, c,
        )

    def range_count(self, lo: int, hi: int, a: int, b: int) -> int:
        """Occurrences of symbols in ``[a, b]`` within ``S[lo..hi]``.

        The classic 2-D dominance counting on a wavelet tree, in
        ``O(log sigma)``: descend splitting the symbol interval.
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
        return self._range_count(0, 0, self._n, lo, hi + 1, 0, a, b)

    def _range_count(
        self,
        level: int,
        node_lo: int,
        node_hi: int,
        r_lo: int,
        r_hi: int,
        prefix: int,
        a: int,
        b: int,
    ) -> int:
        if r_lo >= r_hi:
            return 0
        span_bits = self._height - level
        node_min = prefix << span_bits
        node_max = node_min + (1 << span_bits) - 1
        if node_max < a or node_min > b:
            return 0
        if a <= node_min and node_max <= b:
            return r_hi - r_lo
        bv = self._levels[level]
        ones_before_node = bv._rank1_u(node_lo)
        zeros_node = (node_hi - node_lo) - (bv._rank1_u(node_hi) - ones_before_node)
        zeros_before_node = bv._rank0_u(node_lo)
        zeros_before_rlo = bv._rank0_u(r_lo) - zeros_before_node
        zeros_before_rhi = bv._rank0_u(r_hi) - zeros_before_node
        ones_before_rlo = (r_lo - node_lo) - zeros_before_rlo
        ones_before_rhi = (r_hi - node_lo) - zeros_before_rhi
        left_lo = node_lo
        right_lo = node_lo + zeros_node
        return self._range_count(
            level + 1, left_lo, left_lo + zeros_node,
            left_lo + zeros_before_rlo, left_lo + zeros_before_rhi,
            prefix << 1, a, b,
        ) + self._range_count(
            level + 1, right_lo, node_hi,
            right_lo + ones_before_rlo, right_lo + ones_before_rhi,
            (prefix << 1) | 1, a, b,
        )

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
        node_lo, node_hi = 0, self._n
        r_lo, r_hi = lo, hi + 1
        value = 0
        for bv in self._levels:
            ones_before_node = bv._rank1_u(node_lo)
            zeros_node = (node_hi - node_lo) - (
                bv._rank1_u(node_hi) - ones_before_node
            )
            zeros_before_node = bv._rank0_u(node_lo)
            zeros_before_rlo = bv._rank0_u(r_lo) - zeros_before_node
            zeros_before_rhi = bv._rank0_u(r_hi) - zeros_before_node
            zeros_in_range = zeros_before_rhi - zeros_before_rlo
            ones_before_rlo = (r_lo - node_lo) - zeros_before_rlo
            ones_before_rhi = (r_hi - node_lo) - zeros_before_rhi
            if j <= zeros_in_range:
                value <<= 1
                node_hi = node_lo + zeros_node
                r_lo = node_lo + zeros_before_rlo
                r_hi = node_lo + zeros_before_rhi
            else:
                j -= zeros_in_range
                value = (value << 1) | 1
                right_lo = node_lo + zeros_node
                r_lo = right_lo + ones_before_rlo
                r_hi = right_lo + ones_before_rhi
                node_lo = right_lo
        return value

    def count_distinct(self, lo: int, hi: int, cap: int | None = None) -> int:
        """Number of distinct symbols in ``S[lo..hi]`` (closed range).

        With ``cap`` set, counting stops early once the count reaches
        ``cap`` (useful for cardinality estimation where only "at least
        this many" matters).
        """
        count = 0
        for _ in self.distinct_values(lo, hi):
            count += 1
            if cap is not None and count >= cap:
                break
        return count

    def distinct_values(self, lo: int, hi: int) -> Iterator[int]:
        """Yield the distinct symbols of ``S[lo..hi]`` in increasing order."""
        if lo > hi or self._n == 0:
            return
        if not (0 <= lo and hi < self._n):
            raise ValidationError(f"range [{lo}, {hi}] out of [0, {self._n})")
        c = 0
        while True:
            if self.ops is not None:
                self.ops.range_next += 1
            value = self._next_value_cached(lo, hi + 1, c)
            if value is None:
                return
            yield value
            c = value + 1
            if c >= self._sigma:
                return

    def to_array(self) -> np.ndarray:
        """Reconstruct the full sequence (testing aid, O(n log sigma))."""
        return np.array([self.access(i) for i in range(self._n)], dtype=np.int64)
