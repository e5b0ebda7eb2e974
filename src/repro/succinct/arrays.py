"""Cumulative-count arrays, the ``A_j`` structures of the Ring (Sec. 2.4).

For a column ``C_j`` over an alphabet ``[0, sigma)``, the paper defines
``A_j[c] = |{ i : C_j[i] < c }|``.  :class:`CumulativeCounts` stores that
array and answers the two questions the Ring needs:

* the row range of a value's block (``range_of``), and
* which block a given row belongs to (``block_of`` — the "locate the
  ``A_P`` block of a select position" step used when leaping a variable
  that is neither the stored column nor the backward neighbor).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

import numpy as np

from repro.succinct.fields import (
    INT,
    Array,
    Derived,
    Layout,
    LazyMirrors,
    Scalar,
    checked_offsets,
)
from repro.utils.errors import ValidationError


class CumulativeCounts(LazyMirrors):
    """Cumulative occurrence counts of symbols ``[0, sigma)`` in a column."""

    LAYOUT = Layout(
        "cumcounts",
        Scalar("_n"),
        Scalar("_sigma"),
        Array("_cum", INT),
        Derived("_cum_i", "_checked_cum"),
    )

    def __init__(self, column: Iterable[int] | np.ndarray, alphabet_size: int) -> None:
        col = np.asarray(
            list(column) if not isinstance(column, np.ndarray) else column,
            dtype=np.int64,
        )
        if alphabet_size <= 0:
            raise ValidationError("alphabet_size must be positive")
        if col.size and (col.min() < 0 or col.max() >= alphabet_size):
            raise ValidationError(
                f"column values must lie in [0, {alphabet_size}); "
                f"got range [{col.min()}, {col.max()}]"
            )
        counts = np.bincount(col, minlength=alphabet_size)
        # _cum[c] = number of entries with value < c; length sigma + 1.
        self._cum = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        # Plain-int cache so the hot lookups (block_of / next_nonempty in
        # every Ring leap) are a list subscript + bisect, not numpy calls.
        self._cum_i: list[int] = self._cum.tolist()
        self._n = int(col.size)
        self._sigma = alphabet_size

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "CumulativeCounts":
        """Build directly from a per-symbol count array."""
        obj = cls.__new__(cls)
        counts = np.asarray(counts, dtype=np.int64)
        obj._cum = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        obj._cum_i = obj._cum.tolist()
        obj._n = int(counts.sum())
        obj._sigma = int(counts.size)
        return obj

    def _checked_cum(self) -> list[int]:
        return checked_offsets(
            f"cumulative counts of {self._sigma} symbols",
            self._cum, self._sigma + 1, self._n,
        )

    def __len__(self) -> int:
        return self._n

    @property
    def alphabet_size(self) -> int:
        return self._sigma

    def before(self, c: int) -> int:
        """``A[c]``: number of entries strictly smaller than ``c``."""
        if not 0 <= c <= self._sigma:
            raise ValidationError(f"symbol {c} out of range [0, {self._sigma}]")
        return self._cum_i[c]

    def count(self, c: int) -> int:
        """Number of occurrences of symbol ``c``."""
        if not 0 <= c < self._sigma:
            raise ValidationError(f"symbol {c} out of range [0, {self._sigma})")
        return self._cum_i[c + 1] - self._cum_i[c]

    def range_of(self, c: int) -> tuple[int, int]:
        """Closed 0-based row range ``[lo, hi]`` of symbol ``c``'s block.

        Empty blocks yield ``lo > hi``.
        """
        if not 0 <= c < self._sigma:
            raise ValidationError(f"symbol {c} out of range [0, {self._sigma})")
        return self._cum_i[c], self._cum_i[c + 1] - 1

    def block_of(self, row: int) -> int:
        """Symbol whose block contains sorted-table ``row`` (0-based)."""
        if not 0 <= row < self._n:
            raise ValidationError(f"row {row} out of range [0, {self._n})")
        # _cum is nondecreasing; find rightmost c with _cum[c] <= row.
        return bisect_right(self._cum_i, row) - 1

    def next_nonempty(self, c: int) -> int | None:
        """Smallest symbol ``>= c`` whose block is non-empty, or ``None``."""
        if c >= self._sigma:
            return None
        c = max(c, 0)
        base = self._cum_i[c]
        # First position > c where the cumulative count exceeds _cum[c];
        # the symbol just before it owns the first non-empty block >= c.
        sym = bisect_right(self._cum_i, base, c + 1) - 1
        if sym >= self._sigma:
            return None
        return sym
