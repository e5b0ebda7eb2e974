"""Cumulative-count arrays, the ``A_j`` structures of the Ring (Sec. 2.4).

For a column ``C_j`` over an alphabet ``[0, sigma)``, the paper defines
``A_j[c] = |{ i : C_j[i] < c }|``.  :class:`CumulativeCounts` stores that
array. On its hot path the Ring reads the plain-int table ``_cum_i``
directly: a value's block is ``[_cum_i[c], _cum_i[c + 1])``, and a
``bisect`` finds the block of a select position when it leaps a variable
that is neither the stored column nor the backward neighbor
(:meth:`repro.ring.index.RingIndex.ahead_seeker`). Attached, ``_cum_i``
reads the mapping through a :class:`~repro.succinct.fields.ColdTable`
until the structure promotes (``_promote``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class CumulativeCounts(LazyMirrors):
    """Cumulative occurrence counts of symbols ``[0, sigma)`` in a column."""

    LAYOUT = Layout(
        "cumcounts",
        Scalar("_n"),
        Scalar("_sigma"),
        Array("_cum", INT, "cumulative counts"),
        Derived("_cum_i", "_checked_cum"),
        promote="_promote",
    )

    def __init__(self, column: Iterable[int] | np.ndarray, alphabet_size: int) -> None:
        import numpy as np

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
        # Plain-int cache so the hot lookups (block ranges / next_nonempty
        # in every Ring leap) are a list subscript + bisect, not numpy calls.
        self._cum_i: Sequence[int] = self._cum.tolist()
        self._n = int(col.size)
        self._sigma = alphabet_size

    def _checked_cum(self) -> Sequence[int]:
        return checked_offsets(
            self, f"cumulative counts of {self._sigma} symbols",
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
