"""Static bitvector with O(1) rank and near-O(1) select.

The representation mirrors SDSL's plain ``bit_vector`` with rank/select
supports (the structures the paper's implementation uses, Sec. 5): bits
are packed into 64-bit words, and cumulative popcounts per word give
``rank`` in constant time and ``select`` by binary search over the
cumulative array plus an in-word bit scan. Total overhead is ~2 bits per
bit — keeping the whole index within a small constant of the
information-theoretic size, which the space experiment (Sec. 6.2)
depends on.

Hot-path layout (see ``docs/performance.md``): alongside the canonical
numpy buffers the constructor materializes *word caches* — plain Python
``list``\\ s of the words and cumulative counts — so the per-call kernel
never unboxes a numpy scalar; in-word select uses the precomputed 16-bit
popcount/select tables of :mod:`repro.succinct.tables`; and every public
operation validates once, then delegates to an unchecked ``_*_u``
variant that internal callers (:class:`~repro.succinct.wavelet_tree.
WaveletTree`, the Ring, the K-NN structures) may invoke directly when
their arguments are in-range by construction.

Conventions (0-based, half-open):

* ``rank1(i)``  = number of set bits among positions ``[0, i)``.
* ``select1(j)`` = position of the ``j``-th set bit, ``j`` in ``[1, ones]``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

import numpy as np

from repro.succinct.fields import Array, Layout, LazyMirrors, Scalar
from repro.succinct.tables import select_in_word
from repro.utils.errors import StructureError, ValidationError


class BitVector(LazyMirrors):
    """Immutable bit sequence supporting access, rank and select."""

    LAYOUT = Layout(
        "bitvector",
        Scalar("_n"),
        Array("_words", "<u8", mirrored=True),
        Array("_cum1", "<i8", mirrored=True),
        Array("_cum0", "<i8", mirrored=True),
    )

    def __init__(self, bits: Iterable[int] | np.ndarray) -> None:
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.ndim != 1:
            raise ValidationError("bits must be one-dimensional")
        arr = arr.astype(np.uint8)
        if arr.size and arr.max() > 1:
            raise ValidationError("bits must contain only 0s and 1s")
        self._n = int(arr.size)
        n_words = (self._n + 63) // 64
        padded = np.zeros(n_words * 64, dtype=np.uint8)
        padded[: self._n] = arr
        words = padded.reshape(n_words, 64)
        weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
        self._words = (words.astype(np.uint64) * weights).sum(
            axis=1, dtype=np.uint64
        )
        per_word = words.sum(axis=1, dtype=np.int64)
        # _cum1[w] = set bits before word w; _cum0 analogous for clear
        # bits (padding past n is excluded).
        self._cum1 = np.concatenate(([0], np.cumsum(per_word)))
        boundaries = np.minimum(
            64 * np.arange(n_words + 1, dtype=np.int64), self._n
        )
        self._cum0 = boundaries - self._cum1
        # Hot-path word caches: plain Python ints, so rank/select avoid
        # numpy scalar boxing entirely (the numpy buffers above remain
        # the canonical representation and what size_in_bytes reports).
        self._words_i: list[int] = self._words.tolist()
        self._cum1_i: list[int] = self._cum1.tolist()
        self._cum0_i: list[int] = self._cum0.tolist()

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        # One vectorized expansion instead of n validated access() calls.
        return iter(self.to_array().tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = "".join(str(self.access(i)) for i in range(min(self._n, 32)))
        suffix = "..." if self._n > 32 else ""
        return f"BitVector({head}{suffix}, n={self._n})"

    @property
    def n_ones(self) -> int:
        """Total number of set bits."""
        return self._cum1_i[-1]

    @property
    def n_zeros(self) -> int:
        """Total number of clear bits."""
        return self._n - self._cum1_i[-1]

    def size_in_bytes(self) -> int:
        """Bytes used by the underlying numpy buffers."""
        return self._words.nbytes + self._cum1.nbytes + self._cum0.nbytes

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def access(self, i: int) -> int:
        """Return bit ``i``."""
        if not 0 <= i < self._n:
            raise ValidationError(f"access index {i} out of range [0, {self._n})")
        return (self._words_i[i >> 6] >> (i & 63)) & 1

    def _access_u(self, i: int) -> int:
        """Unchecked :meth:`access` (``0 <= i < n`` is the caller's bond)."""
        return (self._words_i[i >> 6] >> (i & 63)) & 1

    def rank1(self, i: int) -> int:
        """Number of 1-bits in positions ``[0, i)``; ``i`` in ``[0, n]``."""
        if not 0 <= i <= self._n:
            raise ValidationError(f"rank index {i} out of range [0, {self._n}]")
        rem = i & 63
        if rem:
            w = i >> 6
            return self._cum1_i[w] + (
                self._words_i[w] & ((1 << rem) - 1)
            ).bit_count()
        return self._cum1_i[i >> 6]

    def _rank1_u(self, i: int) -> int:
        """Unchecked :meth:`rank1` (``0 <= i <= n`` is the caller's bond)."""
        rem = i & 63
        if rem:
            w = i >> 6
            return self._cum1_i[w] + (
                self._words_i[w] & ((1 << rem) - 1)
            ).bit_count()
        return self._cum1_i[i >> 6]

    def rank0(self, i: int) -> int:
        """Number of 0-bits in positions ``[0, i)``."""
        return i - self.rank1(i)

    def _rank0_u(self, i: int) -> int:
        return i - self._rank1_u(i)

    def select1(self, j: int) -> int:
        """Position of the ``j``-th 1-bit (``j`` counted from 1)."""
        if not 1 <= j <= self.n_ones:
            raise StructureError(
                f"select1({j}) out of range: vector has {self.n_ones} ones"
            )
        return self._select1_u(j)

    def _select1_u(self, j: int) -> int:
        """Unchecked :meth:`select1` (``1 <= j <= n_ones``)."""
        # First word whose cumulative count reaches j.
        w = bisect_left(self._cum1_i, j) - 1
        return (w << 6) + select_in_word(
            self._words_i[w], j - self._cum1_i[w]
        )

    def select0(self, j: int) -> int:
        """Position of the ``j``-th 0-bit (``j`` counted from 1)."""
        if not 1 <= j <= self.n_zeros:
            raise StructureError(
                f"select0({j}) out of range: vector has {self.n_zeros} zeros"
            )
        return self._select0_u(j)

    def _select0_u(self, j: int) -> int:
        """Unchecked :meth:`select0` (``1 <= j <= n_zeros``)."""
        w = bisect_left(self._cum0_i, j) - 1
        valid = self._n - (w << 6)
        if valid > 64:
            valid = 64
        inverted = ~self._words_i[w] & ((1 << valid) - 1)
        return (w << 6) + select_in_word(inverted, j - self._cum0_i[w])

    # ------------------------------------------------------------------
    # derived conveniences
    # ------------------------------------------------------------------
    def next_one(self, i: int) -> int | None:
        """Position of the first 1-bit at position >= ``i``, or ``None``."""
        if i >= self._n:
            return None
        r = self._rank1_u(i if i > 0 else 0)
        if r + 1 > self._cum1_i[-1]:
            return None
        return self._select1_u(r + 1)

    def rank1_range(self, lo: int, hi: int) -> int:
        """Number of 1-bits in the closed range ``[lo, hi]``."""
        if lo > hi:
            return 0
        return self.rank1(hi + 1) - self.rank1(lo)

    def to_array(self) -> np.ndarray:
        """Materialize the bits as a ``uint8`` numpy array (testing aid)."""
        if not self._n:
            return np.empty(0, dtype=np.uint8)
        weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
        expanded = (
            (self._words[:, None] & weights[None, :]) > 0
        ).astype(np.uint8)
        return expanded.reshape(-1)[: self._n]
