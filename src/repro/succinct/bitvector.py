"""Static bitvector with O(1) rank and near-O(1) select.

The representation mirrors SDSL's plain ``bit_vector`` with rank/select
supports (the structures the paper's implementation uses, Sec. 5): bits
are packed into 64-bit words, and what is stored beside them is a rank
directory sampled once per 512-bit block — a 4-byte count of the ones
before each block, plus the total: 6.25 % on top of the bits, keeping
the whole index within a small constant of the information-theoretic
size, which the space experiment (Sec. 6.2) depends on.

Hot-path layout (see ``docs/performance.md``): the kernels read *word
caches* — plain Python ``list``\\ s of the words and of the ones (for
``select0``, zeros) before each word — so the per-call kernel never
unboxes a numpy scalar. The per-word counts are never stored: they are
recounted from the words (``numpy.bitwise_count``) on first touch and
held against the stored directory at every block boundary and at the
total, so a flipped bit in either is a :class:`StoreFormatError` there
and never a wrong rank. In-word select uses the precomputed 16-bit
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

from repro.succinct.fields import (
    INT,
    Array,
    Derived,
    Layout,
    LazyMirrors,
    Scalar,
)
from repro.succinct.tables import select_in_word
from repro.utils.errors import (
    StoreFormatError,
    StructureError,
    ValidationError,
)

#: Words per rank-directory block: one stored count per 512 bits.
_BLOCK_WORDS = 8


def _count_ones(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(cum1, blocks)`` of packed words: the ones before each word and
    then the total, and that table sampled at every block start (the
    total kept) — the directory a bitvector stores."""
    cum1 = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(words), dtype=np.int64, out=cum1[1:])
    return cum1, np.append(cum1[:-1:_BLOCK_WORDS], cum1[-1])


class BitVector(LazyMirrors):
    """Immutable bit sequence supporting access, rank and select."""

    LAYOUT = Layout(
        "bitvector",
        Scalar("_n"),
        Array("_words", "<u8", mirrored=True),
        Array("_blocks", INT),
        Derived("_cum1_i", "_ones_before_words"),
        Derived("_cum0_i", "_zeros_before_words"),
    )

    def __init__(self, bits: Iterable[int] | np.ndarray) -> None:
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.ndim != 1:
            raise ValidationError("bits must be one-dimensional")
        arr = arr.astype(np.uint8)
        if arr.size and arr.max() > 1:
            raise ValidationError("bits must contain only 0s and 1s")
        self._n = int(arr.size)
        packed = np.zeros(((self._n + 63) // 64) * 8, dtype=np.uint8)
        packed[: (self._n + 7) // 8] = np.packbits(arr, bitorder="little")
        self._words = packed.view("<u8")
        cum1, self._blocks = _count_ones(self._words)
        # Hot-path word caches: plain Python ints, so rank/select avoid
        # numpy scalar boxing entirely. _cum1_i[w] = set bits before
        # word w; _cum0_i, its twin for clear bits, waits for the first
        # select0.
        self._words_i: list[int] = self._words.tolist()
        self._cum1_i: list[int] = cum1.tolist()

    def _recount(self) -> np.ndarray:
        """Ones before each word, recounted from the words and held
        against the stored directory."""
        cum1, blocks = _count_ones(self._words)
        if self._words.size != (self._n + 63) >> 6 or not np.array_equal(
            blocks, self._blocks
        ):
            raise StoreFormatError(
                f"bitvector of {self._n} bits: the words and the stored "
                "rank directory disagree; the index is corrupt — rebuild "
                "it with 'repro build'"
            )
        return cum1

    def _ones_before_words(self) -> list[int]:
        cum1_i: list[int] = self._recount().tolist()
        return cum1_i

    def _zeros_before_words(self) -> list[int]:
        # Positions before word w, less its ones (padding past n is
        # not a position).
        cum1 = self._recount()
        starts = np.minimum(64 * np.arange(cum1.size, dtype=np.int64), self._n)
        cum0_i: list[int] = (starts - cum1).tolist()
        return cum0_i

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
        return np.unpackbits(
            self._words.view(np.uint8), count=self._n, bitorder="little"
        )
