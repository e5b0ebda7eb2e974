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
unboxes a numpy scalar. The per-word counts are never stored. A built
vector counts them at construction. An attached one answers its first
reads from the mapping instead (:class:`_ColdOnes`): a word is read from
the mapped words, and the ones before it are its block's stored count
plus the popcounts of the words before it in the block. Before the
vector's first read its words and directory are held to their CRC-32s
from the manifest (:func:`~repro.succinct.fields.check_sums`), a
:class:`StoreChecksumError` if either differs; an attach that skips the
checksums checks the level total there instead, with one popcount of
all its words (``int.from_bytes(words, "little").bit_count()``). Each
512-bit block is checked against the directory at that block's first
read. Once those reads have cost about what a full derivation costs —
64 reads plus one per stored block — the vector *promotes*: the word
and count lists are derived in full (``int.bit_count`` per word) and
held against the whole stored directory, as
:func:`repro.store.layout.prime` does for every vector up front. So a
flipped bit in the words or the directory is a typed error at the
vector's first read (a :class:`StoreFormatError` at the first read that
depends on it, without checksums), and never a wrong rank. None of
this needs numpy, which only a build imports.

In-word select uses ``int.bit_count`` and the 8-bit popcount/select
tables of :mod:`repro.succinct.tables`; and every public operation validates
once, then delegates to an unchecked ``_*_u`` variant that internal
callers (:class:`~repro.succinct.wavelet_tree.WaveletTree`, the Ring,
the K-NN structures) may invoke directly when their arguments are
in-range by construction.

Conventions (0-based, half-open):

* ``rank1(i)``  = number of set bits among positions ``[0, i)``.
* ``select1(j)`` = position of the ``j``-th set bit, ``j`` in ``[1, ones]``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.succinct.fields import (
    INT,
    Array,
    ColdReader,
    Derived,
    Layout,
    LazyMirrors,
    Scalar,
    Transient,
    check_sums,
)
from repro.succinct.tables import select_in_word
from repro.utils.errors import (
    StoreFormatError,
    StructureError,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Words per rank-directory block: one stored count per 512 bits.
_BLOCK_WORDS = 8


class _ColdOnes(ColdReader):
    """The ones before each word of an attached bitvector, read from the
    mapping (a :class:`~repro.succinct.fields.ColdReader`): entry ``w``
    is the stored count of its block (``w >> 3``: a block is
    ``_BLOCK_WORDS`` = 8 words) plus the popcounts of the words before
    it in the block.

    A block's counts are derived, and checked against the directory's
    next entry, at the block's first read and kept. Its budget is one
    read per directory entry: a cold read costs about 0.25 us (1.7 us
    when it checks its block), a derivation about 25 us plus 50 ns a
    word (2-core host); then the vector promotes
    (:meth:`BitVector._promote`).
    """

    __slots__ = ("_n", "_words", "_blocks", "_seen", "_size")

    def __init__(self, bv: BitVector, words: Sequence[int]) -> None:
        super().__init__(bv, len(bv._blocks))
        self._n = bv._n
        self._words = words
        self._blocks = bv._blocks
        self._seen: dict[int, tuple[int, ...]] = {}
        self._size = len(words) + 1

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        return map(self.__getitem__, range(self._size))

    def __getitem__(self, w: int) -> int:
        hot = self._hot
        if hot is not None:
            return hot[w]
        if w < 0:
            w += self._size
        counts = self._seen.get(w >> 3)
        if counts is None:
            counts = self._check(w >> 3)
        self._left -= 1
        if self._left <= 0:
            self._spent()
        return counts[w & 7]

    def _check(self, b: int) -> tuple[int, ...]:
        """Block ``b``'s count before each of its words (the last block
        only as far as its words go), held against the stored count of
        the next block."""
        blocks = self._blocks
        counts = tuple(
            accumulate(
                map(int.bit_count, self._words[b << 3 : (b + 1) << 3]),
                initial=blocks[b],
            )
        )
        if b + 1 < len(blocks) and blocks[b + 1] != counts[-1]:
            raise _disagree(self._n)
        self._seen[b] = counts
        return counts

    def _derive(self) -> list[int]:
        """Every word's count, recounted and held against the whole
        stored directory."""
        cum1 = list(accumulate(map(int.bit_count, self._words), initial=0))
        if [*cum1[:-1:_BLOCK_WORDS], cum1[-1]] != self._blocks.tolist():
            raise _disagree(self._n)
        return cum1


class _ColdZeros:
    """The zeros before each word, from a :class:`_ColdOnes` (positions
    before word ``w``, less its ones; padding past ``n`` is not a
    position)."""

    __slots__ = ("_ones", "_n")

    def __init__(self, ones: _ColdOnes) -> None:
        self._ones = ones
        self._n = ones._n

    def __len__(self) -> int:
        return len(self._ones)

    def __iter__(self) -> Iterator[int]:
        return map(self.__getitem__, range(len(self._ones)))

    def __getitem__(self, w: int) -> int:
        if w < 0:
            w += len(self._ones)
        return min(w << 6, self._n) - self._ones[w]


def _disagree(n: int) -> StoreFormatError:
    return StoreFormatError(
        f"bitvector of {n} bits: the words and the stored rank directory "
        "disagree; the index is corrupt — rebuild it with 'repro build'"
    )


class BitVector(LazyMirrors):
    """Immutable bit sequence supporting access, rank and select."""

    # ``_words_i``/``_cum1_i`` start cold after attach (the mapped words
    # and a :class:`_ColdOnes`) and are lists once the vector promotes;
    # ``_on_promote`` is what the owning wavelet tree asks to hear then.
    LAYOUT = Layout(
        "bitvector",
        Scalar("_n"),
        Array(
            "_words", "<u8",
            "words of a bitvector, which its rank directory counts",
        ),
        Array("_blocks", INT, "rank directory entries of a bitvector"),
        Derived("_words_i", "_cold_words"),
        Derived("_cum1_i", "_cold_ones"),
        Derived("_cum0_i", "_zeros_before_words"),
        Transient("_on_promote"),
        promote="_promote",
    )

    def __init__(self, bits: Iterable[int] | np.ndarray) -> None:
        import numpy as np

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
        cum1 = np.zeros(self._words.size + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(self._words), dtype=np.int64, out=cum1[1:])
        self._blocks = np.append(cum1[:-1:_BLOCK_WORDS], cum1[-1])
        # Hot-path word caches: plain Python ints, so rank/select avoid
        # numpy scalar boxing entirely. _cum1_i[w] = set bits before
        # word w; _cum0_i, its twin for clear bits, waits for the first
        # select0.
        self._words_i: Sequence[int] = self._words.tolist()
        self._cum1_i: Sequence[int] = cum1.tolist()
        self._on_promote: Callable[[], None] | None = None

    def _cold_words(self) -> Sequence[int]:
        """An attached vector's words, read from the mapping."""
        return self._words

    def _cold_ones(self) -> Sequence[int]:
        """An attached vector's :class:`_ColdOnes`, once its shape holds
        and, when the attach skipped the checksums, its level total."""
        words, blocks = self._words, self._blocks
        n_words = (self._n + 63) >> 6
        if (
            len(words) != n_words
            or len(blocks) != -(-n_words // _BLOCK_WORDS) + 1
            or (
                self._sums is None
                and int.from_bytes(words, "little").bit_count() != blocks[-1]
            )
        ):
            raise _disagree(self._n)
        return _ColdOnes(self, self._words_i)

    def _promote(self) -> None:
        """Put the word list and the full count list (its
        :class:`_ColdOnes`' checked derivation) in place of the readers,
        then tell the owner; free on a vector that has the lists."""
        ones = self._cum1_i
        if isinstance(ones, _ColdOnes):
            self._words_i = self._words.tolist()
            self._cum1_i = ones.full()
            # A cold zeros reader: the next select0 derives the list.
            vars(self).pop("_cum0_i", None)
        if self._on_promote is not None:
            self._on_promote()

    def _zeros_before_words(self) -> Sequence[int]:
        ones = self._cum1_i
        if isinstance(ones, _ColdOnes):
            return _ColdZeros(ones)
        # Positions before word w, less its ones (padding past n is
        # not a position).
        n = self._n
        return [min(w << 6, n) - c for w, c in enumerate(ones)]

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

    def to_array(self) -> np.ndarray:
        """Materialize the bits as a ``uint8`` numpy array (testing aid)."""
        import numpy as np

        check_sums(self)

        return np.unpackbits(
            np.frombuffer(self._words, dtype=np.uint8),
            count=self._n,
            bitorder="little",
        )
