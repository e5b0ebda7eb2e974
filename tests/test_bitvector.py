"""Unit and property tests for the rank/select bitvector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.bitvector import BitVector
from repro.utils.errors import StructureError, ValidationError


class TestBasics:
    def test_length_and_access(self):
        bv = BitVector([1, 0, 1, 1, 0])
        assert len(bv) == 5
        assert [bv.access(i) for i in range(5)] == [1, 0, 1, 1, 0]

    def test_iteration_matches_access(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        bv = BitVector(bits)
        assert list(bv) == bits

    def test_counts(self):
        bv = BitVector([1, 0, 1, 1, 0])
        assert bv.n_ones == 3
        assert bv.n_zeros == 2

    def test_empty_vector(self):
        bv = BitVector([])
        assert len(bv) == 0
        assert bv.n_ones == 0
        assert bv.rank1(0) == 0

    def test_all_ones(self):
        bv = BitVector([1] * 100)
        assert bv.rank1(100) == 100
        assert bv.select1(100) == 99

    def test_all_zeros(self):
        bv = BitVector([0] * 100)
        assert bv.rank1(100) == 0
        assert bv.select0(1) == 0

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            BitVector([0, 2, 1])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            BitVector(np.zeros((2, 2)))

    def test_to_array_roundtrip(self):
        bits = np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
        assert np.array_equal(BitVector(bits).to_array(), bits)

    def test_size_in_bytes_positive(self):
        assert BitVector([1, 0, 1]).size_in_bytes() > 0

    def test_size_in_bytes_is_words_plus_block_directory(self):
        # 1000 bits: 16 words of 8 bytes, 2 block starts + the total
        # at 4 bytes each.
        assert BitVector([1, 0] * 500).size_in_bytes() == 16 * 8 + 3 * 4

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 511, 512, 513, 1000])
    def test_packing_matches_the_multiply_and_sum_reference(self, n):
        bits = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
        bv = BitVector(bits)
        n_words = (n + 63) // 64
        padded = np.zeros(n_words * 64, dtype=np.uint8)
        padded[:n] = bits
        rows = padded.reshape(n_words, 64)
        weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
        words = (rows.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
        cum1 = np.concatenate(([0], np.cumsum(rows.sum(axis=1, dtype=np.int64))))
        assert bv._words.dtype == np.uint64
        assert np.array_equal(bv._words, words)
        assert bv._cum1_i == cum1.tolist()
        assert bv._blocks.tolist() == cum1[:-1:8].tolist() + [int(cum1[-1])]
        assert "_cum0_i" not in vars(bv)  # waits for the first select0
        starts = np.minimum(64 * np.arange(n_words + 1), n)
        assert bv._cum0_i == (starts - cum1).tolist()


class TestRank:
    def test_rank1_prefixes(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        bv = BitVector(bits)
        for i in range(len(bits) + 1):
            assert bv.rank1(i) == sum(bits[:i])

    def test_rank_across_word_boundary(self):
        bits = [1] * 63 + [0] + [1] * 63 + [0, 1]
        bv = BitVector(bits)
        assert bv.rank1(63) == 63
        assert bv.rank1(64) == 63
        assert bv.rank1(127) == 126
        assert bv.rank1(129) == 127

    def test_rank_out_of_range(self):
        bv = BitVector([1, 0])
        with pytest.raises(ValidationError):
            bv.rank1(3)
        with pytest.raises(ValidationError):
            bv.rank1(-1)


class TestSelect:
    def test_select1_positions(self):
        bv = BitVector([0, 1, 0, 1, 1])
        assert bv.select1(1) == 1
        assert bv.select1(2) == 3
        assert bv.select1(3) == 4

    def test_select0_positions(self):
        bv = BitVector([0, 1, 0, 1, 1])
        assert bv.select0(1) == 0
        assert bv.select0(2) == 2

    def test_select_out_of_range(self):
        bv = BitVector([0, 1])
        with pytest.raises(StructureError):
            bv.select1(2)
        with pytest.raises(StructureError):
            bv.select1(0)
        with pytest.raises(StructureError):
            bv.select0(2)

    def test_rank_select_inverse(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 500)
        bv = BitVector(bits)
        for j in range(1, bv.n_ones + 1):
            assert bv.rank1(bv.select1(j)) == j - 1
            assert bv.access(bv.select1(j)) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_rank_matches_reference(bits):
    bv = BitVector(bits)
    prefix = 0
    for i, b in enumerate(bits):
        assert bv.rank1(i) == prefix
        prefix += b
    assert bv.rank1(len(bits)) == prefix


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_select_matches_reference(bits):
    bv = BitVector(bits)
    ones = [i for i, b in enumerate(bits) if b]
    zeros = [i for i, b in enumerate(bits) if not b]
    for j, pos in enumerate(ones, start=1):
        assert bv.select1(j) == pos
    for j, pos in enumerate(zeros, start=1):
        assert bv.select0(j) == pos


class TestWordBoundarySelect:
    """select0/select1 when ``j`` lands exactly on a per-word cumulative
    count (the binary search over ``_cum`` must pick the right word)."""

    def test_select1_at_exact_word_cumulative(self):
        # Word 0: 64 ones; word 1: 64 zeros; word 2: a single one.
        bits = [1] * 64 + [0] * 64 + [1]
        bv = BitVector(bits)
        assert bv.select1(64) == 63    # j == _cum1[1]: last one of word 0
        assert bv.select1(65) == 128   # j == _cum1[3]: the one in word 2
        assert bv.select0(64) == 127   # j == cumulative zeros after word 1

    def test_select1_word_with_zero_ones_skipped(self):
        # Word 1 contributes no ones: the cumulative array has a plateau
        # and the search must not land inside it.
        bits = [1] * 64 + [0] * 64 + [1] * 64
        bv = BitVector(bits)
        assert bv.select1(64) == 63
        assert bv.select1(65) == 128
        assert bv.select1(128) == 191

    def test_select0_word_with_zero_zeros_skipped(self):
        bits = [0] * 64 + [1] * 64 + [0] * 64
        bv = BitVector(bits)
        assert bv.select0(64) == 63
        assert bv.select0(65) == 128
        assert bv.select0(128) == 191

    def test_select0_ignores_padding_past_n(self):
        # n = 70: the last word has 58 padding bits that must never be
        # reported as zeros.
        bits = [1] * 70
        bv = BitVector(bits)
        assert bv.n_zeros == 0
        with pytest.raises(StructureError):
            bv.select0(1)
        bits = [1] * 69 + [0]
        bv = BitVector(bits)
        assert bv.n_zeros == 1
        assert bv.select0(1) == 69
        with pytest.raises(StructureError):
            bv.select0(2)

    def test_select_single_bit_last_position_of_word(self):
        bits = [0] * 63 + [1]
        bv = BitVector(bits)
        assert bv.select1(1) == 63
        assert bv.select0(63) == 62


def test_iteration_equals_to_array_tolist():
    rng = np.random.default_rng(11)
    for n in (0, 1, 63, 64, 65, 200):
        bits = rng.integers(0, 2, n)
        bv = BitVector(bits)
        assert list(bv) == bv.to_array().tolist()


def test_word_tables_match_a_per_bit_reference():
    """The 8-bit popcount and packed-select tables, against the bits of
    every byte read one at a time."""
    from repro.succinct.tables import POPCOUNT8, SELECT8

    assert len(POPCOUNT8) == len(SELECT8) == 1 << 8
    for word in range(1 << 8):
        ones = [bit for bit in range(8) if word >> bit & 1]
        assert POPCOUNT8[word] == len(ones), word
        assert SELECT8[word] == sum(
            bit << (4 * j) for j, bit in enumerate(ones)
        ), word


def _select_words():
    """Random dense and sparse 64-bit words, every single-bit word and
    the all-ones word."""
    rng = np.random.default_rng(5)
    for density in (0.03, 0.2, 0.5, 0.8, 0.97):
        for _ in range(100):
            bits = np.flatnonzero(rng.random(64) < density)
            yield sum(1 << int(b) for b in bits)
    yield from (1 << p for p in range(64))
    yield (1 << 64) - 1


def test_select_in_word_matches_a_per_bit_reference():
    """``select_in_word`` answers every ``need`` of each word with the
    position of that set bit, counted one bit at a time."""
    from repro.succinct.tables import select_in_word

    for word in _select_words():
        ones = [bit for bit in range(64) if word >> bit & 1]
        got = [select_in_word(word, need) for need in range(1, len(ones) + 1)]
        assert got == ones, hex(word)
