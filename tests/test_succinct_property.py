"""Property-test battery: BitVector / WaveletTree vs naive references.

These tests pin the *semantics* of the succinct kernel against
straightforward Python reference models, so the hot-path implementation
(lookup tables, unchecked fast paths, per-query memoization) can be
swapped freely: the battery must pass identically before and after any
kernel change.

Edge cases exercised explicitly (beyond random generation): the empty
sequence, all-zeros, all-ones, a single-symbol alphabet (``sigma = 1``),
and lengths that are not multiples of the 64-bit word size. A
deterministic battery at the end walks the wavelet tree's iterative
descents over word and node boundaries at ``sigma`` in ``{1, 2, 2^h,
2^h + 1}``, with the per-query memo off, cold and warm.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_tree import WaveletTree

# ----------------------------------------------------------------------
# naive reference models
# ----------------------------------------------------------------------


class RefBits:
    """Reference semantics of BitVector, straight off a Python list."""

    def __init__(self, bits: list[int]) -> None:
        self.bits = list(bits)

    def rank1(self, i: int) -> int:
        return sum(self.bits[:i])

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def select1(self, j: int) -> int:
        return [p for p, b in enumerate(self.bits) if b == 1][j - 1]

    def select0(self, j: int) -> int:
        return [p for p, b in enumerate(self.bits) if b == 0][j - 1]

    def next_one(self, i: int) -> int | None:
        for p in range(max(i, 0), len(self.bits)):
            if self.bits[p]:
                return p
        return None


class RefSeq:
    """Reference semantics of WaveletTree over a Python list."""

    def __init__(self, seq: list[int]) -> None:
        self.seq = list(seq)

    def rank(self, c: int, i: int) -> int:
        return sum(1 for v in self.seq[:i] if v == c)

    def select(self, c: int, j: int) -> int:
        return [p for p, v in enumerate(self.seq) if v == c][j - 1]

    def range_next_value(self, lo: int, hi: int, c: int) -> int | None:
        window = [v for v in self.seq[lo : hi + 1] if v >= c]
        return min(window) if window else None

    def distinct_values(self, lo: int, hi: int) -> list[int]:
        return sorted(set(self.seq[lo : hi + 1]))

    def range_count(self, lo: int, hi: int, a: int, b: int) -> int:
        return sum(1 for v in self.seq[lo : hi + 1] if a <= v <= b)

    def quantile(self, lo: int, hi: int, j: int) -> int:
        return sorted(self.seq[lo : hi + 1])[j - 1]


bits_lists = st.lists(st.integers(0, 1), max_size=200)

# Sequences paired with an alphabet size at least max+1 (sigma=1 reachable
# via the all-zeros / empty cases).
seq_and_sigma = st.lists(st.integers(0, 30), max_size=150).flatmap(
    lambda seq: st.integers(
        (max(seq) + 1) if seq else 1, (max(seq) + 4) if seq else 4
    ).map(lambda sigma: (seq, sigma))
)


# ----------------------------------------------------------------------
# BitVector battery
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(bits_lists)
@example([])
@example([0] * 64)
@example([1] * 64)
@example([0] * 130)
@example([1] * 130)
@example([1, 0] * 50)
@example([0] * 63 + [1])
@example([1] + [0] * 64 + [1])
def test_bitvector_rank_select_match_reference(bits):
    bv = BitVector(bits)
    ref = RefBits(bits)
    n = len(bits)
    assert len(bv) == n
    assert bv.n_ones == sum(bits)
    assert bv.n_zeros == n - sum(bits)
    for i in range(n + 1):
        assert bv.rank1(i) == ref.rank1(i)
        assert bv.rank0(i) == ref.rank0(i)
    for i in range(n):
        assert bv.access(i) == bits[i]
    for j in range(1, bv.n_ones + 1):
        pos = bv.select1(j)
        assert pos == ref.select1(j)
        # Inverse round-trips: rank1(select1(j)) == j - 1 and the bit is set.
        assert bv.rank1(pos) == j - 1
        assert bv.rank1(pos + 1) == j
        assert bv.access(pos) == 1
    for j in range(1, bv.n_zeros + 1):
        pos = bv.select0(j)
        assert pos == ref.select0(j)
        assert bv.rank0(pos + 1) == j
        assert bv.access(pos) == 0


@settings(max_examples=60, deadline=None)
@given(bits_lists, st.integers(-2, 210))
@example([0] * 70 + [1], 70)
@example([1] + [0] * 69, 1)
def test_bitvector_next_one_matches_reference(bits, start):
    bv = BitVector(bits)
    assert bv.next_one(start) == RefBits(bits).next_one(start)


@settings(max_examples=50, deadline=None)
@given(bits_lists)
@example([])
@example([1] * 65)
def test_bitvector_iteration_and_to_array(bits):
    bv = BitVector(bits)
    arr = bv.to_array()
    assert arr.dtype == np.uint8
    assert arr.tolist() == list(bits)
    assert list(bv) == arr.tolist()


# ----------------------------------------------------------------------
# WaveletTree battery
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(seq_and_sigma)
@example(([], 1))
@example(([0] * 80, 1))
@example(([0] * 65, 3))
@example(([7] * 64, 8))
@example((list(range(16)) * 5, 16))
def test_wavelet_access_rank_select_match_reference(seq_sigma):
    seq, sigma = seq_sigma
    wt = WaveletTree(seq, sigma)
    ref = RefSeq(seq)
    n = len(seq)
    assert len(wt) == n
    assert wt.to_array().tolist() == seq
    for i in range(n):
        assert wt.access(i) == seq[i]
    for c in range(sigma):
        assert wt.total_count(c) == seq.count(c)
        for i in range(0, n + 1, max(1, n // 7)):
            assert wt.rank(c, i) == ref.rank(c, i)
        for j in range(1, seq.count(c) + 1):
            pos = wt.select(c, j)
            assert pos == ref.select(c, j)
            # Inverse round-trip through rank.
            assert wt.rank(c, pos) == j - 1
            assert wt.rank(c, pos + 1) == j


@settings(max_examples=80, deadline=None)
@given(seq_and_sigma, st.data())
def test_wavelet_range_next_value_matches_reference(seq_sigma, data):
    seq, sigma = seq_sigma
    wt = WaveletTree(seq, sigma)
    ref = RefSeq(seq)
    n = len(seq)
    if not n:
        assert wt.range_next_value(0, -1, 0) is None
        return
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    c = data.draw(st.integers(-2, sigma + 2))
    assert wt.range_next_value(lo, hi, c) == ref.range_next_value(lo, hi, c)


def test_wavelet_range_next_value_exhaustive_small_cases():
    """Every (lo, hi, c) of a few fixed sequences, incl. n % 64 != 0."""
    cases = [
        ([0, 3, 1, 3, 2, 0, 3], 4),
        ([5] * 70, 6),
        (list(range(10)) * 13, 10),  # n = 130, not a multiple of 64
    ]
    for seq, sigma in cases:
        wt = WaveletTree(seq, sigma)
        ref = RefSeq(seq)
        n = len(seq)
        for lo in range(0, n, 13):
            for hi in range(lo, n, 17):
                for c in range(-1, sigma + 1):
                    assert wt.range_next_value(
                        lo, hi, c
                    ) == ref.range_next_value(lo, hi, c)


@settings(max_examples=80, deadline=None)
@given(seq_and_sigma, st.data())
def test_wavelet_distinct_values_matches_reference(seq_sigma, data):
    seq, sigma = seq_sigma
    wt = WaveletTree(seq, sigma)
    ref = RefSeq(seq)
    n = len(seq)
    if not n:
        assert list(wt.distinct_values(0, -1)) == []
        assert wt.count_distinct(0, -1) == 0
        return
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    expected = ref.distinct_values(lo, hi)
    # distinct_values must yield increasing order, matching the set.
    assert list(wt.distinct_values(lo, hi)) == expected
    assert wt.count_distinct(lo, hi) == len(expected)
    if expected:
        cap = max(1, len(expected) - 1)
        assert wt.count_distinct(lo, hi, cap=cap) == min(cap, len(expected))


def test_wavelet_distinct_values_fixed_cases():
    for seq, sigma in [([2, 2, 0, 1, 2, 0], 3), ([0] * 64 + [1], 2)]:
        wt = WaveletTree(seq, sigma)
        ref = RefSeq(seq)
        n = len(seq)
        for lo in range(n):
            for hi in range(lo, n, 7):
                assert list(wt.distinct_values(lo, hi)) == (
                    ref.distinct_values(lo, hi)
                )


@settings(max_examples=60, deadline=None)
@given(seq_and_sigma, st.data())
def test_wavelet_range_count_and_quantile_match_reference(seq_sigma, data):
    seq, sigma = seq_sigma
    wt = WaveletTree(seq, sigma)
    ref = RefSeq(seq)
    n = len(seq)
    if not n:
        assert wt.range_count(0, -1, 0, sigma) == 0
        return
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    a = data.draw(st.integers(-1, sigma))
    b = data.draw(st.integers(a, sigma + 1))
    assert wt.range_count(lo, hi, a, b) == ref.range_count(lo, hi, a, b)
    j = data.draw(st.integers(1, hi - lo + 1))
    assert wt.quantile(lo, hi, j) == ref.quantile(lo, hi, j)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 0), min_size=1, max_size=130))
def test_wavelet_sigma_one_alphabet(seq):
    """sigma = 1: every operation degenerates but must stay consistent."""
    wt = WaveletTree(seq, 1)
    n = len(seq)
    assert wt.alphabet_size == 1
    assert wt.total_count(0) == n
    assert wt.rank(0, n) == n
    assert wt.select(0, n) == n - 1
    assert wt.range_next_value(0, n - 1, 0) == 0
    assert wt.range_next_value(0, n - 1, 1) is None
    assert list(wt.distinct_values(0, n - 1)) == [0]


# ----------------------------------------------------------------------
# boundary battery for the iterative descents
# ----------------------------------------------------------------------
def _boundary_cases(sigma: int):
    """Sequences whose spans put the descents' rank arguments on every
    edge they special-case nowhere: lengths around the 64-bit word, a
    sorted sequence (a node's span at every level is a run of it, so
    positions on run boundaries are node boundaries), the largest symbol
    alone (the rightmost path, whose spans all end at ``n``), and noise.
    """
    rng = np.random.default_rng(sigma)
    for n in (63, 64, 130):
        noise = rng.integers(0, sigma, n).tolist()
        yield sorted(noise)
        yield noise
        yield [sigma - 1] * n
        yield [0] * (n - 1) + [sigma - 1]


def _edges(seq: list[int]) -> list[int]:
    """Positions next to a word boundary or an end and, in a sorted
    sequence, next to a change of symbol."""
    n = len(seq)
    marks = {0, 1, n - 2, n - 1}
    for boundary in (64, 128):
        marks.update((boundary - 2, boundary - 1, boundary, boundary + 1))
    if seq == sorted(seq):
        for i in range(1, n):
            if seq[i] != seq[i - 1]:
                marks.update((i - 1, i))
    return sorted(m for m in marks if 0 <= m < n)


@pytest.mark.parametrize("sigma", [1, 2, 8, 9])
def test_wavelet_descents_on_word_and_node_boundaries(sigma):
    symbols = sorted({-1, 0, 1, sigma // 2, sigma - 1, sigma, sigma + 3})
    for seq in _boundary_cases(sigma):
        wt = WaveletTree(seq, sigma)
        ref = RefSeq(seq)
        n = len(seq)
        edges = _edges(seq)
        assert [wt.access(i) for i in range(n)] == seq
        for c in range(sigma):
            for i in edges + [n]:
                assert wt.rank(c, i) == ref.rank(c, i), (seq, c, i)
            for j in range(1, seq.count(c) + 1):
                assert wt.select(c, j) == ref.select(c, j), (seq, c, j)
        for lo in edges:
            for hi in edges:
                if hi < lo:
                    continue
                for c in symbols:
                    assert wt.range_next_value(
                        lo, hi, c
                    ) == ref.range_next_value(lo, hi, c), (seq, lo, hi, c)
                    for b in (c, sigma - 1, sigma + 3):
                        assert wt.range_count(
                            lo, hi, c, b
                        ) == ref.range_count(lo, hi, c, b), (seq, lo, hi, c, b)
                for j in {1, (hi - lo) // 2 + 1, hi - lo + 1}:
                    assert wt.quantile(lo, hi, j) == ref.quantile(lo, hi, j)


@pytest.mark.parametrize("sigma", [1, 2, 8, 9])
def test_wavelet_memo_changes_no_answer_and_no_count(sigma):
    """Memo off, memo cold and memo warm give the same answers and bump
    the same counters, through the public entry and the unchecked one."""
    from repro.obs.trace import OpCounters

    for seq in _boundary_cases(sigma):
        wt = WaveletTree(seq, sigma)
        ref = RefSeq(seq)
        edges = _edges(seq)
        queries = [
            (lo, hi, c)
            for lo in edges
            for hi in edges
            if lo <= hi
            for c in (-1, 0, sigma - 1, sigma)
        ]

        def sweep():
            wt.ops = OpCounters()
            got = [wt.range_next_value(*q) for q in queries]
            got += [wt._range_next_value_u(*q) for q in queries]
            got += [wt.rank(q[2] % sigma, q[1] + 1) for q in queries]
            counts = wt.ops.as_dict()
            wt.ops = None
            return got, counts

        expected = [ref.range_next_value(*q) for q in queries] * 2 + [
            ref.rank(q[2] % sigma, q[1] + 1) for q in queries
        ]
        plain = sweep()
        wt.begin_query_memo()
        cold, warm = sweep(), sweep()
        wt.end_query_memo()
        assert plain[0] == cold[0] == warm[0] == expected
        assert plain[1] == cold[1] == warm[1]
        assert plain[1]["range_next"] == 2 * len(queries)


@pytest.mark.parametrize("sigma", [1, 2, 8, 9])
def test_wavelet_range_report_on_boundaries_with_and_without_memo(sigma):
    """``_range_values_u`` is the set of the range, ascending — which is
    what leaping through it value by value finds — on word- and
    node-boundary ranges and the empty one; memo off, cold and warm
    give the same tuples, and every report counts as one ``range_next``.
    """
    from repro.obs.trace import OpCounters

    for seq in _boundary_cases(sigma):
        wt = WaveletTree(seq, sigma)
        edges = _edges(seq)
        ranges = [(lo, hi) for lo in edges for hi in edges if lo <= hi]
        ranges.append((edges[-1], edges[0] - 1))  # empty

        def leap_loop(lo, hi):
            found, c = [], 0
            while (value := wt.range_next_value(lo, hi, c)) is not None:
                found.append(value)
                c = value + 1
            return tuple(found)

        expected = [tuple(sorted(set(seq[lo : hi + 1]))) for lo, hi in ranges]
        assert [leap_loop(lo, hi) for lo, hi in ranges] == expected, seq

        def sweep():
            wt.ops = OpCounters()
            got = [wt._range_values_u(lo, hi) for lo, hi in ranges]
            got += [tuple(wt.distinct_values(lo, hi)) for lo, hi in ranges]
            counts = wt.ops.as_dict()
            wt.ops = None
            return got, counts

        plain = sweep()
        wt.begin_query_memo()
        cold, warm = sweep(), sweep()
        wt.end_query_memo()
        assert plain[0] == cold[0] == warm[0] == expected * 2, seq
        assert plain[1] == cold[1] == warm[1]
        assert plain[1]["range_next"] == plain[1]["total"] == 2 * len(ranges)
        assert wt._memo_values is None
