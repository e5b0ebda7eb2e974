"""Unit and property tests for the wavelet tree (Sec. 2.3 operations)."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct import wavelet_tree
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import StructureError, ValidationError

SEQ = [3, 1, 4, 1, 5, 2, 6, 5, 3, 5]
SIGMA = 8


@pytest.fixture(scope="module")
def wt():
    return WaveletTree(SEQ, SIGMA)


class TestConstruction:
    def test_roundtrip(self, wt):
        assert wt.to_array().tolist() == SEQ

    def test_length_and_sigma(self, wt):
        assert len(wt) == len(SEQ)
        assert wt.alphabet_size == SIGMA
        assert wt.height == 3

    def test_empty_sequence(self):
        wt = WaveletTree([], 4)
        assert len(wt) == 0
        assert wt.range_next_value(0, -1, 0) is None

    def test_single_symbol_alphabet(self):
        wt = WaveletTree([0, 0, 0], 1)
        assert wt.access(1) == 0
        assert wt.rank(0, 3) == 3
        assert wt.range_next_value(0, 2, 0) == 0

    def test_values_out_of_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            WaveletTree([0, 4], 4)

    def test_size_in_bytes_positive(self, wt):
        assert wt.size_in_bytes() > 0


class TestAccessRankSelect:
    def test_access_every_position(self, wt):
        for i, v in enumerate(SEQ):
            assert wt.access(i) == v

    def test_access_out_of_range(self, wt):
        with pytest.raises(ValidationError):
            wt.access(len(SEQ))

    def test_rank_all_symbols(self, wt):
        for c in range(SIGMA):
            for i in range(len(SEQ) + 1):
                assert wt.rank(c, i) == SEQ[:i].count(c), (c, i)

    def test_rank_range_closed(self, wt):
        assert wt.rank_range(5, 4, 9) == 3
        assert wt.rank_range(5, 5, 5) == 0
        assert wt.rank_range(5, 9, 4) == 0  # empty

    def test_select_inverse_of_rank(self, wt):
        for c in set(SEQ):
            occ = [i for i, v in enumerate(SEQ) if v == c]
            for j, pos in enumerate(occ, start=1):
                assert wt.select(c, j) == pos

    def test_select_too_large(self, wt):
        with pytest.raises(StructureError):
            wt.select(3, 3)  # only two 3s

    def test_select_next(self, wt):
        assert wt.select_next(5, 0) == 4
        assert wt.select_next(5, 5) == 7
        assert wt.select_next(5, 8) == 9
        assert wt.select_next(5, 10) is None
        assert wt.select_next(7, 0) is None

    def test_total_count(self, wt):
        assert wt.total_count(5) == 3
        assert wt.total_count(0) == 0


class TestRangeNextValue:
    def test_finds_minimum_at_or_above(self, wt):
        # SEQ[2..6] = [4, 1, 5, 2, 6]
        assert wt.range_next_value(2, 6, 0) == 1
        assert wt.range_next_value(2, 6, 3) == 4
        assert wt.range_next_value(2, 6, 5) == 5
        assert wt.range_next_value(2, 6, 6) == 6
        assert wt.range_next_value(2, 6, 7) is None

    def test_empty_range(self, wt):
        assert wt.range_next_value(5, 4, 0) is None

    def test_negative_lower_clamped(self, wt):
        assert wt.range_next_value(0, 9, -3) == 1

    def test_out_of_bounds_range_rejected(self, wt):
        with pytest.raises(ValidationError):
            wt.range_next_value(0, 10, 0)

    def test_single_position_range(self, wt):
        assert wt.range_next_value(4, 4, 0) == 5
        assert wt.range_next_value(4, 4, 6) is None


class TestDistinct:
    def test_distinct_values_sorted(self, wt):
        assert list(wt.distinct_values(0, 9)) == sorted(set(SEQ))

    def test_distinct_subrange(self, wt):
        assert list(wt.distinct_values(0, 3)) == [1, 3, 4]

    def test_distinct_empty_range(self, wt):
        assert list(wt.distinct_values(3, 2)) == []


# ----------------------------------------------------------------------
# property tests against list-based oracles
# ----------------------------------------------------------------------
sequences = st.lists(st.integers(0, 30), min_size=1, max_size=150)


@settings(max_examples=40, deadline=None)
@given(sequences)
def test_roundtrip_property(seq):
    wt = WaveletTree(seq, 31)
    assert wt.to_array().tolist() == seq


@settings(max_examples=40, deadline=None)
@given(sequences, st.integers(0, 30), st.data())
def test_rank_select_property(seq, c, data):
    wt = WaveletTree(seq, 31)
    i = data.draw(st.integers(0, len(seq)))
    assert wt.rank(c, i) == seq[:i].count(c)
    occ = [p for p, v in enumerate(seq) if v == c]
    if occ:
        j = data.draw(st.integers(1, len(occ)))
        assert wt.select(c, j) == occ[j - 1]


@settings(max_examples=60, deadline=None)
@given(sequences, st.data())
def test_range_next_value_property(seq, data):
    wt = WaveletTree(seq, 31)
    lo = data.draw(st.integers(0, len(seq) - 1))
    hi = data.draw(st.integers(lo, len(seq) - 1))
    c = data.draw(st.integers(0, 32))
    window = [v for v in seq[lo : hi + 1] if v >= c]
    expected = min(window) if window else None
    assert wt.range_next_value(lo, hi, c) == expected


@settings(max_examples=40, deadline=None)
@given(sequences, st.data())
def test_distinct_values_property(seq, data):
    wt = WaveletTree(seq, 31)
    lo = data.draw(st.integers(0, len(seq) - 1))
    hi = data.draw(st.integers(lo, len(seq) - 1))
    assert list(wt.distinct_values(lo, hi)) == sorted(set(seq[lo : hi + 1]))


class TestRangeCount:
    def test_examples(self, wt):
        # SEQ = [3, 1, 4, 1, 5, 2, 6, 5, 3, 5]
        assert wt.range_count(0, 9, 0, 7) == 10
        assert wt.range_count(0, 9, 5, 5) == 3
        assert wt.range_count(2, 6, 2, 4) == 2  # 4 and 2
        assert wt.range_count(0, 9, 7, 7) == 0
        assert wt.range_count(3, 2, 0, 7) == 0  # empty position range
        assert wt.range_count(0, 9, 5, 4) == 0  # empty value range

    def test_clamps_value_range(self, wt):
        assert wt.range_count(0, 9, -5, 100) == 10


class TestQuantile:
    def test_examples(self, wt):
        # sorted(SEQ) = [1, 1, 2, 3, 3, 4, 5, 5, 5, 6]
        full_sorted = sorted(SEQ)
        for j, value in enumerate(full_sorted, start=1):
            assert wt.quantile(0, 9, j) == value

    def test_subrange(self, wt):
        window = sorted(SEQ[2:7])
        for j, value in enumerate(window, start=1):
            assert wt.quantile(2, 6, j) == value

    def test_bad_indices(self, wt):
        import pytest as _pytest
        from repro.utils.errors import ValidationError as _VE

        with _pytest.raises(_VE):
            wt.quantile(0, 9, 0)
        with _pytest.raises(_VE):
            wt.quantile(0, 9, 11)
        with _pytest.raises(_VE):
            wt.quantile(5, 4, 1)


@settings(max_examples=40, deadline=None)
@given(sequences, st.data())
def test_range_count_property(seq, data):
    wt = WaveletTree(seq, 31)
    lo = data.draw(st.integers(0, len(seq) - 1))
    hi = data.draw(st.integers(lo, len(seq) - 1))
    a = data.draw(st.integers(0, 31))
    b = data.draw(st.integers(0, 31))
    expected = sum(1 for v in seq[lo : hi + 1] if a <= v <= b)
    assert wt.range_count(lo, hi, a, b) == expected


@settings(max_examples=40, deadline=None)
@given(sequences, st.data())
def test_quantile_property(seq, data):
    wt = WaveletTree(seq, 31)
    lo = data.draw(st.integers(0, len(seq) - 1))
    hi = data.draw(st.integers(lo, len(seq) - 1))
    j = data.draw(st.integers(1, hi - lo + 1))
    assert wt.quantile(lo, hi, j) == sorted(seq[lo : hi + 1])[j - 1]


def test_bitvector_mirrors_are_read_only_by_the_level_view():
    """Descents inline rank on each level's ``(words, cum1, z)`` view,
    bound once per tree by ``_level_view``. A bitvector mirror read
    anywhere else is an attribute chase per level that no answer or
    count shows, and a second place that decides when an attached
    tree's mirrors get built, so the source is checked instead."""
    readers = {
        function.name
        for function in ast.walk(ast.parse(inspect.getsource(wavelet_tree)))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and node.attr in ("_words_i", "_cum1_i", "_cum0_i")
    }
    assert readers == {"_level_view"}


@pytest.mark.parametrize("oversized", [False, True])
def test_range_report_memo_is_bounded_by_the_symbols_it_holds(
    oversized, monkeypatch
):
    """Reports of up to sigma symbols each would take an entry-capped
    memo far past ``_MEMO_SYMBOLS``: the memo restarts instead, so the
    symbols it holds never exceed the cap, and a fresh tree and the same
    tree again give, call by call, the reference's answers and counts. A
    report larger than the cap on its own (``oversized``) is not kept at
    all."""
    from repro.obs.trace import OpCounters

    sigma = wavelet_tree._MEMO_SYMBOLS // 4 + 3
    if oversized:
        monkeypatch.setattr(wavelet_tree, "_MEMO_SYMBOLS", sigma - 1)
    cap = wavelet_tree._MEMO_SYMBOLS
    seq = np.arange(2 * sigma) % sigma
    ranges = [(lo, lo + sigma - 1) for lo in range(0, 70, 7)]
    ranges += [(0, 2 * sigma - 1), (0, 0), (5, 9)] * 2
    assert sum(hi - lo + 1 for lo, hi in ranges) > 2 * cap
    expected = []
    for lo, hi in ranges:
        report = tuple(sorted(set(seq[lo : hi + 1].tolist())))
        seek = next((v for v in report if v >= sigma // 2), None)
        expected += [(report, 1), (seek, 1)]

    def sweep(wt):
        wt.ops = ops = OpCounters()
        got = []
        for lo, hi in ranges:
            before = ops.total
            got.append((wt._range_values_u(lo, hi), ops.total - before))
            held = sum(map(len, wt._memo_values.values()))
            assert held == wt._memo_held <= cap
            before = ops.total
            got.append((wt.seeker(lo, hi)(sigma // 2), ops.total - before))
        wt.ops = None
        return got

    memoized = WaveletTree(seq, sigma)
    assert sweep(memoized) == expected  # cold
    assert (0, 0) in memoized._memo_values
    assert ((0, 2 * sigma - 1) in memoized._memo_values) is not oversized
    assert sweep(memoized) == expected  # warm
    assert expected[0][0] == tuple(range(sigma))
