"""Property-test battery: BitVector / WaveletTree vs naive references.

These tests pin the *semantics* of the succinct kernel against
straightforward Python reference models, so the hot-path implementation
(lookup tables, unchecked fast paths, the per-tree memo) can be
swapped freely: the battery must pass identically before and after any
kernel change.

Edge cases exercised explicitly (beyond random generation): the empty
sequence, all-zeros, all-ones, a single-symbol alphabet (``sigma = 1``),
and lengths that are not multiples of the 64-bit word size. A
deterministic battery at the end walks the wavelet matrix's iterative
descents over word and node boundaries and over levels of one bit value
at ``sigma`` in ``{1, 2, 2^h, 2^h + 1}``, on a fresh tree (memo cold)
and on the same tree again (memo warm).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.succinct import wavelet_tree
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import StructureError

# ----------------------------------------------------------------------
# naive reference models
# ----------------------------------------------------------------------


class RefBits:
    """Reference semantics of BitVector, straight off a Python list."""

    def __init__(self, bits: list[int]) -> None:
        self.bits = list(bits)

    def rank1(self, i: int) -> int:
        return sum(self.bits[:i])

    def select1(self, j: int) -> int:
        return [p for p, b in enumerate(self.bits) if b == 1][j - 1]

    def select0(self, j: int) -> int:
        return [p for p, b in enumerate(self.bits) if b == 0][j - 1]


class RefSeq:
    """Reference semantics of WaveletTree over a Python list."""

    def __init__(self, seq: list[int]) -> None:
        self.seq = list(seq)

    def rank(self, c: int, i: int) -> int:
        return sum(1 for v in self.seq[:i] if v == c)

    def select(self, c: int, j: int) -> int:
        return [p for p, v in enumerate(self.seq) if v == c][j - 1]

    def select_next(self, c: int, start: int) -> int | None:
        hits = (p for p, v in enumerate(self.seq) if v == c and p >= start)
        return next(hits, None)

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
        assert pos + 1 - bv.rank1(pos + 1) == j
        assert bv.access(pos) == 0


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
        return
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    expected = ref.distinct_values(lo, hi)
    # distinct_values must yield increasing order, matching the set.
    assert list(wt.distinct_values(lo, hi)) == expected


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
    """Sequences whose ranges put the descents' rank arguments on every
    edge they special-case nowhere: lengths around the 64-bit word, a
    sorted sequence (a node's span at every level is a run of it, so
    positions on run boundaries are node boundaries), noise, and
    single-symbol sequences, whose levels are all zeros (``z = n``) or
    all ones (``z = 0``): the smallest symbol, a middle one, and the
    largest (the rightmost path, whose ranges all end at ``n``; at
    ``sigma = 2^h + 1`` the only symbol ``>= 2^h``).
    """
    rng = np.random.default_rng(sigma)
    for n in (63, 64, 130):
        noise = rng.integers(0, sigma, n).tolist()
        yield sorted(noise)
        yield noise
        yield [0] * n
        yield [sigma // 2] * n
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
            count = seq.count(c)  # 0 for an absent symbol
            assert wt.total_count(c) == count, (seq, c)
            for i in edges + [n]:
                assert wt.rank(c, i) == ref.rank(c, i), (seq, c, i)
            for j in range(1, count + 1):
                assert wt.select(c, j) == ref.select(c, j), (seq, c, j)
            with pytest.raises(StructureError, match=f": {count} occurrences"):
                wt.select(c, count + 1)
            # edges hold 0 and n - 1; then n and past it
            for start in [-1] + edges + [n, n + 3]:
                assert wt.select_next(c, start) == ref.select_next(
                    c, start
                ), (seq, c, start)
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


def _per_call(wt, calls):
    """Each call's answer and the ``(rank, select, range_next)`` counts
    it added, in order; a call is an entry's name and its arguments."""
    from repro.obs.trace import OpCounters

    wt.ops = ops = OpCounters()
    out = []
    for name, args in calls:
        before = ops.rank, ops.select, ops.range_next
        answer = getattr(wt, name)(*args)
        out.append((
            answer,
            ops.rank - before[0],
            ops.select - before[1],
            ops.range_next - before[2],
        ))
    wt.ops = None
    return out


def _cold_and_warm(seq, sigma, calls):
    """The calls on a fresh tree, whose memo starts empty (cold), then
    on the same tree again, every answer remembered (warm)."""
    wt = WaveletTree(seq, sigma)
    return wt, _per_call(wt, calls), _per_call(wt, calls)


@pytest.mark.parametrize("sigma", [1, 2, 8, 9])
def test_wavelet_memo_changes_no_answer_and_no_count(sigma):
    """A fresh tree and the same tree again give, call by call, the
    reference's answers and the counts of the counting rule, through
    the public entry and the unchecked one: a remembered answer counts
    as the descent it replaces."""
    for seq in _boundary_cases(sigma):
        ref = RefSeq(seq)
        edges = _edges(seq)
        queries = [
            (lo, hi, c)
            for lo in edges
            for hi in edges
            if lo <= hi
            for c in (-1, 0, sigma - 1, sigma)
        ]
        calls = [("range_next_value", q) for q in queries]
        calls += [("_range_next_value_u", q) for q in queries]
        calls += [("rank", (q[2] % sigma, q[1] + 1)) for q in queries]
        calls += [("select_next", (q[2] % sigma, q[0])) for q in queries]
        expected = [(ref.range_next_value(*q), 0, 0, 1) for q in queries] * 2
        expected += [(ref.rank(q[2] % sigma, q[1] + 1), 1, 0, 0) for q in queries]
        # select_next counts the rank of its start, and the select that
        # finds a position when there is one
        for q in queries:
            answer = ref.select_next(q[2] % sigma, q[0])
            expected.append((answer, 1, int(answer is not None), 0))
        _, cold, warm = _cold_and_warm(seq, sigma, calls)
        assert cold == warm == expected, seq


@pytest.mark.parametrize("sigma", [1, 2, 8, 9])
def test_wavelet_select_next_memo_on_boundaries(sigma):
    """``select_next`` on a fresh tree and on the same tree again: the
    reference's answers and, call by call, the same ``rank``/``select``
    counts — at starts -1, 0, ``n - 1``, ``n`` and ``n + 1`` and on every
    edge, for every symbol (absent ones, and ones whose occurrences all
    lie before ``start``), each asked twice in a row, so a remembered
    ``None`` is asked again within one sweep. A start at or past the end
    counts nothing and is not remembered."""
    none_after_an_occurrence = False
    for seq in _boundary_cases(sigma):
        ref = RefSeq(seq)
        n = len(seq)
        starts = sorted({-1, 0, n - 1, n, n + 1, *_edges(seq)})
        calls = [
            ("select_next", (c, s)) for c in range(sigma) for s in starts for _ in (0, 1)
        ]
        expected = []
        for _, (c, s) in calls:
            answer = ref.select_next(c, s)
            expected.append((answer, int(s < n), int(answer is not None), 0))
            none_after_an_occurrence |= answer is None and s < n and c in seq[:s]
        wt, cold, warm = _cold_and_warm(seq, sigma, calls)
        assert len(wt._memo_select) == len({args for _, args in calls if args[1] < n})
        assert cold == warm == expected, seq
    if sigma > 1:
        assert none_after_an_occurrence


@settings(max_examples=60, deadline=None)
@given(seq_and_sigma, st.data())
def test_wavelet_select_next_memo_property(seq_sigma, data):
    """Random sequences and random orders of ``select_next`` calls, each
    call asked at least twice: on a fresh tree and on the same tree
    again, every call gives the reference's answer and the same
    ``rank``/``select`` counts."""
    seq, sigma = seq_sigma
    n = len(seq)
    calls = data.draw(
        st.lists(
            st.tuples(st.integers(0, sigma - 1), st.integers(-2, n + 2)),
            max_size=40,
        )
    )
    calls = [("select_next", call) for call in data.draw(st.permutations(calls * 2))]
    ref = RefSeq(seq)
    expected = []
    for _, (c, s) in calls:
        answer = ref.select_next(c, s)
        expected.append((answer, int(s < n), int(answer is not None), 0))
    _, cold, warm = _cold_and_warm(seq, sigma, calls)
    assert cold == warm == expected


@pytest.mark.parametrize("sigma", [1, 2, 8, 9])
def test_wavelet_range_report_on_boundaries_with_and_without_memo(sigma):
    """``_range_values_u`` is the set of the range, ascending — which is
    what leaping through it value by value finds — on word- and
    node-boundary ranges and the empty one; a fresh tree (no memo entry
    yet) and the same tree again (every report remembered) give the
    same tuples, and every report counts as one ``range_next``.
    """
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

        reports = [tuple(sorted(set(seq[lo : hi + 1]))) for lo, hi in ranges]
        assert [leap_loop(lo, hi) for lo, hi in ranges] == reports, seq
        calls = [("_range_values_u", r) for r in ranges]
        calls += [("distinct_values", r) for r in ranges]
        expected = [(report, 0, 0, 1) for report in reports] * 2
        _, cold, warm = _cold_and_warm(seq, sigma, calls)
        cold, warm = (
            [(tuple(answer), *counts) for answer, *counts in rows]
            for rows in (cold, warm)
        )
        assert cold == warm == expected, seq


# Sequences long enough to hold a range of ``_SHORT + 1`` positions.
long_seq_and_sigma = st.integers(1, 40).flatmap(
    lambda sigma: st.tuples(
        st.lists(
            st.integers(0, sigma - 1),
            min_size=wavelet_tree._SHORT + 1,
            max_size=wavelet_tree._SHORT + 80,
        ),
        st.just(sigma),
    )
)


@settings(max_examples=60, deadline=None)
@given(long_seq_and_sigma, st.data())
def test_wavelet_seeker_matches_reference(seq_sigma, data):
    """``seeker(lo, hi)(c)`` is ``range_next_value(lo, hi, c)`` on ranges
    of 1, ``_SHORT``, ``_SHORT + 1`` and ``n`` positions and an empty
    one, for ``c`` below 0, in the alphabet and at or past ``sigma``,
    asked in increasing and in arbitrary order, on a fresh tree and on
    the same tree again; each call counts one ``range_next`` and nothing
    else, and making a seeker counts nothing."""
    from repro.obs.trace import OpCounters

    seq, sigma = seq_sigma
    n = len(seq)
    short = wavelet_tree._SHORT
    lo = data.draw(st.integers(0, n - short - 1), label="lo")
    ranges = [
        (lo, lo),
        (lo, lo + short - 1),
        (lo, lo + short),
        (0, n - 1),
        (lo + 1, lo),  # empty
    ]
    c_values = st.one_of(
        st.integers(-3, -1), st.integers(0, sigma - 1), st.integers(sigma, sigma + 3)
    )
    arbitrary = data.draw(st.lists(c_values, min_size=1, max_size=12), label="cs")
    orders = [sorted(arbitrary), arbitrary]
    ref = RefSeq(seq)
    expected = [
        ref.range_next_value(a, b, c) for a, b in ranges for cs in orders for c in cs
    ]
    wt = WaveletTree(seq, sigma)

    def sweep():
        wt.ops = ops = OpCounters()
        got = []
        for a, b in ranges:
            for cs in orders:
                seek = wt.seeker(a, b)
                assert ops.total == len(got)
                for c in cs:
                    got.append(seek(c))
                    assert ops.range_next == ops.total == len(got)
        wt.ops = None
        return got

    assert sweep() == expected  # cold
    # the short ranges were answered from their reports, the long ones
    # by descents
    assert (lo, lo + short - 1) in wt._memo_values
    assert (lo, lo + short) not in wt._memo_values
    assert sweep() == expected  # warm
