"""Tests for the A_j cumulative-count arrays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.arrays import CumulativeCounts
from repro.utils.errors import ValidationError


class TestConstruction:
    def test_basic_counts(self):
        cc = CumulativeCounts([2, 0, 2, 1], alphabet_size=3)
        assert len(cc) == 4
        assert cc.count(0) == 1
        assert cc.count(1) == 1
        assert cc.count(2) == 2

    def test_values_out_of_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            CumulativeCounts([0, 5], alphabet_size=3)
        with pytest.raises(ValidationError):
            CumulativeCounts([-1], alphabet_size=3)

    def test_zero_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            CumulativeCounts([], alphabet_size=0)


class TestQueries:
    def test_before_is_strictly_smaller_count(self):
        cc = CumulativeCounts([0, 0, 1, 3, 3, 3], alphabet_size=4)
        assert cc.before(0) == 0
        assert cc.before(1) == 2
        assert cc.before(2) == 3
        assert cc.before(3) == 3
        assert cc.before(4) == 6

    def test_next_nonempty(self):
        cc = CumulativeCounts([1, 1, 4], alphabet_size=6)
        assert cc.next_nonempty(0) == 1
        assert cc.next_nonempty(1) == 1
        assert cc.next_nonempty(2) == 4
        assert cc.next_nonempty(5) is None
        assert cc.next_nonempty(6) is None

    def test_next_nonempty_negative_clamped(self):
        cc = CumulativeCounts([3], alphabet_size=5)
        assert cc.next_nonempty(-2) == 3


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=200),
    st.integers(0, 12),
)
def test_next_nonempty_matches_reference(values, start):
    cc = CumulativeCounts(values, alphabet_size=10)
    candidates = sorted(v for v in set(values) if v >= start)
    expected = candidates[0] if candidates else None
    assert cc.next_nonempty(start) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
def test_blocks_partition_rows(values):
    cc = CumulativeCounts(values, alphabet_size=10)
    total = 0
    for c in range(10):
        size = cc.before(c + 1) - cc.before(c)
        assert size == cc.count(c) == values.count(c)
        total += size
    assert total == len(values)
