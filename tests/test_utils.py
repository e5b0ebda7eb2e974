"""Tests for timing, validation helpers, and the error hierarchy."""

import time

import pytest

from repro.obs.spans import Stopwatch
from repro.utils.errors import (
    QueryError,
    ReproError,
    StructureError,
    TimeoutExceeded,
    ValidationError,
)
from repro.utils.validation import (
    check_index,
    check_nonnegative,
    check_positive,
    check_range,
)


class TestErrors:
    def test_hierarchy(self):
        for exc in (StructureError, QueryError, ValidationError, TimeoutExceeded):
            assert issubclass(exc, ReproError)

    def test_timeout_payload(self):
        err = TimeoutExceeded(1.5, partial_count=7)
        assert err.elapsed == 1.5
        assert err.partial_count == 7
        assert "1.500" in str(err)


class TestStopwatch:
    def test_unlimited_never_expires(self):
        sw = Stopwatch()
        assert not sw.expired()

    def test_expiry(self):
        sw = Stopwatch(budget=0.0)
        time.sleep(0.001)
        assert sw.expired()

    def test_restart(self):
        sw = Stopwatch(budget=100.0)
        time.sleep(0.001)
        first = sw.elapsed()
        sw.restart()
        assert sw.elapsed() < first


class TestValidation:
    def test_check_positive(self):
        assert check_positive("n", 3) == 3
        with pytest.raises(ValidationError):
            check_positive("n", 0)
        with pytest.raises(ValidationError):
            check_positive("n", True)
        with pytest.raises(ValidationError):
            check_positive("n", 1.5)

    def test_check_nonnegative(self):
        assert check_nonnegative("n", 0) == 0
        with pytest.raises(ValidationError):
            check_nonnegative("n", -1)

    def test_check_index(self):
        assert check_index("i", 2, 3) == 2
        with pytest.raises(ValidationError):
            check_index("i", 3, 3)

    def test_check_range(self):
        assert check_range("r", 1, 2, 5) == (1, 2)
        assert check_range("r", 3, 2, 5) == (3, 2)  # empty allowed
        with pytest.raises(ValidationError):
            check_range("r", -1, 2, 5)
        with pytest.raises(ValidationError):
            check_range("r", 0, 5, 5)
