"""Tests for the query stopwatch and the error hierarchy."""

import time

from repro.obs.spans import Stopwatch
from repro.utils.errors import (
    QueryError,
    ReproError,
    StructureError,
    TimeoutExceeded,
    ValidationError,
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

