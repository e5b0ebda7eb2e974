"""Spans: the one clock of a traced evaluation and of a served request.

A span is ``(request id, span id, parent span id, name, start, end,
attributes)``, stamped with :func:`now`. Engines record their phases
into ``QueryResult.spans`` — the ``QueryTrace.spans`` recorder when the
call is traced (a trace document's ``phases`` are their per-name sums,
nested spans included);
the server records ``request``, ``queue``, ``evaluate`` and ``encode``
per request and counts their durations into the fixed-bucket
:class:`Histogram` s of ``/metrics``. A ``span()`` block's parent
defaults to the innermost block still open on the recorder, so an
engine's ``evaluate`` nests under the server's when they share one.
Query budgets (:class:`Stopwatch`) read the same clock: this module is
the only one in the package that reads one.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from itertools import accumulate
from typing import Iterator

from repro.utils.record import Record

#: The clock every span is stamped with.
now = time.perf_counter

#: Upper bounds (seconds) of the latency histogram's buckets, log-spaced
#: from 0.5 ms to 30 s; a last ``+Inf`` bucket takes the rest.
BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
           0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


class Stopwatch:
    """A query's time budget on the span clock; ``None`` is unlimited.

    Starts on construction; :meth:`expired` is cheap enough to be polled
    inside the LTJ main loop every few thousand steps.
    """

    def __init__(self, budget: float | None = None) -> None:
        self.budget = budget
        self.start = now()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return now() - self.start

    def expired(self) -> bool:
        """Whether the budget (if any) has been exhausted."""
        return self.budget is not None and self.elapsed() > self.budget


class Span(Record):
    __slots__ = ("request", "id", "parent", "name", "start", "end", "attrs")

    def __init__(
        self,
        request: int,
        id: int,
        parent: int | None,
        name: str,
        start: float,
        end: float | None = None,  # None while open
        attrs: dict[str, object] | None = None,
    ) -> None:
        self.request = request
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs

    @property
    def seconds(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


class Spans:
    """The spans of one request, in the order they were opened."""

    def __init__(self, request: int = 0) -> None:
        self.request = request
        self.records: list[Span] = []
        self._open: list[int] = []  # ids of the enclosing span() blocks

    @property
    def current(self) -> int | None:
        """Id of the innermost open ``span()`` block, if any."""
        return self._open[-1] if self._open else None

    def open(self, name: str, start: float | None = None,
             parent: int | None = None) -> Span:
        """Record a span that the caller closes by setting ``end``."""
        span = Span(self.request, len(self.records) + 1,
                    self.current if parent is None else parent, name,
                    now() if start is None else start)
        self.records.append(span)
        return span

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> Span:
        """Record a span whose bounds the caller already stamped."""
        span = self.open(name, start, parent)
        span.end = end
        return span

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[Span]:
        """Time a block; spans opened inside it default to its child."""
        span = self.open(name, parent=parent)
        self._open.append(span.id)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = now()

    def totals(
        self, parent: int | None = None, nested: bool = False
    ) -> dict[str, float]:
        """Seconds per name of the closed spans directly under
        ``parent`` (``None``: the top-level spans) — with ``nested``,
        of every span below it, at any depth."""
        inside = {parent}
        sums: dict[str, float] = {}
        for span in self.records:  # a parent is recorded before its children
            if span.parent in inside:
                if nested:
                    inside.add(span.id)
                if span.end is not None:
                    sums[span.name] = sums.get(span.name, 0.0) + span.seconds
        return sums


class Histogram:
    """Durations counted into the fixed :data:`BUCKETS`."""

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKETS) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        return sum(self.counts)

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(BUCKETS, seconds)] += 1
        self.sum += seconds

    def as_dict(self) -> dict[str, object]:
        """``{count, sum, buckets}``: ``buckets`` maps each ``le`` label
        to the cumulative count at or below it."""
        labels = [f"{bound:g}" for bound in BUCKETS] + ["+Inf"]
        cumulative = list(accumulate(self.counts))
        return {"count": cumulative[-1], "sum": self.sum,
                "buckets": dict(zip(labels, cumulative))}
