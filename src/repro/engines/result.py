"""Result container returned by every engine."""

from __future__ import annotations

from repro.ltj.solutions import Solutions
from repro.ltj.stats import EvaluationStats
from repro.obs.spans import Spans
from repro.utils.record import Record

__all__ = ["QueryResult", "Solutions"]


class QueryResult(Record):
    """Solutions plus instrumentation of one query evaluation."""

    __slots__ = ("engine", "solutions", "stats", "spans", "trace", "cached")

    engine: str
    """Engine name: ``ring-knn``, ``ring-knn-s``, ``baseline``, ..."""

    solutions: Solutions
    """The assignments found (possibly truncated by timeout/limit): a
    sequence of ``dict[Var, int]`` over one int64 row matrix. A plain
    list of dicts passed here is packed on construction."""

    stats: EvaluationStats
    """LTJ counters (bindings, attempts, elapsed, timed_out, ...)."""

    spans: Spans
    """The evaluation's phases as spans (``bgp``/``postprocess``,
    ``materialize``/``query``, a cache hit's ``cache_probe``): the
    recorder of ``trace`` when the call was traced, else its own."""

    trace: object | None
    """The :class:`~repro.obs.trace.QueryTrace` passed to ``evaluate``
    (None when tracing was off)."""

    cached: bool
    """True when this result was served from :mod:`repro.cache` (the
    solutions and counters replay a prior cold run; ``elapsed`` is the
    retrieval time)."""

    def __init__(
        self,
        engine: str,
        solutions: Solutions | list,
        stats: EvaluationStats,
        spans: Spans | None = None,
        trace: object | None = None,
        cached: bool = False,
    ) -> None:
        self.engine = engine
        if not isinstance(solutions, Solutions):
            solutions = Solutions.from_dicts(solutions)
        self.solutions = solutions
        self.stats = stats
        if trace is not None:
            spans = trace.spans  # type: ignore[attr-defined]
        self.spans = Spans() if spans is None else spans
        self.trace = trace
        self.cached = cached

    @property
    def elapsed(self) -> float:
        """Total wall-clock seconds."""
        return self.stats.elapsed

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out

    def sorted_solutions(self) -> list[tuple[tuple[str, int], ...]]:
        """Canonical, order-independent form for comparing engines."""
        return sorted(
            tuple(sorted((v.name, c) for v, c in sol.items()))
            for sol in self.solutions
        )
