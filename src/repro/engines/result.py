"""Result container returned by every engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ltj.solutions import Solutions
from repro.ltj.stats import EvaluationStats

__all__ = ["QueryResult", "Solutions"]


@dataclass
class QueryResult:
    """Solutions plus instrumentation of one query evaluation."""

    engine: str
    """Engine name: ``ring-knn``, ``ring-knn-s``, ``baseline``, ..."""

    solutions: Solutions
    """The assignments found (possibly truncated by timeout/limit): a
    sequence of ``dict[Var, int]`` over one int64 row matrix. A plain
    list of dicts passed here is packed on construction."""

    stats: EvaluationStats
    """LTJ counters (bindings, attempts, elapsed, timed_out, ...)."""

    phase_seconds: dict[str, float] = field(default_factory=dict)
    """Per-phase wall-clock breakdown (e.g. ``materialize`` vs ``query``)."""

    trace: object | None = None
    """The :class:`~repro.obs.trace.QueryTrace` passed to ``evaluate``
    (None when tracing was off)."""

    cached: bool = False
    """True when this result was served from :mod:`repro.cache` (the
    solutions and counters replay a prior cold run; ``elapsed`` is the
    retrieval time)."""

    def __post_init__(self) -> None:
        if not isinstance(self.solutions, Solutions):
            self.solutions = Solutions.from_dicts(self.solutions)

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
