"""The "k* best results" semantics sketched in Sec. 7 (future work).

Instead of fixing ``k`` in every similarity clause, the user asks for the
``k*`` best results; the system grows ``k`` until at least ``k*``
solutions exist (or the construction-time ``K`` is exhausted), then
reports the solutions at the *smallest* such ``k`` — so the answers
involve the most similar nodes possible.

The search doubles ``k`` and then binary-searches the minimal
sufficient value, evaluating with any of the Ring engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.result import Solutions
from repro.query.model import ExtendedBGP, SimClause
from repro.utils.errors import QueryError


@dataclass
class KStarResult:
    """Outcome of a k*-best evaluation."""

    k: int
    """Smallest k at which at least ``k_star`` solutions exist (or K)."""

    solutions: Solutions
    """The solutions at that k."""

    satisfied: bool
    """Whether ``k_star`` solutions were actually reached."""

    evaluations: int
    """Number of query evaluations the search performed."""


def _with_k(query: ExtendedBGP, k: int) -> ExtendedBGP:
    """Copy of ``query`` with every similarity clause's k replaced."""
    return ExtendedBGP(
        list(query.triples),
        [SimClause(c.x, k, c.y, c.relation) for c in query.clauses],
        list(query.dist_clauses),
    )


def evaluate_k_star(
    engine: object,
    query: ExtendedBGP,
    k_star: int,
    max_k: int,
    timeout: float | None = None,
    trace: object | None = None,
) -> KStarResult:
    """Find the smallest ``k <= max_k`` yielding ``>= k_star`` solutions.

    Args:
        engine: any object with ``evaluate(query, timeout=...)`` (the
            Ring engines).
        query: template query; its clauses' ``k`` values are overridden.
        k_star: requested number of results.
        max_k: the construction-time ``K`` bound.
        timeout: per-evaluation time budget.
        trace: optional :class:`~repro.obs.trace.QueryTrace`. The search
            itself runs untraced (a single trace would smear counters
            across evaluations at different ``k``); the winning ``k`` is
            then re-evaluated once with the trace attached, and the
            search shape lands in ``trace.meta["kstar"]``.

    Returns:
        The minimal-k solutions, or the ``max_k`` solutions flagged
        ``satisfied=False`` when even ``K`` does not reach ``k_star``.
    """
    if not query.clauses:
        raise QueryError("k* semantics requires at least one <|_k clause")
    if k_star < 1:
        raise QueryError(f"k_star must be >= 1, got {k_star}")
    evaluations = 0

    def solutions_at(k: int) -> Solutions:
        nonlocal evaluations
        evaluations += 1
        return engine.evaluate(_with_k(query, k), timeout=timeout).solutions

    def traced(result: KStarResult) -> KStarResult:
        if trace is None:
            return result
        nonlocal evaluations
        evaluations += 1
        engine.evaluate(
            _with_k(query, result.k), timeout=timeout, trace=trace
        )
        trace.meta["kstar"] = {
            "k": result.k,
            "k_star": k_star,
            "max_k": max_k,
            "satisfied": result.satisfied,
            "evaluations": evaluations,
        }
        return KStarResult(
            result.k, result.solutions, result.satisfied, evaluations
        )

    # Doubling phase: find some sufficient k.
    k = 1
    best: Solutions | None = None
    while k <= max_k:
        sols = solutions_at(k)
        if len(sols) >= k_star:
            best = sols
            break
        k = min(k * 2, max_k) if k < max_k else max_k + 1
    if best is None:
        return traced(
            KStarResult(max_k, solutions_at(max_k), False, evaluations)
        )

    # Binary search the minimal sufficient k in (k/2, k].
    lo = max(1, (k // 2) + 1) if k > 1 else 1
    hi = k
    best_k = k
    while lo < hi:
        mid = (lo + hi) // 2
        sols = solutions_at(mid)
        if len(sols) >= k_star:
            best, best_k, hi = sols, mid, mid
        else:
            lo = mid + 1
    return traced(KStarResult(best_k, best, True, evaluations))
