"""The output-size linear programs of Sec. 4.1 (Eqs. (1) and (2)).

Variables of the program: a weight ``w_i`` per triple pattern, a weight
``delta_xy`` per constraint ``x <|_k y``, and — for program (2) — a
weight ``s_xy`` per constraint, accounting for the ``Dom(x)`` predicate
that makes unsafe queries safe.

Objective (program (2))::

    minimize  sum_i w_i log N  +  sum_{x <|_k y} (delta_xy log k + s_xy log D)

subject to, for each variable ``x`` of Q::

    sum_{i : x in t_i} w_i + sum_{z <|_k x} delta_zx + sum_{x <|_k y} s_xy >= 1

and, for each *cyclic* constraint ``x <|_k y``::

    (sum_{i : x in t_i} w_i + sum_{x <|_k z} s_xz) - delta_xy >= 0

Program (1) is the special case with all ``s`` forced to 0, valid for
safe queries. ``Q* = 2^{rho*}`` bounds ``|Q(G)|`` (tightly when the
constraints are acyclic — Lemma 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bounds.constraint_graph import ConstraintGraph
from repro.query.model import ExtendedBGP, Term, is_var
from repro.utils.errors import QueryError, ValidationError


def verify_weights(
    query: ExtendedBGP, bound: "LPBound", tolerance: float = 1e-7
) -> bool:
    """Check an :class:`LPBound`'s weights against the constraints of
    program (2): per-variable cover and per-cyclic-clause restriction.

    Useful both as a test oracle and to validate externally supplied
    weight assignments (any admissible solution yields a valid — if not
    optimal — bound per the proof of Thm. 2).
    """
    graph = ConstraintGraph(query)
    for var in query.variables:
        total = 0.0
        for i, t in enumerate(query.triples):
            if var in t.variables:
                total += bound.triple_weights[i]
        for j, clause in enumerate(query.clauses):
            if is_var(clause.y) and clause.y == var:
                total += bound.delta_weights[j]
            if is_var(clause.x) and clause.x == var:
                total += bound.dom_weights[j]
        if total < 1.0 - tolerance:
            return False
    for j, clause in enumerate(query.clauses):
        if not graph.is_cyclic_constraint(clause):
            continue
        cover = 0.0
        for i, t in enumerate(query.triples):
            if clause.x in t.variables:
                cover += bound.triple_weights[i]
        for j2, other in enumerate(query.clauses):
            if is_var(other.x) and other.x == clause.x:
                cover += bound.dom_weights[j2]
        if cover - bound.delta_weights[j] < -tolerance:
            return False
    return True


#: Below this a reduced cost or pivot entry counts as zero.
_EPS = 1e-9


def _min_cover(
    costs: list[float], rows: list[list[float]], rhs: list[float]
) -> tuple[float, list[float]]:
    """Minimise ``costs . x`` subject to ``rows x >= rhs`` and ``x >= 0``.

    Solves the dual packing program ``max rhs . y`` subject to
    ``rows^T y <= costs`` and ``y >= 0`` on a dense tableau. Every cost is
    a log-size (``>= 0``), so the origin is feasible and no phase one is
    needed; Bland's rule makes degenerate pivots terminate. The primal
    weights are the final objective row's entries under the slack
    columns. Returns ``(optimum, x)``; an unbounded dual means an
    infeasible primal and raises :class:`QueryError`.
    """
    n, m = len(costs), len(rhs)
    # Tableau row j: sum_i rows[i][j] y_i + t_j = costs[j]; the columns
    # are y_0..y_{m-1}, the slacks t_0..t_{n-1}, then the right-hand side.
    tableau = [
        [row[j] for row in rows] + [float(i == j) for i in range(n)] + [costs[j]]
        for j in range(n)
    ]
    objective = [-b for b in rhs] + [0.0] * (n + 1)
    basis = list(range(m, m + n))
    while True:
        entering = next((c for c in range(m + n) if objective[c] < -_EPS), None)
        if entering is None:
            return objective[-1], [max(v, 0.0) for v in objective[m:-1]]
        ratios = [
            (tableau[r][-1] / tableau[r][entering], basis[r], r)
            for r in range(n)
            if tableau[r][entering] > _EPS
        ]
        if not ratios:
            raise QueryError("covering LP infeasible: a row no weight can cover")
        least = min(ratios)[0]
        _basic, leaving = min((b, r) for q, b, r in ratios if q <= least + _EPS)
        pivot = tableau[leaving]
        scale = pivot[entering]
        pivot[:] = [v / scale for v in pivot]
        for other in (*tableau, objective):
            factor = other[entering]
            if other is not pivot and factor:
                other[:] = [a - factor * b for a, b in zip(other, pivot)]
        basis[leaving] = entering


def _saturating_pow2(rho: float) -> float:
    """``2**rho``, or ``math.inf`` when that is not a finite float (still
    an upper bound on the output size)."""
    try:
        return 2.0**rho
    except OverflowError:
        return math.inf


@dataclass
class LPBound:
    """Solution of the size-bound linear program."""

    rho: float
    """Optimal objective value in log2 scale (``rho*(Q, N)``)."""

    triple_weights: dict[int, float]
    """``w_i`` per triple-pattern index."""

    delta_weights: dict[int, float]
    """``delta_xy`` per clause index."""

    dom_weights: dict[int, float]
    """``s_xy`` per clause index (all zero under program (1))."""

    @property
    def q_star(self) -> float:
        """The bound ``Q* = 2^{rho*}`` on the output size."""
        return _saturating_pow2(self.rho)


def solve_size_bound(
    query: ExtendedBGP, num_edges: int, domain_size: int | None = None
) -> LPBound:
    """Solve program (1) when the query is safe, else (2), over an
    ``N``-edge graph.

    Args:
        query: the extended BGP (distance clauses are not part of the
            paper's programs and are rejected).
        num_edges: ``N``.
        domain_size: ``D``, the ``Dom(x)`` size of program (2). Defaults
            to ``3N`` (the paper's ``D <= 3N``).

    Returns:
        The optimal weights and ``rho*`` (log2 scale).
    """
    if query.dist_clauses:
        raise QueryError("size bounds cover only <|_k clauses")
    if num_edges < 1:
        raise ValidationError("num_edges must be >= 1")
    if domain_size is None:
        domain_size = 3 * num_edges
    triples, clauses = query.triples, query.clauses
    n_w, n_c = len(triples), len(clauses)
    # Columns: w per triple, delta per clause, and s per clause under (2).
    n_s = 0 if query.is_safe() else n_c
    costs = (
        [math.log2(num_edges)] * n_w
        + [math.log2(max(clause.k, 1)) for clause in clauses]
        + [math.log2(max(domain_size, 2))] * n_s
    )

    def cover(x: Term, deltas: list[float]) -> list[float]:
        """The w of each triple holding ``x``, ``deltas``, and the s of
        each clause ``x <|_k z``."""
        return (
            [1.0 if x in t.variables else 0.0 for t in triples]
            + deltas
            + [1.0 if clause.x == x else 0.0 for clause in clauses[:n_s]]
        )

    rows = [
        cover(var, [1.0 if clause.y == var else 0.0 for clause in clauses])
        for var in query.variables
    ]
    rhs = [1.0] * len(rows)
    graph = ConstraintGraph(query)
    for j, clause in enumerate(clauses):
        if graph.is_cyclic_constraint(clause):
            deltas = [-1.0 if i == j else 0.0 for i in range(n_c)]
            rows.append(cover(clause.x, deltas))
            rhs.append(0.0)

    rho, x = _min_cover(costs, rows, rhs)
    return LPBound(
        rho=rho,
        triple_weights=dict(enumerate(x[:n_w])),
        delta_weights=dict(enumerate(x[n_w : n_w + n_c])),
        dom_weights=dict(enumerate(x[n_w + n_c :] or [0.0] * n_c)),
    )
