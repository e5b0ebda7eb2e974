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

import numpy as np

from repro.bounds.constraint_graph import ConstraintGraph
from repro.query.model import ExtendedBGP, Var, is_var
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
        return 2.0**self.rho


def solve_size_bound(
    query: ExtendedBGP,
    num_edges: int,
    domain_size: int | None = None,
    pattern_cardinalities: list[int] | None = None,
    program: str = "auto",
) -> LPBound:
    """Solve program (1) or (2) for a query over an ``N``-edge graph.

    Args:
        query: the extended BGP (distance clauses are not part of the
            paper's programs and are rejected).
        num_edges: ``N``.
        domain_size: ``D``; required for program (2). Defaults to ``3N``
            (the paper's ``D <= 3N``).
        pattern_cardinalities: optional per-triple-pattern sizes
            ``|t_i|`` for the sharper instance-specific bound used in the
            proofs of Thms. 2-3; defaults to ``N`` for every pattern.
        program: ``"1"`` (safe queries only), ``"2"``, or ``"auto"``
            (program (1) when the query is safe, else (2)).

    Returns:
        The optimal weights and ``rho*`` (log2 scale).
    """
    if query.dist_clauses:
        raise QueryError("size bounds cover only <|_k clauses")
    if num_edges < 1:
        raise ValidationError("num_edges must be >= 1")
    if domain_size is None:
        domain_size = 3 * num_edges
    safe = query.is_safe()
    if program == "auto":
        program = "1" if safe else "2"
    if program == "1" and not safe:
        raise QueryError("program (1) requires a safe query (Sec. 4.1)")
    if program not in ("1", "2"):
        raise ValidationError(f"unknown program {program!r}")
    allow_dom = program == "2"

    triples = query.triples
    clauses = query.clauses
    if pattern_cardinalities is None:
        pattern_cardinalities = [num_edges] * len(triples)
    if len(pattern_cardinalities) != len(triples):
        raise ValidationError("pattern_cardinalities must match the triples")

    graph = ConstraintGraph(query)

    # LP variable layout: [w_0..w_{M-1}, delta_0..delta_{C-1}, s_0..s_{C-1}]
    n_w = len(triples)
    n_c = len(clauses)
    n_vars = n_w + (2 if allow_dom else 1) * n_c

    def w_idx(i: int) -> int:
        return i

    def d_idx(j: int) -> int:
        return n_w + j

    def s_idx(j: int) -> int:
        return n_w + n_c + j

    objective = np.zeros(n_vars)
    for i, size in enumerate(pattern_cardinalities):
        objective[w_idx(i)] = math.log2(max(size, 1))
    for j, clause in enumerate(clauses):
        objective[d_idx(j)] = math.log2(max(clause.k, 1))
        if allow_dom:
            objective[s_idx(j)] = math.log2(max(domain_size, 2))

    # scipy's linprog uses A_ub @ x <= b_ub; our constraints are >=.
    rows: list[np.ndarray] = []
    rhs: list[float] = []

    # Cover constraint per variable.
    for var in query.variables:
        row = np.zeros(n_vars)
        for i, t in enumerate(triples):
            if var in t.variables:
                row[w_idx(i)] = 1.0
        for j, clause in enumerate(clauses):
            if is_var(clause.y) and clause.y == var:
                row[d_idx(j)] = 1.0
            if allow_dom and is_var(clause.x) and clause.x == var:
                row[s_idx(j)] = 1.0
        rows.append(-row)
        rhs.append(-1.0)

    # Cyclic-constraint restriction per cyclic clause.
    for j, clause in enumerate(clauses):
        if not graph.is_cyclic_constraint(clause):
            continue
        row = np.zeros(n_vars)
        for i, t in enumerate(triples):
            if clause.x in t.variables:
                row[w_idx(i)] = 1.0
        if allow_dom:
            for j2, other in enumerate(clauses):
                if is_var(other.x) and other.x == clause.x:
                    row[s_idx(j2)] = 1.0
        row[d_idx(j)] -= 1.0
        rows.append(-row)
        rhs.append(0.0)

    # Imported here: only explain and the experiments solve an LP, and
    # scipy.optimize is most of what a query process would pay to import.
    from scipy.optimize import linprog

    result = linprog(
        c=objective,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rhs else None,
        bounds=[(0, None)] * n_vars,
        method="highs",
    )
    if not result.success:
        raise QueryError(
            f"size-bound LP infeasible or failed: {result.message} "
            "(an unsafe query under program (1)?)"
        )
    x = result.x
    return LPBound(
        rho=float(result.fun),
        triple_weights={i: float(x[w_idx(i)]) for i in range(n_w)},
        delta_weights={j: float(x[d_idx(j)]) for j in range(n_c)},
        dom_weights=(
            {j: float(x[s_idx(j)]) for j in range(n_c)}
            if allow_dom
            else {j: 0.0 for j in range(n_c)}
        ),
    )
