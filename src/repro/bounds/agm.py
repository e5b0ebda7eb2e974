"""The classic AGM bound for plain BGPs (Atserias-Grohe-Marx).

The fractional edge-cover LP: minimize ``sum_i w_i log |t_i|`` subject
to ``sum_{i : x in t_i} w_i >= 1`` for every variable. ``2^{rho}`` is
the maximum output size over instances of the given sizes. Used for
Example 4-style comparisons: treating a similarity clause as an opaque
``N``-sized relation yields ``O(N^{3/2})`` on the triangle query, while
the degree-aware program of Sec. 4.1 yields ``O(kN)``.
"""

from __future__ import annotations

import math

from repro.query.model import ExtendedBGP
from repro.utils.errors import QueryError, ValidationError


def agm_bound(
    query: ExtendedBGP,
    num_edges: int,
    pattern_cardinalities: list[int] | None = None,
    clause_cardinalities: list[int] | None = None,
) -> float:
    """The AGM bound ``2^{rho}`` of a query, in number of tuples.

    Similarity clauses are treated as opaque binary relations: their
    cardinality defaults to ``num_edges`` (the "virtual relation
    kNN(x, z)" reading of Example 4 before degree constraints are taken
    into account); pass ``clause_cardinalities`` to override (e.g.
    ``k * n`` per clause).
    """
    import numpy as np

    if num_edges < 1:
        raise ValidationError("num_edges must be >= 1")
    atoms: list[tuple[tuple, float]] = []
    if pattern_cardinalities is None:
        pattern_cardinalities = [num_edges] * len(query.triples)
    if len(pattern_cardinalities) != len(query.triples):
        raise ValidationError("pattern_cardinalities must match the triples")
    for t, size in zip(query.triples, pattern_cardinalities):
        atoms.append((t.variables, math.log2(max(size, 1))))
    if clause_cardinalities is None:
        clause_cardinalities = [num_edges] * len(query.clauses)
    if len(clause_cardinalities) != len(query.clauses):
        raise ValidationError("clause_cardinalities must match the clauses")
    for c, size in zip(query.clauses, clause_cardinalities):
        atoms.append((c.variables, math.log2(max(size, 1))))

    variables = query.variables
    if not variables:
        return 1.0
    n_atoms = len(atoms)
    objective = np.array([cost for _vars, cost in atoms])
    rows = []
    for var in variables:
        row = np.zeros(n_atoms)
        covered = False
        for idx, (atom_vars, _cost) in enumerate(atoms):
            if var in atom_vars:
                row[idx] = 1.0
                covered = True
        if not covered:
            raise QueryError(f"variable {var!r} occurs in no atom")
        rows.append(-row)
    # Imported here: only explain and the experiments solve an LP, and
    # scipy.optimize is most of what a query process would pay to import.
    from scipy.optimize import linprog

    result = linprog(
        c=objective,
        A_ub=np.array(rows),
        b_ub=np.full(len(rows), -1.0),
        bounds=[(0, None)] * n_atoms,
        method="highs",
    )
    if not result.success:
        raise QueryError(f"AGM LP failed: {result.message}")
    return float(2.0**result.fun)
