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

from repro.bounds.linear_program import _min_cover, _saturating_pow2
from repro.query.model import ExtendedBGP
from repro.utils.errors import QueryError, ValidationError


def agm_bound(query: ExtendedBGP, num_edges: int) -> float:
    """The AGM bound ``2^{rho}`` of a query, in number of tuples.

    Every triple pattern and similarity clause is an ``N``-tuple
    relation: a clause is the opaque "virtual relation kNN(x, z)" of
    Example 4, before degree constraints are taken into account.
    """
    if num_edges < 1:
        raise ValidationError("num_edges must be >= 1")
    atoms = [*query.triples, *query.clauses]
    rows: list[list[float]] = []
    for var in query.variables:
        row = [1.0 if var in atom.variables else 0.0 for atom in atoms]
        if not any(row):
            raise QueryError(f"variable {var!r} occurs in no atom")
        rows.append(row)
    costs = [math.log2(num_edges)] * len(atoms)
    rho, _weights = _min_cover(costs, rows, [1.0] * len(rows))
    return _saturating_pow2(rho)
