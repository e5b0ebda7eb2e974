"""Extended basic graph patterns (Def. 5 of the paper).

An :class:`ExtendedBGP` is a set of triple patterns over constants and
variables plus zero or more similarity clauses ``x <|_k y`` ("y is among
the k nearest neighbors of x"). The symmetric operator ``x ~_k y`` is
sugar for the conjunction of both directions and is expanded at
construction time, exactly as in Sec. 3.1.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.query.model import (
        DistClause, ExtendedBGP, SimClause, TriplePattern, Var, is_var, sym_clauses,
    )
    from repro.query.parser import parse_query
    from repro.query.rewrite import UndirectedSim, orient_clauses, symmetric_to_directed

__all__ = [
    "Var", "is_var", "TriplePattern", "SimClause", "DistClause", "sym_clauses",
    "ExtendedBGP", "parse_query", "UndirectedSim", "orient_clauses",
    "symmetric_to_directed",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "model": (
        "DistClause", "ExtendedBGP", "SimClause", "TriplePattern", "Var", "is_var",
        "sym_clauses",
    ),
    "parser": ("parse_query",),
    "rewrite": ("UndirectedSim", "orient_clauses", "symmetric_to_directed"),
})
