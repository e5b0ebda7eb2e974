"""Output-size bounds for extended BGPs (Sec. 4 of the paper).

* :mod:`repro.bounds.constraint_graph` — the constraint graph of Def. 9,
  acyclicity and SCC analysis, cyclic-constraint detection, and the
  "single 2-cyclic" class of Def. 12.
* :mod:`repro.bounds.linear_program` — the linear programs (1) (safe
  queries) and (2) (general, with ``Dom(x)`` weights), solved by a
  stdlib covering-LP simplex; ``Q* = 2^{rho*}`` bounds ``|Q(G)|``.
* :mod:`repro.bounds.agm` — the classic AGM fractional-edge-cover bound
  for plain BGPs, for comparison (Example 4's ``N^{3/2}`` vs ``kN``).
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bounds.agm import agm_bound
    from repro.bounds.constraint_graph import ConstraintGraph
    from repro.bounds.linear_program import LPBound, solve_size_bound, verify_weights

__all__ = ["ConstraintGraph", "LPBound", "solve_size_bound", "verify_weights", "agm_bound"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "agm": ("agm_bound",),
    "constraint_graph": ("ConstraintGraph",),
    "linear_program": ("LPBound", "solve_size_bound", "verify_weights"),
})
