"""Instrumentation collected during one query evaluation.

The figures of Sec. 6 need more than wall-clock time: the number of
variable eliminations (the quantity the wco bounds constrain), whether
the run timed out, and where in the elimination order the first
similarity-involved variable was bound (the "36% vs 68%" statistic of
the Q1b discussion).
"""

from __future__ import annotations

from repro.query.model import Var
from repro.utils.record import Record


class EvaluationStats(Record):
    """Counters filled in by :class:`~repro.ltj.engine.LTJEngine`."""

    __slots__ = (
        "solutions",
        "bindings",
        "attempts",
        "leap_calls",
        "elapsed",
        "timed_out",
        "first_descent_order",
        "sim_variables",
    )

    solutions: int
    """Number of solutions enumerated."""

    bindings: int
    """Successful variable bindings (eliminations) performed."""

    attempts: int
    """Candidate values produced by leapfrog intersections (>= bindings)."""

    leap_calls: int
    """Individual ``leap`` calls issued to relations."""

    elapsed: float
    """Wall-clock seconds for the evaluation."""

    timed_out: bool
    """Whether the time budget expired before exhausting the search."""

    first_descent_order: list[Var]
    """Variables in the order chosen along the first root-to-leaf branch."""

    sim_variables: frozenset[Var]
    """Variables involved in similarity or distance clauses."""

    def __init__(
        self,
        solutions: int = 0,
        bindings: int = 0,
        attempts: int = 0,
        leap_calls: int = 0,
        elapsed: float = 0.0,
        timed_out: bool = False,
        first_descent_order: list[Var] | None = None,
        sim_variables: frozenset[Var] = frozenset(),
    ) -> None:
        self.solutions = solutions
        self.bindings = bindings
        self.attempts = attempts
        self.leap_calls = leap_calls
        self.elapsed = elapsed
        self.timed_out = timed_out
        self.first_descent_order = (
            [] if first_descent_order is None else first_descent_order
        )
        self.sim_variables = sim_variables

    @property
    def first_sim_bind_fraction(self) -> float | None:
        """Fraction of variables processed before the first similarity
        variable is bound, on the first descent (0.0 = bound first).

        ``None`` when the query has no similarity variables or the first
        descent never reached one.
        """
        if not self.sim_variables or not self.first_descent_order:
            return None
        total = len(self.first_descent_order)
        for position, var in enumerate(self.first_descent_order):
            if var in self.sim_variables:
                return position / total
        return None
