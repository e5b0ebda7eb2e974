"""Variable-ordering strategies (Secs. 4 and 5 of the paper).

All strategies are *adaptive*: :meth:`OrderingStrategy.choose` is called
once per elimination step with the current :class:`SlotState`, so "after
binding the first variable x with each value c, the next variable to
bind may differ on each Q[x -> c]" (Sec. 5).

* :class:`MinCandidatesOrdering` — the plain Ring rule used by
  **Ring-KNN-S** (Sec. 5.1): minimum ``l_x``, lonely variables last.
* :class:`ConstraintAwareOrdering` — **Ring-KNN** (Sec. 5.2): variables
  that are the target of a constraint edge between two unbound variables
  are marked not-ready; choose the unmarked variable of minimum ``l_x``
  if any exists, otherwise fall back to the marked ones. This implements
  the C-minimal rule of Sec. 4.3, since a node is C-minimal exactly when
  it has no incoming constraint edge among unbound variables.
* :class:`TopologicalOrdering` — a static topological order of the
  constraint graph (the wco recipe of Thm. 2 for acyclic constraints).
* :class:`FixedOrdering` — a user-supplied total order (tests, ablation).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.query.model import Var
from repro.utils.errors import QueryError


@dataclass(slots=True)
class SlotState:
    """What a strategy decides on: the engine's plan and search state.

    Variables are dense int *slots* in stable query order, sets of them
    are bitmasks (bit ``i`` = slot ``i``). The first three fields are
    fixed when the plan is built; the engine updates ``unbound`` and
    ``lx`` as it binds and unbinds, so consulting the state costs no
    rebuilding.
    """

    variables: tuple[Var, ...]
    """Slot -> variable."""

    lonely: int
    """Mask of variables appearing in a single atom (bound last, Sec. 5)."""

    edges: tuple[tuple[int, int], ...]
    """Static constraint edges ``x -> y`` as slot pairs: one per clause
    ``x <|_k y`` between two variables (distance clauses contribute both
    directions). An edge is *current* while both ends are unbound."""

    unbound: int
    """Mask of the variables still to eliminate."""

    lx: list[int]
    """``l_x`` per slot: min candidate-count estimate over the atoms of
    that variable (meaningful for unbound slots only)."""

    def targets(self, edges: tuple[tuple[int, int], ...]) -> int:
        """Mask of the ``y`` ends of the ``edges`` that are current."""
        unbound = self.unbound
        marked = 0
        for x, y in edges:
            if unbound >> x & 1 and unbound >> y & 1:
                marked |= 1 << y
        return marked

    def regular(self) -> int:
        """The pool to choose from: non-lonely unbound variables, or the
        lonely ones once nothing else is left."""
        return self.unbound & ~self.lonely or self.unbound

    def argmin(self, pool: int) -> int:
        """Slot of ``pool`` with the smallest ``l_x``; ties go to the
        earliest in query order."""
        lx = self.lx
        best = -1
        for slot in range(pool.bit_length()):
            if pool >> slot & 1 and (best < 0 or lx[slot] < lx[best]):
                best = slot
        return best


class OrderingStrategy(abc.ABC):
    """Strategy deciding the next variable to eliminate."""

    def prepare(self, variables: tuple[Var, ...]) -> None:
        """Called once per plan, before any :meth:`choose`: strategies
        configured with ``Var`` objects translate them to slots here."""

    @abc.abstractmethod
    def choose(self, state: SlotState) -> int:
        """Pick the next slot among ``state.unbound`` (non-empty)."""

    def describe(self, state: SlotState, chosen: int) -> str:
        """Why :meth:`choose` picked ``chosen`` (for query traces).

        Only called when tracing is on, so subclasses may recompute
        cheap classification work here instead of threading it out of
        :meth:`choose`.
        """
        parts = [f"l_x={state.lx[chosen]}"]
        if state.lonely >> chosen & 1:
            parts.append("lonely (all regular variables bound)")
        return "; ".join(parts)


class MinCandidatesOrdering(OrderingStrategy):
    """Adaptive min-``l_x`` with lonely variables last (Ring-KNN-S)."""

    def choose(self, state: SlotState) -> int:
        return state.argmin(state.regular())

    def describe(self, state: SlotState, chosen: int) -> str:
        base = super().describe(state, chosen)
        return f"min-l_x (unrestricted): {base}"


class ConstraintAwareOrdering(OrderingStrategy):
    """Ring-KNN: prefer variables without incoming constraint edges.

    Following Sec. 5.2, at each step the targets of the current
    constraint edges are marked not-ready; the unmarked non-lonely
    variable of minimum ``l_x`` is chosen if one exists, otherwise the
    marked non-lonely minimum, with lonely variables still last.
    """

    def choose(self, state: SlotState) -> int:
        pool = state.regular()
        return state.argmin(pool & ~state.targets(state.edges) or pool)

    def describe(self, state: SlotState, chosen: int) -> str:
        marked = state.targets(state.edges)
        base = super().describe(state, chosen)
        if marked >> chosen & 1:
            return (
                f"constraint-aware: {base}; constraint target chosen "
                "(every candidate is a target)"
            )
        if marked:
            skipped = ", ".join(sorted(
                v.name
                for slot, v in enumerate(state.variables)
                if marked >> slot & 1
            ))
            return f"constraint-aware: {base}; targets deferred: {skipped}"
        return f"constraint-aware: {base}; no unresolved constraint edges"


class TopologicalOrdering(OrderingStrategy):
    """Static topological order over the *initial* constraint graph.

    This is the recipe of Thm. 2: on acyclic constraint graphs,
    eliminating variables in topological order yields wco time. Within a
    topological "layer" the adaptive min-``l_x`` tie-break is still used;
    lonely variables go last. Raises on construction if the constraint
    graph has a cycle.
    """

    def __init__(self, edges: list[tuple[Var, Var]]) -> None:
        self._edges = tuple(edges)
        self._slot_edges: tuple[tuple[int, int], ...] = ()
        # Kahn's algorithm to verify acyclicity once.
        nodes = {v for edge in edges for v in edge}
        indeg = {v: 0 for v in sorted(nodes, key=lambda u: u.name)}
        for _x, y in edges:
            indeg[y] += 1
        frontier = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while frontier:
            node = frontier.pop()
            seen += 1
            for x, y in edges:
                if x == node:
                    indeg[y] -= 1
                    if indeg[y] == 0:
                        frontier.append(y)
        if seen != len(nodes):
            raise QueryError(
                "TopologicalOrdering requires an acyclic constraint graph"
            )

    def prepare(self, variables: tuple[Var, ...]) -> None:
        self._slot_edges = tuple(
            (variables.index(x), variables.index(y))
            for x, y in self._edges
            if x in variables and y in variables
        )

    def choose(self, state: SlotState) -> int:
        pool = state.regular()
        # `or pool` is unreachable for acyclic graphs: some node of the
        # pool always has no unbound predecessor.
        return state.argmin(pool & ~state.targets(self._slot_edges) or pool)


class FixedOrdering(OrderingStrategy):
    """Eliminate variables in a caller-supplied total order."""

    def __init__(self, order: list[Var] | tuple[Var, ...]) -> None:
        self._order = tuple(order)
        self._slots: tuple[int, ...] = ()

    def prepare(self, variables: tuple[Var, ...]) -> None:
        self._slots = tuple(
            variables.index(v) for v in self._order if v in variables
        )

    def choose(self, state: SlotState) -> int:
        for slot in self._slots:
            if state.unbound >> slot & 1:
                return slot
        left = tuple(
            v for slot, v in enumerate(state.variables)
            if state.unbound >> slot & 1
        )
        raise QueryError(
            f"fixed order {self._order!r} does not cover {left!r}"
        )
