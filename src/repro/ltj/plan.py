"""The per-query plan: everything about a conjunction of atoms that does
not change while it is searched, resolved once.

Variables become dense int slots in stable query order. Per slot the
plan fixes the atoms containing it — an atom has a variable free exactly
when the search has not bound it, so nothing is ever asked of the atoms
about that — and each ``(atom, variable)`` pair owns one cell of a flat
estimate array. :meth:`JoinPlan.bind` passes over the atoms the slot is
the last free variable of (their ``leap`` already admitted the value and
nothing will be asked of them below), refreshes only the cells of the
atoms it touched and recomputes ``l_x`` only for their other variables;
:meth:`JoinPlan.unbind` puts the previous arrays back. The search loop
(:mod:`repro.ltj.engine`) and the ordering strategies
(:mod:`repro.ltj.ordering`) read this state; they build none of it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ltj.ordering import SlotState
from repro.ltj.relation import LeapRelation
from repro.query.model import Var
from repro.utils.errors import QueryError

Atom = tuple[LeapRelation, int, int]
"""An atom as seen from one of its variables: the relation, the position
that variable has in it, and the slot mask of all the atom's
variables."""

_Refresh = tuple[int, int, list[tuple[LeapRelation, int, int]], list[int]]
"""Work a bind leaves for one neighbouring variable: its bit and slot,
the ``(relation, position, cell)`` triples to re-estimate, and all the
cells its ``l_x`` is the minimum of."""


class JoinPlan:
    """Slots, per-slot atom lists and incrementally kept estimates."""

    def __init__(self, relations: Sequence[LeapRelation]) -> None:
        if not relations:
            raise QueryError("LTJ requires at least one relation")
        self.relations = list(relations)
        slots: dict[Var, int] = {}
        for relation in self.relations:
            for var in sorted(relation.variables):
                slots.setdefault(var, len(slots))
        self.atoms: list[list[Atom]] = [[] for _ in slots]
        """Per slot, the atoms containing it, in query order."""
        self._cells: list[list[int]] = [[] for _ in slots]
        self._est: list[int] = []
        edges: list[tuple[int, int]] = []
        # Per slot and neighbouring slot: the neighbour's (relation,
        # position, cell) triples in the atoms the two share.
        shared: list[dict[int, list[tuple[LeapRelation, int, int]]]] = [
            {} for _ in slots
        ]
        for relation in self.relations:
            here: list[tuple[int, int, int]] = []
            for pos, term in enumerate(relation.terms):
                if isinstance(term, Var):
                    slot = slots[term]
                    here.append((slot, pos, len(self._est)))
                    self._cells[slot].append(len(self._est))
                    self._est.append(relation.estimate(pos))
            mask = sum(1 << slot for slot, _pos, _cell in here)
            for slot, at, _cell in here:
                self.atoms[slot].append((relation, at, mask))
                for other, pos, cell in here:
                    if other != slot:
                        shared[slot].setdefault(other, []).append(
                            (relation, pos, cell)
                        )
            clause = getattr(relation, "clause", None)
            if clause is not None and len(here) == 2:
                x, y = here[0][0], here[1][0]
                edges.append((x, y))
                if not hasattr(clause, "k"):
                    # Distance clauses are symmetric: both directions.
                    edges.append((y, x))
        self._refresh: list[list[_Refresh]] = [
            [
                (1 << other, other, triples, self._cells[other])
                for other, triples in neighbours.items()
            ]
            for neighbours in shared
        ]
        self._saved: list[tuple[list[int], list[int]]] = []
        self.state = SlotState(
            variables=tuple(slots),
            lonely=sum(
                1 << slot
                for slot, atoms in enumerate(self.atoms)
                if len(atoms) == 1
            ),
            edges=tuple(edges),
            unbound=(1 << len(slots)) - 1,
            lx=[min(self.estimates(slot)) for slot in range(len(slots))],
        )

    def estimates(self, slot: int) -> list[int]:
        """The cached estimate of each atom of ``slot``, parallel to
        ``atoms[slot]``; ``l_x`` is their minimum."""
        return [self._est[cell] for cell in self._cells[slot]]

    # ------------------------------------------------------------------
    def bind(self, slot: int, value: int) -> bool:
        """Bind ``slot`` to ``value`` — a member of the intersection of
        its atoms' leaps — in every atom that keeps another variable
        free; an atom whose last free variable it is admitted ``value``
        when it was leaped and is left as it stands.

        ``False`` (some atom became empty) leaves the plan as it was.
        On ``True`` the slot is bound, and the cached estimates and
        ``l_x`` of the variables sharing an atom with it are current.
        """
        state = self.state
        own = 1 << slot
        unbound = state.unbound
        atoms = self.atoms[slot]
        for done, (relation, pos, mask) in enumerate(atoms):
            if mask & unbound != own and not relation.bind(pos, value):
                for relation, pos, mask in reversed(atoms[:done + 1]):
                    if mask & unbound != own:
                        relation.unbind(pos)
                return False
        unbound = state.unbound = unbound & ~own
        if unbound:  # the last variable leaves nothing to re-estimate
            self._saved.append((self._est, state.lx))
            self._est = est = self._est[:]
            state.lx = lx = state.lx[:]
            for bit, other, triples, cells in self._refresh[slot]:
                if unbound & bit:
                    for relation, pos, cell in triples:
                        est[cell] = relation.estimate(pos)
                    lx[other] = min([est[cell] for cell in cells])
        return True

    def unbind(self, slot: int) -> None:
        """Undo the innermost successful :meth:`bind`, which was of
        ``slot``."""
        state = self.state
        own = 1 << slot
        if state.unbound:
            self._est, state.lx = self._saved.pop()
        unbound = state.unbound = state.unbound | own
        for relation, pos, mask in reversed(self.atoms[slot]):
            if mask & unbound != own:
                relation.unbind(pos)
