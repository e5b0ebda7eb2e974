"""The per-query plan: everything about a conjunction of atoms that does
not change while it is searched, resolved once.

Variables become dense int slots in order of first occurrence in the
atoms' terms, never by name: estimate ties break by slot
(:meth:`~repro.ltj.ordering.SlotState.argmin`), so a pure renaming of a
query enumerates its solutions in the same order. Per slot the
plan fixes the atoms containing it — an atom has a variable free exactly
when the search has not bound it, so nothing is ever asked of the atoms
about that — and each ``(atom, variable)`` pair owns one cell of a flat
estimate array and the seeker getter, bind, unbind and estimate that
:meth:`~repro.ltj.relation.LeapRelation.resolve` returned for it, so
the search calls them and dispatches on nothing. :meth:`JoinPlan.bind`
passes over the atoms the slot is the last free variable of (their
seeker already admitted the value and nothing will be asked of them
below; one whose only variable it is keeps no bind at all), refreshes
only the cells of the atoms it touched and recomputes ``l_x`` only for
their other variables (a bind that leaves one variable unbound may skip
even that: the next choice is forced);
:meth:`JoinPlan.unbind` puts the previous arrays back, and
:meth:`JoinPlan.reset` undoes every bind still in force. The search
loop (:mod:`repro.ltj.engine`) and the ordering strategies
(:mod:`repro.ltj.ordering`) read this state; they build none of it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ltj.ordering import SlotState
from repro.ltj.relation import (
    Binder, Estimator, LeapRelation, Resolved, SeekerGetter, Unbinder,
)
from repro.query.model import Var
from repro.utils.errors import QueryError

Atom = tuple[LeapRelation, int, int]
"""An atom as seen from one of its variables: the relation, the position
that variable has in it, and the slot mask of all the atom's
variables."""

_Refresh = tuple[int, int, list[tuple[Estimator, int]], list[int]]
"""Work a bind leaves for one neighbouring variable: its bit and slot,
the ``(estimate, cell)`` pairs to re-estimate, and all the cells its
``l_x`` is the minimum of."""


class JoinPlan:
    """Slots, per-slot atom lists and incrementally kept estimates."""

    def __init__(
        self, relations: Sequence[LeapRelation], estimate_forced: bool = True
    ) -> None:
        """With ``estimate_forced`` false, a bind that leaves one variable
        unbound leaves its ``l_x`` stale: the next choice is forced."""
        if not relations:
            raise QueryError("LTJ requires at least one relation")
        self.relations = list(relations)
        slots: dict[Var, int] = {}
        for relation in self.relations:
            for term in relation.terms:
                if isinstance(term, Var):
                    slots.setdefault(term, len(slots))
        self.atoms: list[list[Atom]] = [[] for _ in slots]
        """Per slot, the atoms containing it, in query order."""
        self.seekers: list[list[SeekerGetter]] = [[] for _ in slots]
        """Per slot, its atoms' seeker getters, parallel to :attr:`atoms`."""
        # Per slot, (mask, bind) of its atoms with another variable, and
        # (mask, unbind) in the reverse order, which they undo in.
        self._binds: list[list[tuple[int, Binder]]] = [[] for _ in slots]
        self._unbinds: list[list[tuple[int, Unbinder]]] = [[] for _ in slots]
        self._cells: list[list[int]] = [[] for _ in slots]
        self._est: list[int] = []
        edges: list[tuple[int, int]] = []
        # Per slot and neighbouring slot: the neighbour's (estimate,
        # cell) pairs in the atoms the two share.
        shared: list[dict[int, list[tuple[Estimator, int]]]] = [
            {} for _ in slots
        ]
        for relation in self.relations:
            here: list[tuple[int, int, int, Resolved]] = []
            for pos, term in enumerate(relation.terms):
                if isinstance(term, Var):
                    slot = slots[term]
                    resolved = relation.resolve(pos)
                    here.append((slot, pos, len(self._est), resolved))
                    self._cells[slot].append(len(self._est))
                    self._est.append(resolved[3]())
            mask = sum(1 << slot for slot, _pos, _cell, _res in here)
            for slot, at, _cell, (seeker, bind, unbind, _est) in here:
                self.atoms[slot].append((relation, at, mask))
                self.seekers[slot].append(seeker)
                if mask != 1 << slot:  # else never bound: see bind
                    self._binds[slot].append((mask, bind))
                    self._unbinds[slot].insert(0, (mask, unbind))
                for other, _pos, cell, resolved in here:
                    if other != slot:
                        shared[slot].setdefault(other, []).append(
                            (resolved[3], cell)
                        )
            if relation.kind != "triple" and len(here) == 2:
                x, y = here[0][0], here[1][0]
                edges.append((x, y))
                if relation.kind == "dist":
                    # Distance clauses are symmetric: both directions.
                    edges.append((y, x))
        self._refresh: list[list[_Refresh]] = [
            [
                (1 << other, other, pairs, self._cells[other])
                for other, pairs in neighbours.items()
            ]
            for neighbours in shared
        ]
        self._estimate_forced = estimate_forced
        # Per bind in force: its slot and the estimate arrays it replaced.
        self._saved: list[tuple[int, list[int], list[int]]] = []
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
        binds = self._binds[slot]
        for done, (mask, bind) in enumerate(binds, 1):
            if mask & unbound != own and not bind(value):
                for mask, unbind in self._unbinds[slot][len(binds) - done:]:
                    if mask & unbound != own:
                        unbind()
                return False
        unbound = state.unbound = unbound & ~own
        self._saved.append((slot, self._est, state.lx))
        # Nothing to re-estimate after the last variable or (unless
        # asked) before a forced last choice.
        if unbound & (unbound - 1) or unbound and self._estimate_forced:
            self._est = est = self._est[:]
            state.lx = lx = state.lx[:]
            for bit, other, pairs, cells in self._refresh[slot]:
                if unbound & bit:
                    for estimate, cell in pairs:
                        est[cell] = estimate()
                    lx[other] = min(map(est.__getitem__, cells))
        return True

    def unbind(self, slot: int) -> None:
        """Undo the innermost successful :meth:`bind`, which was of
        ``slot``."""
        state = self.state
        own = 1 << slot
        _slot, self._est, state.lx = self._saved.pop()
        unbound = state.unbound = state.unbound | own
        for mask, unbind in self._unbinds[slot]:
            if mask & unbound != own:
                unbind()

    def reset(self) -> None:
        """Undo every bind still in force, innermost first: the plan and
        its atoms are as compiled again."""
        while self._saved:
            self.unbind(self._saved[-1][0])
