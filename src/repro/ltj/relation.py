"""The relation interface consumed by the LTJ engine.

Every atom of an extended BGP (triple pattern, ``x <|_k y`` clause,
``dist(x, y) <= d`` clause) is wrapped in a :class:`LeapRelation`. The
engine only ever calls the methods below, so adding new atom kinds
(as Sec. 7 of the paper envisions) means writing one more adapter.

Variables are addressed by *position*: each adapter fixes, when it is
constructed, a tuple :attr:`LeapRelation.terms` and everything a
position needs (which coordinates, which side of a clause). The engine
resolves ``Var -> position`` once per query (:meth:`position`) and the
navigation methods take that small int — they hash no ``Var``, scan
nothing and build no sets. They are also *unchecked*: the caller keeps
binds properly nested, never leaps on a bound position, binds only
values the atom's own ``leap`` returned and never binds an atom's last
free position (``leap`` already answered there, and a fully bound atom
is asked nothing more) — which the engine does by construction.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from functools import partial
from typing import TYPE_CHECKING

from repro.query.model import Term, Var
from repro.utils.errors import StructureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RelationCounters
    from repro.succinct.wavelet_tree import WaveletTree


class LeapRelation(abc.ABC):
    """Backtrackable adapter exposing leapfrog primitives for one atom."""

    terms: tuple[Term, ...]
    """What sits at each position: a variable, or (clause sides only)
    the constant that was bound at construction."""

    obs: RelationCounters | None = None
    """Optional :class:`repro.obs.trace.RelationCounters` (``None`` when
    tracing is off)."""

    @property
    def variables(self) -> frozenset[Var]:
        """All variables mentioned by the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Var))

    def position(self, var: Var) -> int:
        """The position ``var`` is addressed by in the methods below."""
        for pos, term in enumerate(self.terms):
            if term == var:
                return pos
        raise StructureError(f"{var!r} does not occur in {self!r}")

    @abc.abstractmethod
    def leap(self, pos: int, lower: int) -> int | None:
        """Smallest candidate value ``>= lower`` for the free variable at
        ``pos``, or ``None``. When ``pos`` is the atom's only free
        position the returned value is admissible: binding it leaves
        the atom non-empty. The engine relies on that: it does not call
        ``bind`` for an atom's last free position at all, and a candidate
        of the last unbound variable is emitted as a solution as it
        stands. (With another position still free a value may yet be
        rejected by ``bind``: a distance clause leaps over all members,
        and one may have nobody within ``d``.)"""

    def seeker(self, pos: int) -> Callable[[int], int | None]:
        """``leap`` at ``pos`` as a function of ``lower``, with whatever
        it reads from the current binding resolved once — for the span
        of one intersection. It answers like ``leap`` while the atom's
        bindings are those of this call (binds undone again in between
        do not matter) and is dead after any other bind or unbind.
        Overrides bypass ``leap`` only while ``obs`` is ``None``, so
        traced counts stay exact."""
        return partial(self.leap, pos)

    def values(self, pos: int) -> Sequence[int]:
        """Every candidate of the free variable at ``pos`` under the
        current binding, ascending — what leaping from 0 until ``None``
        returns. An enumeration counts as *one* leap however it is
        answered; adapters that hold the range of a wavelet tree answer
        it with one range report, the rest with this loop."""
        found: list[int] = []
        value = self.leap(pos, 0)
        while value is not None:
            found.append(value)
            value = self.leap(pos, value + 1)
        obs = self.obs
        if obs is not None:
            obs.leaps -= len(found)  # of the len + 1 leaps, one counts
        return found

    @abc.abstractmethod
    def bind(self, pos: int, value: int) -> bool:
        """Bind the free variable at ``pos``, returning whether the atom
        stays non-empty. The state is pushed even when the result is
        ``False`` so that :meth:`unbind` stays symmetric. Never called
        for the atom's last free position, nor by the engine with a
        value this atom's ``leap`` did not return."""

    @abc.abstractmethod
    def unbind(self, pos: int) -> None:
        """Undo the most recent :meth:`bind`, which was of ``pos``."""

    @abc.abstractmethod
    def estimate(self, pos: int) -> int:
        """Upper bound on the number of candidates for the free variable
        at ``pos`` under the current partial binding — the quantity
        behind the paper's ``l_x`` (Def. 10 / Sec. 5): triple patterns
        answer their current range size, similarity clauses their exact
        range size in ``S``/``S'``. It changes only when a variable of
        this atom is bound or unbound, which is what lets the engine
        cache it."""

    def is_empty(self) -> bool:
        """Whether the atom admits no completion (default: never)."""
        return False

    def wavelet_trees(self) -> tuple[WaveletTree, ...]:
        """Wavelet trees this atom's leaps traverse (default: none).

        The engine scopes per-query memo tables to these trees and the
        tracer attaches op counters to them, so adapters backed by
        succinct structures must override this; returning ``()`` opts
        out of both, which is correct only when the atom really owns no
        trees (e.g. the six-permutation backend).
        ``tests/test_distance_relation.py`` checks that every counted
        tree operation the search reaches runs under a memo."""
        return ()
