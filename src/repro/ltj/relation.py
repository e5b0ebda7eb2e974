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
binds properly nested, never seeks on a bound position, binds only
values the atom's own seeker returned and never binds an atom's last
free position (its seeker already answered there, and a fully bound
atom is asked nothing more) — which the engine does by construction.

The one navigation primitive is :meth:`LeapRelation.seeker`, traced or
not, and the search reaches it, ``bind``, ``unbind`` and ``estimate``
through the one resolution hook, :meth:`LeapRelation.resolve`, which
the plan asks once per ``(atom, position)`` when it is compiled. A
traced evaluation wraps each atom in the trace's counting relation,
whose ``resolve`` wraps the atom's own callables with a count around
each and names its backend counters through
:meth:`LeapRelation.detail_keys`.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from functools import partial

from repro.query.model import Term, Var
from repro.utils.errors import StructureError

Seeker = Callable[[int], int | None]
SeekerGetter = Callable[[], Seeker]
Binder = Callable[[int], bool]
Unbinder = Callable[[], object]
Estimator = Callable[[], int]
Resolved = tuple[SeekerGetter, Binder, Unbinder, Estimator]


class LeapRelation(abc.ABC):
    """Backtrackable adapter exposing leapfrog primitives for one atom."""

    terms: tuple[Term, ...]
    """What sits at each position: a variable, or (clause sides only)
    the constant that was bound at construction."""

    kind: str
    """``"triple"``, ``"knn"`` or ``"dist"``: which sort of atom."""

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
    def seeker(self, pos: int) -> Seeker:
        """The leap at the free position ``pos``: a function from
        ``lower`` to the smallest candidate value ``>= lower``, or
        ``None``, with whatever it reads from the current binding
        resolved once — for the span of one intersection.

        When ``pos`` is the atom's only free position the returned value
        is admissible: binding it leaves the atom non-empty. The engine
        relies on that: it does not call ``bind`` for an atom's last
        free position at all, and a candidate of the last unbound
        variable is emitted as a solution as it stands. (With another
        position still free a value may yet be rejected by ``bind``: a
        distance clause leaps over all members, and one may have nobody
        within ``d``.)

        It answers so while the atom's bindings are those of this call
        (binds undone again in between do not matter) and is dead after
        any other bind or unbind. An adapter may keep it with what it
        was resolved against — a Ring frame, a clause's span — and hand
        the same one out whenever that is current again; an atom that
        holds the range of a wavelet tree returns the tree's own
        ``seeker(lo, hi)``, which alone decides whether a leap descends
        or bisects the range's report."""

    def values(self, pos: int) -> Sequence[int]:
        """Every candidate of the free variable at ``pos`` under the
        current binding, ascending — what seeking from 0 until ``None``
        returns, and by default that loop. An enumeration counts as
        *one* leap however it is answered; adapters that hold the range
        of a wavelet tree answer it with one range report."""
        seek = self.seeker(pos)
        found: list[int] = []
        value = seek(0)
        while value is not None:
            found.append(value)
            value = seek(value + 1)
        return found

    @abc.abstractmethod
    def bind(self, pos: int, value: int) -> bool:
        """Bind the free variable at ``pos``, returning whether the atom
        stays non-empty. The state is pushed even when the result is
        ``False`` so that :meth:`unbind` stays symmetric. Never called
        for the atom's last free position, nor by the engine with a
        value this atom's seeker did not return."""

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

    def resolve(self, pos: int) -> Resolved:
        """``seeker``, ``bind``, ``unbind`` and ``estimate`` with ``pos``
        applied: each answers as its method does under the binding
        current when it is called. The plan asks once, and calls the
        bind only where :meth:`bind` may be called (never at the atom's
        last free position), so an adapter may fix there whatever that
        leaves fixed; by default they are the methods."""
        return (
            partial(self.seeker, pos),
            partial(self.bind, pos),
            partial(self.unbind, pos),
            partial(self.estimate, pos),
        )

    def is_empty(self) -> bool:
        """Whether the atom admits no completion (default: never)."""
        return False

    def detail_keys(self, pos: int) -> tuple[str | None, str | None]:
        """The backend counters a seek at ``pos`` and a bind of ``pos``
        count under the current binding — which primitive answers them
        (``None``: no counter). Only a traced evaluation's counting
        relation asks."""
        return None, None
