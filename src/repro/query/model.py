"""Data model for extended BGPs (Defs. 2 and 5 of the paper).

Variables are represented by :class:`Var` (hashable wrapper around a
name); constants are plain non-negative ints. A term is therefore
``Var | int``. A :class:`TriplePattern` is a triple of terms; a
:class:`SimClause` ``SimClause(x, k, y)`` encodes ``x <|_k y``, i.e.,
"the binding of ``y`` is among the ``k`` nearest neighbors of the
binding of ``x``".
"""

from __future__ import annotations

from typing import Union

from repro.utils.errors import QueryError
from repro.utils.record import Frozen


class Var(Frozen):
    """A query variable, identified by name (without any ``?`` sigil).
    Variables order by name."""

    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    # Written out: variables key every plan and solution dict.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.name,))

    def __lt__(self, other: Var) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name < other.name

    def __le__(self, other: Var) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name <= other.name

    def __gt__(self, other: Var) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name > other.name

    def __ge__(self, other: Var) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name >= other.name

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Union[Var, int]


def is_var(term: Term) -> bool:
    """Whether a term is a variable (as opposed to a constant)."""
    return isinstance(term, Var)


def _check_term(term: Term, where: str) -> Term:
    if isinstance(term, Var):
        return term
    if isinstance(term, bool) or not isinstance(term, int):
        raise QueryError(f"{where}: term must be Var or int, got {term!r}")
    if term < 0:
        raise QueryError(f"{where}: constants must be non-negative, got {term}")
    return term


class TriplePattern(Frozen):
    """A triple pattern ``(s, p, o)`` of variables and constants."""

    __slots__ = ("s", "p", "o")
    s: Term
    p: Term
    o: Term

    def __init__(self, s: Term, p: Term, o: Term) -> None:
        for pos, term in zip("spo", (s, p, o)):
            _check_term(term, f"triple pattern position {pos}")
        self._set(s=s, p=p, o=o)

    @property
    def terms(self) -> tuple[Term, Term, Term]:
        return (self.s, self.p, self.o)

    @property
    def variables(self) -> tuple[Var, ...]:
        """Distinct variables of the pattern, in s, p, o order."""
        seen: list[Var] = []
        for term in self.terms:
            if isinstance(term, Var) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def coordinates_of(self, var: Var) -> tuple[str, ...]:
        """Which coordinates (``'s'``, ``'p'``, ``'o'``) hold ``var``."""
        return tuple(
            pos for pos, term in zip("spo", self.terms) if term == var
        )

    def substitute(self, assignment: dict[Var, int]) -> "TriplePattern":
        """Replace assigned variables by their constants."""

        def sub(term: Term) -> Term:
            if isinstance(term, Var):
                return assignment.get(term, term)
            return term

        return TriplePattern(sub(self.s), sub(self.p), sub(self.o))

    def __repr__(self) -> str:
        return f"({self.s!r}, {self.p!r}, {self.o!r})"


DEFAULT_RELATION = "default"
"""Name of the implicit K-NN relation used when none is specified."""


class SimClause(Frozen):
    """Similarity clause ``x <|_k y``: ``y`` is in ``k``-NN(``x``).

    Per Def. 5, ``x != y`` and ``k >= 1``. Either side may be a constant.
    ``relation`` names which K-NN graph the clause refers to — Sec. 3.1
    allows "various independent K-NN relations ... in the same queries";
    the default name targets the database's primary K-NN graph.
    """

    __slots__ = ("x", "k", "y", "relation")
    x: Term
    k: int
    y: Term
    relation: str

    def __init__(
        self, x: Term, k: int, y: Term, relation: str = DEFAULT_RELATION
    ) -> None:
        _check_term(x, "similarity clause x")
        _check_term(y, "similarity clause y")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise QueryError(f"similarity clause requires k >= 1, got {k!r}")
        if x == y:
            raise QueryError("similarity clause requires x != y (Def. 5)")
        if not relation or not isinstance(relation, str):
            raise QueryError("similarity clause relation must be a name")
        self._set(x=x, k=k, y=y, relation=relation)

    @property
    def variables(self) -> tuple[Var, ...]:
        out: list[Var] = []
        for term in (self.x, self.y):
            if isinstance(term, Var) and term not in out:
                out.append(term)
        return tuple(out)

    def __repr__(self) -> str:
        tag = "" if self.relation == DEFAULT_RELATION else f"[{self.relation}]"
        return f"{self.x!r} <|_{self.k}{tag} {self.y!r}"


class DistClause(Frozen):
    """Range-based similarity clause ``dist(x, y) <= d`` (Sec. 3.3).

    An extension over the core ``<|_k`` operator: both sides must be
    within Euclidean distance ``d`` of each other, as the
    :class:`~repro.knn.distance_index.DistanceRangeIndex` measures it.
    The predicate is symmetric.
    """

    __slots__ = ("x", "d", "y")
    x: Term
    d: float
    y: Term

    def __init__(self, x: Term, d: float, y: Term) -> None:
        _check_term(x, "distance clause x")
        _check_term(y, "distance clause y")
        if not isinstance(d, (int, float)) or d <= 0:
            raise QueryError(f"distance clause requires d > 0, got {d!r}")
        if x == y:
            raise QueryError("distance clause requires x != y")
        self._set(x=x, d=d, y=y)

    @property
    def variables(self) -> tuple[Var, ...]:
        out: list[Var] = []
        for term in (self.x, self.y):
            if isinstance(term, Var) and term not in out:
                out.append(term)
        return tuple(out)

    def __repr__(self) -> str:
        return f"dist({self.x!r}, {self.y!r}) <= {self.d}"


def sym_clauses(
    x: Term, k: int, y: Term, relation: str = DEFAULT_RELATION
) -> tuple[SimClause, SimClause]:
    """Expand the symmetric operator ``x ~_k y`` per Sec. 3.1.

    ``x ~_k y  <=>  x <|_k y  and  y <|_k x``.
    """
    return (SimClause(x, k, y, relation), SimClause(y, k, x, relation))


class ExtendedBGP:
    """An extended BGP: triple patterns plus similarity clauses (Def. 5)."""

    def __init__(
        self,
        triples: list[TriplePattern] | tuple[TriplePattern, ...] = (),
        clauses: list[SimClause] | tuple[SimClause, ...] = (),
        dist_clauses: list[DistClause] | tuple[DistClause, ...] = (),
    ) -> None:
        self.triples: tuple[TriplePattern, ...] = tuple(triples)
        self.clauses: tuple[SimClause, ...] = tuple(clauses)
        self.dist_clauses: tuple[DistClause, ...] = tuple(dist_clauses)
        if not self.triples and not self.clauses and not self.dist_clauses:
            raise QueryError("query must contain at least one atom")
        for t in self.triples:
            if not isinstance(t, TriplePattern):
                raise QueryError(f"not a TriplePattern: {t!r}")
        for c in self.clauses:
            if not isinstance(c, SimClause):
                raise QueryError(f"not a SimClause: {c!r}")
        for c in self.dist_clauses:
            if not isinstance(c, DistClause):
                raise QueryError(f"not a DistClause: {c!r}")

    # ------------------------------------------------------------------
    # structural queries used by orderings, bounds, and engines
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[Var, ...]:
        """All distinct variables, triples first, in first-seen order."""
        seen: list[Var] = []
        for atom in (*self.triples, *self.clauses):
            for v in atom.variables:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    @property
    def atoms(self) -> tuple[object, ...]:
        """Triple patterns, similarity clauses, then distance clauses."""
        return (*self.triples, *self.clauses, *self.dist_clauses)

    def atom_count(self, var: Var) -> int:
        """Number of atoms (triples or clauses) mentioning ``var``."""
        return sum(1 for atom in self.atoms if var in atom.variables)

    def lonely_variables(self) -> tuple[Var, ...]:
        """Variables appearing in exactly one atom (Sec. 5: bound last)."""
        return tuple(v for v in self.variables if self.atom_count(v) == 1)

    def triple_count(self, var: Var) -> int:
        """Number of *triple patterns* mentioning ``var``."""
        return sum(1 for t in self.triples if var in t.variables)

    def is_safe(self) -> bool:
        """Safety per Sec. 4.1: every clause's ``x`` occurs in a triple.

        Constant ``x`` sides are trivially safe.
        """
        for clause in self.clauses:
            if isinstance(clause.x, Var) and self.triple_count(clause.x) == 0:
                return False
        return True

    def max_k(self) -> int:
        """Largest ``k`` used by any clause (0 if no clauses)."""
        return max((c.k for c in self.clauses), default=0)

    def substitute(self, assignment: dict[Var, int]) -> "ExtendedBGP":
        """Apply a partial assignment to all triple patterns.

        Similarity clauses are kept symbolic (engines track their bound
        sides separately); only used by analysis code.
        """
        return ExtendedBGP(
            [t.substitute(assignment) for t in self.triples],
            list(self.clauses),
            list(self.dist_clauses),
        )

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.atoms]
        return "ExtendedBGP{" + " . ".join(parts) + "}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedBGP):
            return NotImplemented
        return (
            self.triples == other.triples
            and self.clauses == other.clauses
            and self.dist_clauses == other.dist_clauses
        )

    def __hash__(self) -> int:
        return hash((self.triples, self.clauses, self.dist_clauses))
