"""Isomorphism-invariant canonicalization of extended BGPs.

The cross-query cache must recognise that ``(x,knn,y),(y,p,z)`` and
``(a,knn,b),(b,p,c)`` are the *same* query up to variable names. This
module maps an :class:`~repro.query.model.ExtendedBGP` to a
:class:`CanonicalQuery` carrying two keys at different strengths:

* ``signature`` — an isomorphism-invariant digest. Any variable
  renaming *or* atom reordering of a query produces the same
  signature; structurally distinct queries (different constants,
  kinds, ``k`` values, or co-occurrence shape) produce different ones.
  The cache groups entries and accounts hits/misses per signature.

* ``profile`` — an order-sensitive shape: the atoms in their original
  written order with every variable replaced by its first-seen rank.
  Two queries share a profile iff one is a pure variable renaming of
  the other (same atoms, same order). This is the key that gates
  actual result reuse, because the engines' variable-ordering
  tie-break is *positional*: :class:`~repro.ltj.plan.JoinPlan` numbers
  its slots by first occurrence in the atoms' terms, never by name,
  and ``SlotState.argmin`` breaks estimate ties by slot. So a pure
  renaming provably enumerates solutions in the same order —
  byte-identical read-out is guaranteed. Atom-*permuted* probes still
  collide on the signature (shared stats, shared admission history)
  but fill their own profile variant rather than risking a
  differently-ordered solution list.

The signature is computed by Weisfeiler-Leman colour refinement over
the variable co-occurrence structure, followed by an exact
minimisation over the (usually singleton) residual colour-class
permutations. The permutation count is capped at
:data:`MAX_LABELINGS`; pathological queries past the cap raise
:class:`CanonicalizationError` and are simply not cached.

Digests use :func:`hashlib.blake2b`, never the builtin ``hash`` —
``PYTHONHASHSEED`` must not leak into cache keys.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from repro.query.model import (
    DistClause,
    ExtendedBGP,
    SimClause,
    TriplePattern,
    Var,
)

#: Upper bound on the number of candidate labelings tried while
#: minimising within tied WL colour classes (7! — seven mutually
#: symmetric variables). Queries beyond it are declared uncanonical.
MAX_LABELINGS = 5040


class CanonicalizationError(ValueError):
    """The query is too symmetric to canonicalize within the cap."""


@dataclass(frozen=True)
class CanonicalQuery:
    """Canonical form of one extended BGP.

    ``var_order`` records the variable remapping: ``var_order[i]`` is
    the original variable assigned canonical index ``i``. ``profile``
    is the renaming-invariant (but order-sensitive) atom shape used to
    gate byte-identical reuse, and ``variables`` lists the query's
    variables in first-seen order over *all* atoms — the column order
    of packed solution matrices (note ``ExtendedBGP.variables`` omits
    variables that appear only in distance clauses; this one does not).
    """

    signature: str
    var_order: tuple[Var, ...]
    profile: tuple
    variables: tuple[Var, ...]


def first_seen_variables(query: ExtendedBGP) -> tuple[Var, ...]:
    """Every variable of ``query`` in first-seen order over all atoms."""
    seen: list[Var] = []
    for atom in query.atoms:
        for var in atom.variables:
            if var not in seen:
                seen.append(var)
    return tuple(seen)


def _term_key(term, index_of):
    if isinstance(term, Var):
        return ("v", index_of[term])
    return ("c", int(term))


def _atom_key(atom, index_of, *, symmetric_dist: bool):
    """Serialise one atom under a variable labeling.

    ``symmetric_dist`` orients distance clauses canonically (their
    semantics are symmetric) — used for the signature. The profile
    keeps the written orientation so it stays a pure positional shape.
    """
    if isinstance(atom, TriplePattern):
        return (
            "t",
            _term_key(atom.s, index_of),
            _term_key(atom.p, index_of),
            _term_key(atom.o, index_of),
        )
    if isinstance(atom, SimClause):
        return (
            "k",
            atom.relation,
            int(atom.k),
            _term_key(atom.x, index_of),
            _term_key(atom.y, index_of),
        )
    assert isinstance(atom, DistClause)
    x = _term_key(atom.x, index_of)
    y = _term_key(atom.y, index_of)
    if symmetric_dist and y < x:
        x, y = y, x
    return ("d", float(atom.d), x, y)


def _context_key(atom, var: Var, colors: dict[Var, int]):
    """One occurrence of ``var`` in ``atom``, other vars by colour."""

    def term(t):
        if t == var:
            return ("s",)
        if isinstance(t, Var):
            return ("o", colors[t])
        return ("c", int(t))

    if isinstance(atom, TriplePattern):
        return ("t", term(atom.s), term(atom.p), term(atom.o))
    if isinstance(atom, SimClause):
        return ("k", atom.relation, int(atom.k), term(atom.x), term(atom.y))
    assert isinstance(atom, DistClause)
    x, y = term(atom.x), term(atom.y)
    if y < x:
        x, y = y, x
    return ("d", float(atom.d), x, y)


def _refine(query: ExtendedBGP, variables: tuple[Var, ...]) -> dict[Var, int]:
    """Weisfeiler-Leman colour refinement over atom co-occurrence."""
    colors = {var: 0 for var in variables}
    for _ in range(len(variables) + 1):
        keys = {
            var: (
                colors[var],
                tuple(
                    sorted(
                        _context_key(atom, var, colors)
                        for atom in query.atoms
                        if var in atom.variables
                    )
                ),
            )
            for var in variables
        }
        ranked = {key: i for i, key in enumerate(sorted(set(keys.values())))}
        refined = {var: ranked[keys[var]] for var in variables}
        if refined == colors:
            break
        colors = refined
    return colors


def profile_of(query: ExtendedBGP) -> tuple:
    """Order-sensitive shape: atoms as written, vars by first-seen rank."""
    variables = first_seen_variables(query)
    index_of = {var: i for i, var in enumerate(variables)}
    return tuple(
        _atom_key(atom, index_of, symmetric_dist=False)
        for atom in query.atoms
    )


def canonicalize(query: ExtendedBGP) -> CanonicalQuery:
    """Compute the canonical form of ``query``.

    Raises :class:`CanonicalizationError` when the residual symmetry
    after WL refinement exceeds :data:`MAX_LABELINGS` candidate
    labelings (such a query is declared uncacheable rather than paying
    a factorial minimisation).
    """
    variables = first_seen_variables(query)
    profile = profile_of(query)
    if not variables:
        atoms = tuple(
            sorted(_atom_key(a, {}, symmetric_dist=True) for a in query.atoms)
        )
        return CanonicalQuery(
            signature=_digest((0, atoms)),
            var_order=(),
            profile=profile,
            variables=(),
        )

    colors = _refine(query, variables)
    groups: dict[int, list[Var]] = {}
    for var in variables:  # first-seen order makes ties deterministic
        groups.setdefault(colors[var], []).append(var)
    ordered_groups = [groups[color] for color in sorted(groups)]

    n_labelings = 1
    for group in ordered_groups:
        for i in range(2, len(group) + 1):
            n_labelings *= i
        if n_labelings > MAX_LABELINGS:
            raise CanonicalizationError(
                f"query has {n_labelings}+ candidate labelings after "
                f"colour refinement (cap {MAX_LABELINGS})"
            )

    best_atoms: tuple | None = None
    best_order: tuple[Var, ...] | None = None
    for parts in itertools.product(
        *(itertools.permutations(group) for group in ordered_groups)
    ):
        order = tuple(itertools.chain.from_iterable(parts))
        index_of = {var: i for i, var in enumerate(order)}
        atoms = tuple(
            sorted(
                _atom_key(atom, index_of, symmetric_dist=True)
                for atom in query.atoms
            )
        )
        if best_atoms is None or atoms < best_atoms:
            best_atoms = atoms
            best_order = order
    assert best_atoms is not None and best_order is not None

    return CanonicalQuery(
        signature=_digest((len(variables), best_atoms)),
        var_order=best_order,
        profile=profile,
        variables=variables,
    )


def _digest(payload: object) -> str:
    return hashlib.blake2b(
        repr(payload).encode("utf-8"), digest_size=16
    ).hexdigest()
