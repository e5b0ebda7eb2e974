"""Textual syntax for extended BGPs.

The grammar is a small SPARQL-flavoured dot-separated atom list::

    query  := atom ("." atom)*
    atom   := triple | knn | sim | dist
    triple := "(" term "," term "," term ")"
    knn    := "knn" rel? "(" term "," term "," int ")"    # x <|_k y
    sim    := "sim" rel? "(" term "," term "," int ")"    # x ~_k y (2 clauses)
    dist   := "dist(" term "," term "," float ")"         # dist(x, y) <= d
    rel    := ":" name                             # named K-NN relation
    term   := "?" name | int | name                # bare names need a dictionary

Examples::

    (?x, 5, ?y) . (?y, 5, ?z) . sim(?y, ?z, 2)
    (?e, depicts, ?img) . knn(?img, ?other, 10)

Bare (non-numeric, non-``?``) terms are resolved through an optional
:class:`~repro.graph.dictionary.TermDictionary`.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from repro.query.model import (
    DEFAULT_RELATION,
    DistClause,
    ExtendedBGP,
    SimClause,
    Term,
    TriplePattern,
    Var,
    sym_clauses,
)
from repro.utils.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.dictionary import TermDictionary

_TRIPLE_RE = re.compile(r"^\(\s*([^,()]+?)\s*,\s*([^,()]+?)\s*,\s*([^,()]+?)\s*\)$")
_FUNC_RE = re.compile(
    r"^(knn|sim|dist)(?::([A-Za-z_][\w-]*))?"
    r"\(\s*([^,()]+?)\s*,\s*([^,()]+?)\s*,\s*([0-9.]+)\s*\)$"
)


def _split_atoms(text: str) -> list[str]:
    """Split on dots that are not inside parentheses."""
    atoms: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise QueryError("unbalanced ')' in query text")
        if ch == "." and depth == 0:
            atoms.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise QueryError("unbalanced '(' in query text")
    tail = "".join(current).strip()
    if tail:
        atoms.append(tail)
    return [a for a in atoms if a]


def _parse_term(token: str, dictionary: TermDictionary | None) -> Term:
    token = token.strip()
    if not token:
        raise QueryError("empty term")
    if token.startswith("?"):
        name = token[1:]
        if not name:
            raise QueryError("variable must have a name after '?'")
        return Var(name)
    if re.fullmatch(r"\d+", token):
        return int(token)
    if dictionary is None:
        raise QueryError(
            f"term {token!r} is not numeric and no dictionary was provided"
        )
    if token not in dictionary:
        raise QueryError(f"unknown term {token!r} (not in dictionary)")
    return dictionary.id_of(token)


def parse_query(
    text: str, dictionary: TermDictionary | None = None
) -> ExtendedBGP:
    """Parse the textual syntax into an :class:`ExtendedBGP`.

    Args:
        text: the query string (see module docstring for the grammar).
        dictionary: optional term dictionary for bare (named) constants.

    Raises:
        QueryError: on any syntactic or resolution problem.
    """
    triples: list[TriplePattern] = []
    clauses: list[SimClause] = []
    dist_clauses: list[DistClause] = []
    for atom_text in _split_atoms(text):
        func_match = _FUNC_RE.match(atom_text)
        if func_match:
            kind, relation, x_tok, y_tok, k_tok = func_match.groups()
            x = _parse_term(x_tok, dictionary)
            y = _parse_term(y_tok, dictionary)
            if kind == "dist":
                if relation is not None:
                    raise QueryError(
                        "dist clauses take no relation name (one "
                        "distance index per database)"
                    )
                dist_clauses.append(DistClause(x, float(k_tok), y))
                continue
            if "." in k_tok:
                raise QueryError(f"{kind} requires an integer k, got {k_tok!r}")
            k = int(k_tok)
            relation = relation or DEFAULT_RELATION
            if kind == "knn":
                clauses.append(SimClause(x, k, y, relation))
            else:
                clauses.extend(sym_clauses(x, k, y, relation))
            continue
        triple_match = _TRIPLE_RE.match(atom_text)
        if triple_match:
            s, p, o = (
                _parse_term(tok, dictionary) for tok in triple_match.groups()
            )
            triples.append(TriplePattern(s, p, o))
            continue
        raise QueryError(f"cannot parse atom: {atom_text!r}")
    return ExtendedBGP(triples, clauses, dist_clauses)
