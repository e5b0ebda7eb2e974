"""Reference answers that share no code with the engines under test.

Every extended BGP is answered a second time here, by plain columnar
joins over the raw tables the benchmark generated (the triple array and
the K-NN neighbour table) — no Ring, no wavelet tree, no leapfrog. The
solution *count* drives query selection (a semantic quantity no correct
optimisation can change) and the solution *digest* is what every timed
answer is checked against.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.query.model import ExtendedBGP, Var

#: A candidate whose columnar plan ever holds more rows than this is
#: dropped from the pool (a property of query and data, not of the
#: program under test); it keeps mining time and memory bounded.
MAX_ROWS = 400_000


class TooLarge(Exception):
    """An intermediate join result exceeded :data:`MAX_ROWS`."""


def _atom_relation(terms, table: np.ndarray) -> tuple[list[Var], np.ndarray]:
    """Rows of ``table`` matching ``terms`` projected onto its variables.

    ``terms`` parallels the columns of ``table``; constants filter, a
    variable repeated inside the atom becomes an equality filter.
    """
    keep = np.ones(len(table), dtype=bool)
    variables: list[Var] = []
    columns: list[int] = []
    for position, term in enumerate(terms):
        if isinstance(term, Var):
            if term in variables:
                keep &= table[:, position] == table[:, columns[variables.index(term)]]
            else:
                variables.append(term)
                columns.append(position)
        else:
            keep &= table[:, position] == int(term)
    return variables, table[keep][:, columns]


def _knn_pairs(knn, k: int) -> np.ndarray:
    """All ``(u, v)`` with ``v`` among the first ``k`` neighbours of ``u``."""
    width = min(k, knn.K)
    neighbours = knn.neighbor_table[:, :width]
    valid = np.arange(width)[None, :] < knn.lengths[:, None]
    owners = np.broadcast_to(knn.members[:, None], neighbours.shape)
    return np.stack([owners[valid], neighbours[valid]], axis=1)


def _pack(rows: np.ndarray, base: int) -> np.ndarray:
    key = np.zeros(len(rows), dtype=np.int64)
    for column in range(rows.shape[1]):
        key = key * base + rows[:, column]
    return key


def _join(
    left_vars: list[Var],
    left: np.ndarray,
    right_vars: list[Var],
    right: np.ndarray,
    base: int,
) -> tuple[list[Var], np.ndarray]:
    shared = [v for v in right_vars if v in left_vars]
    fresh = [i for i, v in enumerate(right_vars) if v not in left_vars]
    out_vars = left_vars + [right_vars[i] for i in fresh]
    if not shared:
        if len(left) * len(right) > MAX_ROWS:
            raise TooLarge
        li = np.repeat(np.arange(len(left)), len(right))
        ri = np.tile(np.arange(len(right)), len(left))
    else:
        left_key = _pack(left[:, [left_vars.index(v) for v in shared]], base)
        right_key = _pack(right[:, [right_vars.index(v) for v in shared]], base)
        order = np.argsort(right_key, kind="stable")
        right_key = right_key[order]
        lo = np.searchsorted(right_key, left_key, side="left")
        hi = np.searchsorted(right_key, left_key, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total > MAX_ROWS:
            raise TooLarge
        li = np.repeat(np.arange(len(left)), counts)
        starts = np.repeat(lo, counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        ri = order[starts + within]
    return out_vars, np.concatenate([left[li], right[ri][:, fresh]], axis=1)


def solve(query: ExtendedBGP, spo: np.ndarray, knn) -> np.ndarray:
    """All solutions as an ``(n, len(query.variables))`` array, columns in
    ``query.variables`` order. Raises :class:`TooLarge` past the row cap.
    """
    atoms: list[tuple[list[Var], np.ndarray]] = [
        _atom_relation(t.terms, spo) for t in query.triples
    ]
    pairs: dict[int, np.ndarray] = {}
    for clause in query.clauses:
        if clause.k not in pairs:
            pairs[clause.k] = _knn_pairs(knn, clause.k)
        atoms.append(_atom_relation((clause.x, clause.y), pairs[clause.k]))
    if query.dist_clauses:
        raise NotImplementedError("the benchmark mines no distance clauses")
    base = int(max(spo.max(), knn.members.max())) + 1
    if base ** 3 >= 2 ** 63:
        raise ValueError("domain too large for packed join keys")
    variables, rows = atoms.pop(0)
    while atoms:
        # Filters (no new variable) first, then any atom that shares a
        # variable, then — only for a disconnected query — a product.
        def rank(atom: tuple[list[Var], np.ndarray]) -> int:
            unseen = sum(v not in variables for v in atom[0])
            return 0 if unseen == 0 else 1 if unseen < len(atom[0]) else 2

        chosen = min(range(len(atoms)), key=lambda i: rank(atoms[i]))
        atom_vars, atom_rows = atoms.pop(chosen)
        variables, rows = _join(variables, rows, atom_vars, atom_rows, base)
    wanted = list(query.variables)
    return np.ascontiguousarray(rows[:, [variables.index(v) for v in wanted]])


def digest_rows(rows: np.ndarray) -> str:
    """Order-independent digest of a solution multiset.

    ``rows`` is ``(n, v)`` with columns sorted by variable *name* — the
    form both the oracle and the answer decoders reduce to — so the
    digest survives any enumeration order.
    """
    rows = np.ascontiguousarray(rows, dtype="<i8")
    if rows.size:
        rows = rows[np.lexsort(rows.T[::-1])]
    head = f"{rows.shape[0]}x{rows.shape[1]}:".encode()
    return hashlib.blake2b(head + rows.tobytes(), digest_size=16).hexdigest()


def by_name(query: ExtendedBGP) -> list[int]:
    """Column permutation taking ``query.variables`` order to name order."""
    variables = list(query.variables)
    return sorted(range(len(variables)), key=lambda i: variables[i].name)


def reference(query: ExtendedBGP, spo: np.ndarray, knn) -> tuple[int, str]:
    """``(solution count, digest)`` of the query's true answer."""
    rows = solve(query, spo, knn)
    return len(rows), digest_rows(rows[:, by_name(query)])


def digest_solutions(solutions, names: list[str]) -> str:
    """Digest of an engine or HTTP answer (a list of mappings).

    ``names`` are the query's variable names, sorted; ``solutions`` map
    either :class:`Var` or ``str`` keys to constants. A solution that
    lacks a variable raises ``KeyError`` — a wrong answer, not a crash
    to hide.
    """
    if not solutions:
        return digest_rows(np.empty((0, len(names)), dtype="<i8"))
    first = next(iter(solutions[0]))
    keys = names if isinstance(first, str) else [Var(n) for n in names]
    rows = np.array(
        [[s[key] for key in keys] for s in solutions], dtype="<i8"
    ).reshape(len(solutions), len(names))
    return digest_rows(rows)
