"""The solutions of one evaluation: a variable tuple and an int64 matrix.

The search loop appends each solution as one row of a flat buffer; this
is that buffer, carried unchanged through the result cache, the worker
pipe and the JSON encoder. To its readers it is the ``list[dict[Var,
int]]`` it replaces — indexing, slicing, iterating and comparing give
dicts, built on demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.query.model import Var


def raw_limit(limit: int | None, project: object, distinct: bool) -> int | None:
    """The cap ``limit`` puts on the *enumeration*: projecting and
    deduplicating can merge rows, so only then the search must run on
    until ``limit`` distinct rows exist (none at all for ``limit=0``)."""
    return None if (limit and project and distinct) else limit


class Solutions(Sequence):
    """``rows[i, j]`` is the constant ``variables[j]`` takes in the
    ``i``-th solution, in enumeration order."""

    __slots__ = ("variables", "rows")

    def __init__(self, variables: Iterable[Var], rows: np.ndarray) -> None:
        self.variables = tuple(variables)
        self.rows = rows
        """``(n, len(variables))`` little-endian int64."""

    @classmethod
    def from_dicts(
        cls,
        solutions: Iterable[Mapping[Var, int]],
        variables: Iterable[Var] | None = None,
    ) -> Solutions:
        """Pack binding dicts (``variables`` defaults to the first one's
        keys); a dict lacking a variable raises ``KeyError``."""
        solutions = list(solutions)
        if variables is None:
            variables = solutions[0] if solutions else ()
        variables = tuple(variables)
        rows = np.array(
            [[solution[var] for var in variables] for solution in solutions],
            dtype="<i8",
        ).reshape(len(solutions), len(variables))
        return cls(variables, rows)

    # ------------------------------------------------------------------
    def columns(self, variables: Iterable[Var]) -> np.ndarray:
        """The rows with their columns in the order of ``variables``
        (a copy). An unknown variable raises ``KeyError`` — unless there
        is no row to miss it in (an empty answer built from an empty
        list of dicts does not know its variables)."""
        variables = tuple(variables)
        if not len(self.rows):
            return np.empty((0, len(variables)), dtype="<i8")
        position = {var: col for col, var in enumerate(self.variables)}
        return self.rows[:, [position[var] for var in variables]]

    def select(
        self,
        project: Sequence[Var] | None = None,
        distinct: bool = False,
        limit: int | None = None,
    ) -> Solutions:
        """SELECT-style post-processing, the same for every route: cap
        the enumeration (:func:`raw_limit`), keep the ``project``
        columns, drop all but the first occurrence of each row, cap
        again."""
        capped = self[: raw_limit(limit, project, distinct)]
        variables, rows = capped.variables, capped.rows
        if project:
            variables = tuple(dict.fromkeys(project))
            rows = capped.columns(variables)
        if distinct and len(rows) > 1:
            if variables:
                _, first = np.unique(rows, axis=0, return_index=True)
                rows = rows[np.sort(first)]
            else:
                rows = rows[:1]
        if limit is not None:
            rows = rows[:limit]
        return Solutions(variables, rows)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int | slice) -> dict[Var, int] | Solutions:
        if isinstance(index, slice):
            return Solutions(self.variables, self.rows[index])
        return dict(zip(self.variables, self.rows[index].tolist()))

    def __iter__(self) -> Iterator[dict[Var, int]]:
        variables = self.variables
        for row in self.rows.tolist():
            yield dict(zip(variables, row))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Solutions) and other.variables == self.variables:
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, (Solutions, list)):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))
