"""The solutions of one evaluation: a variable tuple and int64 rows.

The search loop appends each solution as one row of a flat
``array('q')``; this is that buffer, carried unchanged to whoever reads
the answer. To its readers it is the ``list[dict[Var, int]]`` it
replaces — indexing, slicing, iterating and comparing give dicts, built
on demand without numpy. The callers that want a matrix — the result
cache, the worker pipe, the JSON encoder — ask for :attr:`Solutions.rows`
(or :meth:`Solutions.columns`), which is built on the first ask.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, repeat
from operator import index as as_index
from typing import TYPE_CHECKING

from repro.query.model import Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def raw_limit(limit: int | None, project: object, distinct: bool) -> int | None:
    """The cap ``limit`` puts on the *enumeration*: projecting and
    deduplicating can merge rows, so only then the search must run on
    until ``limit`` distinct rows exist (none at all for ``limit=0``)."""
    return None if (limit and project and distinct) else limit


class Solutions(Sequence):
    """Solution ``i`` gives ``variables[j]`` the constant at ``[i, j]``
    of the rows, in enumeration order."""

    __slots__ = ("variables", "_flat", "_n", "_rows")

    def __init__(self, variables: Iterable[Var], rows: np.ndarray) -> None:
        """Solutions held as an ``(n, len(variables))`` little-endian
        int64 matrix (a cache entry's, a worker's reply)."""
        self.variables = tuple(variables)
        self._rows: np.ndarray | None = rows
        self._flat: array[int] | None = None
        self._n = len(rows)

    @classmethod
    def from_flat(
        cls, variables: Iterable[Var], flat: array[int], n: int
    ) -> Solutions:
        """``n`` solutions held as their rows back to back in ``flat``
        (the search loop's buffer, taken as it is)."""
        solutions = cls.__new__(cls)
        solutions.variables = tuple(variables)
        solutions._rows = None
        solutions._flat = flat
        solutions._n = n
        return solutions

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
        flat = array(
            "q", [solution[var] for solution in solutions for var in variables]
        )
        return cls.from_flat(variables, flat, len(solutions))

    # ------------------------------------------------------------------
    @property
    def rows(self) -> np.ndarray:
        """The ``(n, len(variables))`` little-endian int64 matrix, built
        over the flat rows on first ask."""
        if self._rows is None:
            import numpy as np

            flat = np.frombuffer(self._values(), dtype="<i8")
            self._rows = flat.reshape(self._n, len(self.variables))
        return self._rows

    def _values(self) -> array[int]:
        """The rows back to back."""
        if self._flat is None:
            assert self._rows is not None
            self._flat = array("q", self._rows.tobytes())
        return self._flat

    def _tuples(self) -> Iterator[tuple[int, ...]]:
        """Each row as a tuple, in order."""
        width = len(self.variables)
        if not width:
            return repeat((), self._n)
        return zip(*[iter(self._values())] * width)

    def columns(self, variables: Iterable[Var]) -> np.ndarray:
        """The rows with their columns in the order of ``variables``
        (a copy). An unknown variable raises ``KeyError`` — unless there
        is no row to miss it in (an empty answer built from an empty
        list of dicts does not know its variables)."""
        import numpy as np

        variables = tuple(variables)
        if not self._n:
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
        cap = raw_limit(limit, project, distinct)
        selected = self if cap is None or cap >= self._n else self[:cap]
        if project or distinct:
            variables = selected.variables
            rows: Iterable[tuple[int, ...]] = selected._tuples()
            if project:
                variables = tuple(dict.fromkeys(project))
                if selected._n:
                    column = {v: j for j, v in enumerate(selected.variables)}
                    keep = [column[var] for var in variables]
                    rows = (tuple(row[j] for j in keep) for row in rows)
            kept = list(dict.fromkeys(rows) if distinct else rows)
            flat = array("q", chain.from_iterable(kept))
            selected = Solutions.from_flat(variables, flat, len(kept))
        if limit is not None and limit < selected._n:
            selected = selected[:limit]
        return selected

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int | slice) -> dict[Var, int] | Solutions:
        width = len(self.variables)
        values = self._values()
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            if step == 1:
                count = max(0, stop - start)
                part = values[start * width : (start + count) * width]
            else:
                picked = range(start, stop, step)
                count = len(picked)
                part = array("q", chain.from_iterable(
                    values[i * width : (i + 1) * width] for i in picked
                ))
            return Solutions.from_flat(self.variables, part, count)
        i = as_index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("solution index out of range")
        return dict(zip(self.variables, values[i * width : (i + 1) * width]))

    def __iter__(self) -> Iterator[dict[Var, int]]:
        variables = self.variables
        for row in self._tuples():
            yield dict(zip(variables, row))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Solutions) and other.variables == self.variables:
            return self._n == other._n and self._values() == other._values()
        if isinstance(other, (Solutions, list)):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))
