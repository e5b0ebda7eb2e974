"""The Leapfrog TrieJoin engine over leapfrog relations.

Classic variable elimination (Sec. 2.2) generalized to any mix of
:class:`~repro.ltj.relation.LeapRelation` atoms: at each step an
ordering strategy picks a variable, the engine leapfrog-intersects the
candidate streams of every atom containing it, and each intersection
member is bound in those of them that keep another variable free before
recursing. Similarity clauses thus participate in the very same
intersections as triple patterns, which is the core idea of Sec. 3.3.

The query is compiled once, into a :class:`~repro.ltj.plan.JoinPlan`;
the loop below only leaps, binds and asks the ordering. The last
variable of a branch is not bound at all: a seeker returns only values
that leave its atom non-empty, so every member of the last intersection
is a solution, and its row — the branch's slot-indexed ``row`` — goes
into one flat int64 buffer that becomes the :class:`Solutions`.
A last variable alone in its atom is one ``values`` report, and the
report goes in as a block: copies of ``row`` with the report written
down the variable's column, cut where a poll, the block handed to
:meth:`run` or the limit falls.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from itertools import cycle
from typing import TYPE_CHECKING

from repro.ltj.ordering import MinCandidatesOrdering, OrderingStrategy
from repro.ltj.plan import JoinPlan
from repro.ltj.relation import LeapRelation, SeekerGetter
from repro.ltj.solutions import Solutions
from repro.ltj.stats import EvaluationStats
from repro.obs.spans import Stopwatch
from repro.query.model import Var
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import QueryTrace, VarCounters

# How many candidate attempts, and how many leaps of an intersection
# (which may produce no candidate at all), between timeout polls.
_TIMEOUT_CHECK_INTERVAL = 256
_TIMEOUT_CHECK_LEAPS = 1024
# A leaf chunk shorter than this is emitted row by row: below it the
# loop is cheaper than the fixed cost of building two arrays.
_LOOP_ROWS = 4


class LTJEngine:
    """Evaluate a conjunction of leapfrog relations by LTJ."""

    def __init__(
        self,
        relations: Sequence[LeapRelation],
        ordering: OrderingStrategy | None = None,
        timeout: float | None = None,
        limit: int | None = None,
        trace: QueryTrace | None = None,
    ) -> None:
        """Set up an evaluation.

        Args:
            relations: the atoms (each a :class:`LeapRelation`).
            ordering: variable-ordering strategy; defaults to the
                adaptive min-``l_x`` rule.
            timeout: optional wall-clock budget in seconds. On expiry the
                run stops and ``stats.timed_out`` is set (no exception).
            limit: optional cap on the number of solutions; a negative
                one raises :class:`ValidationError`.
            trace: optional :class:`repro.obs.trace.QueryTrace` recording
                per-variable leap/candidate/binding counters and ordering
                decisions, and each relation's work: every relation is
                wrapped in the trace's counting relation, which leaps
                through the relation's own seekers. ``None`` (default)
                disables tracing; every recording site in the search is
                guarded by a single ``is not None`` test.
        """
        if limit is not None and limit < 0:
            raise ValidationError(f"limit must be >= 0, got {limit}")
        if trace is not None:
            relations = [trace.counting(r) for r in relations]
        # Only a trace's decision record reads a forced choice's l_x.
        self._plan = JoinPlan(relations, estimate_forced=trace is not None)
        self._variables = self._plan.state.variables
        self._ordering = ordering or MinCandidatesOrdering()
        self._ordering.prepare(self._variables)
        self._timeout = timeout
        self._limit = limit
        self._trace = trace
        self._stopwatch = Stopwatch(timeout)
        self._sim_variables = frozenset(
            v for r in relations if r.kind != "triple" for v in r.variables
        )
        # The current branch, slot-indexed (a bound slot's value; an
        # unbound slot holds whatever it held last).
        self._row = [0] * len(self._variables)
        # Emitted rows, flat; the search hands control up whenever it
        # holds `_block` values (one row for `run`, never for
        # `evaluate`, which takes everything at once).
        self._out = array("q")
        self._block = sys.maxsize
        self.stats = EvaluationStats(sim_variables=self._sim_variables)

    @property
    def variables(self) -> tuple[Var, ...]:
        return self._variables

    def initial_estimates(self) -> dict[Var, int]:
        """``l_x`` of every variable before anything is bound — what the
        ordering sees at depth 0."""
        return dict(zip(self._variables, self._plan.state.lx))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @contextmanager
    def _evaluation(self) -> Iterator[bool]:
        """The prologue and epilogue :meth:`run` and :meth:`evaluate` share.

        Resets ``stats`` and starts the budget. Yields whether there is
        anything to search: no atom is statically empty, the budget is
        not spent already and the limit is not zero. A budget expiring
        inside the block ends it with ``stats.timed_out`` set; stats are
        finalized, and every slot the search left bound is unbound, on
        every way out, including a consumer abandoning the generator the
        block runs in — so the next evaluation starts from the compiled
        plan.
        """
        self._stopwatch = Stopwatch(self._timeout)
        self.stats = EvaluationStats(sim_variables=self._sim_variables)
        self._out = array("q")
        try:
            if self._stopwatch.expired():
                self.stats.timed_out = True
                yield False
            else:
                yield self._limit != 0 and not any(
                    r.is_empty() for r in self._plan.relations
                )
        except _Expired:
            self.stats.timed_out = True
        finally:
            self._plan.reset()
            self.stats.elapsed = self._stopwatch.elapsed()
            if self._trace is not None:
                self._trace.finish(self.stats)

    def run(self) -> Iterator[dict[Var, int]]:
        """Enumerate solutions as variable -> constant dictionaries,
        searching no further than the consumer has asked.

        Stops early (without raising) when the timeout expires or the
        solution limit is reached; check ``self.stats`` afterwards —
        they are valid even when the consumer abandons the generator
        before exhaustion (early ``break``, ``close()``, garbage
        collection).
        """
        variables = self._variables
        search = self._search if variables else self._trivial
        self._block = len(variables)
        with self._evaluation() as searchable:
            if searchable:
                for _ in search(True):
                    yield dict(zip(variables, self._out))
                    del self._out[:]

    def evaluate(self) -> Solutions:
        """All solutions (see :meth:`run`), as one row block — also those
        emitted before a budget expired."""
        search = self._search if self._variables else self._trivial
        self._block = sys.maxsize
        with self._evaluation() as searchable:
            if searchable:
                for _ in search(True):
                    pass
        return Solutions.from_flat(
            self._variables, self._out, self.stats.solutions
        )

    def _trivial(self, first_descent: bool) -> Iterator[None]:
        """The search of a query without variables: its atoms hold (none
        is empty), so the empty assignment is the one solution."""
        self.stats.solutions += 1
        yield

    # ------------------------------------------------------------------
    def _choose(self, first_descent: bool) -> tuple[int, VarCounters | None]:
        """Ask the ordering for the next slot and record the decision."""
        state = self._plan.state
        slot = self._ordering.choose(state)
        var = self._variables[slot]
        if first_descent:
            self.stats.first_descent_order.append(var)
        if self._trace is None:
            return slot, None
        self._trace.record_decision(
            len(self._variables) - state.unbound.bit_count(),
            var,
            {
                v: state.lx[s]
                for s, v in enumerate(self._variables)
                if state.unbound >> s & 1
            },
            self._ordering.describe(state, slot),
        )
        vc = self._trace.var(var)
        vc.fanout = max(vc.fanout, len(self._plan.atoms[slot]))
        return slot, vc

    def _search(self, first_descent: bool) -> Iterator[None]:
        """One elimination step: choose, intersect, bind and descend. An
        untraced run takes a forced last variable without asking the
        ordering (every strategy picks from ``unbound``)."""
        unbound = self._plan.state.unbound
        if self._trace is None and not unbound & (unbound - 1):
            slot = unbound.bit_length() - 1
            if first_descent:
                self.stats.first_descent_order.append(self._variables[slot])
            return self._leaf(slot, None)
        slot, vc = self._choose(first_descent)
        if self._plan.state.unbound == 1 << slot:
            return self._leaf(slot, vc)
        return self._descend(slot, vc, first_descent)

    def _intersection(
        self, getters: list[SeekerGetter], vc: VarCounters | None
    ) -> Iterator[int]:
        """Veldhuizen's leapfrog search and next as one loop: seek the
        atoms round-robin to ``bound``, the largest value any of them
        has returned. ``agree`` counts the atoms in a row that landed on
        it; a larger value becomes the bound, all ``k`` agreeing make it
        a member, and the search goes on from the next value with the
        next atom. Every seek moves its atom forward, so the loop costs
        at most ``k * (min |atom| + 1)`` leaps, and it polls the budget
        by leap count — also while nothing is found — and at every
        ``_TIMEOUT_CHECK_INTERVAL``-th member, which is counted as an
        attempt and not yielded when the budget is spent. The consumer
        may bind the variable between two members as long as it unbinds
        it again."""
        stats = self.stats
        seeks = [get() for get in getters]
        k = len(seeks)
        bound = agree = 0
        # A local leap count, written back to `stats` (and `vc`) before
        # every yield, return and raise, and read back after a yield.
        leaps = stats.leap_calls
        expired = False
        for seek in cycle(seeks):
            leaps += 1
            if not leaps % _TIMEOUT_CHECK_LEAPS and self._stopwatch.expired():
                expired = True
                break
            value = seek(bound)
            if value is None:
                break
            if value != bound:
                bound = value
                agree = 0
            agree += 1
            if agree == k:
                if vc is not None:
                    vc.leaps += leaps - stats.leap_calls
                    vc.candidates += 1
                stats.leap_calls = leaps
                attempts = stats.attempts = stats.attempts + 1
                if (
                    not attempts % _TIMEOUT_CHECK_INTERVAL
                    and self._stopwatch.expired()
                ):
                    raise _Expired()
                yield bound
                leaps = stats.leap_calls
                bound += 1
                agree = 0
        if vc is not None:
            vc.leaps += leaps - stats.leap_calls
        stats.leap_calls = leaps
        if expired:
            raise _Expired()

    def _descend(
        self, slot: int, vc: VarCounters | None, first_descent: bool
    ) -> Iterator[None]:
        """Bind each member of ``slot``'s intersection and search below
        it. Yields whenever a block of rows is ready."""
        plan = self._plan
        stats = self.stats
        row = self._row
        limit = self._limit
        for candidate in self._intersection(plan.seekers[slot], vc):
            if not plan.bind(slot, candidate):
                if vc is not None:
                    vc.failed_bindings += 1
                continue
            if vc is not None:
                vc.bindings += 1
            stats.bindings += 1
            row[slot] = candidate
            yield from self._search(first_descent)
            first_descent = False
            plan.unbind(slot)
            if limit is not None and stats.solutions >= limit:
                return

    def _leaf(self, slot: int, vc: VarCounters | None) -> Iterator[None]:
        """The last unbound variable: each candidate completes a solution
        as it stands (see :meth:`LeapRelation.seeker`), so its row is
        emitted without a bind. Yields whenever a block of rows is ready.

        Alone in its atom, the variable needs no leapfrog: its candidates
        are the atom's ``values``, one leap, and they become rows a chunk
        at a time — copies of ``row`` with the chunk written down the
        slot's column. A chunk ends at the next budget poll, at the block
        and at the limit, so every count, cut and yield is that of
        emitting one row at a time. The report may be the memo's own: it
        is read by offset, never changed or kept.
        """
        atoms = self._plan.atoms[slot]
        stats = self.stats
        row = self._row
        out = self._out
        block = self._block
        limit = self._limit
        if len(atoms) > 1:
            for candidate in self._intersection(self._plan.seekers[slot], vc):
                stats.bindings += 1
                stats.solutions += 1
                if vc is not None:
                    vc.bindings += 1
                row[slot] = candidate
                out.extend(row)
                if len(out) >= block:
                    yield
                if limit is not None and stats.solutions >= limit:
                    return
            return
        stats.leap_calls += 1
        if vc is not None:
            vc.leaps += 1
        relation, pos, _mask = atoms[0]
        members = relation.values(pos)
        width = len(row)
        every = _TIMEOUT_CHECK_INTERVAL
        done, total = 0, len(members)
        while done < total:
            to_poll = every - stats.attempts % every
            tried = min(
                total - done, to_poll, (block - len(out) - 1) // width + 1
            )
            if limit is not None:
                tried = min(tried, limit - stats.solutions)
            n = tried
            if tried == to_poll and self._stopwatch.expired():
                n -= 1  # the poll's attempt is counted, not emitted
            chunk = members[done : done + n]
            if n < _LOOP_ROWS:
                for value in chunk:
                    row[slot] = value
                    out.extend(row)
            else:
                start = len(out)
                out.extend(array("q", row) * n)
                out[start + slot :: width] = array("q", chunk)
            stats.attempts += tried
            stats.bindings += n
            stats.solutions += n
            if vc is not None:
                vc.candidates += tried
                vc.bindings += n
            if n < tried:
                raise _Expired()
            done += n
            if len(out) >= block:
                yield
            if limit is not None and stats.solutions >= limit:
                return


class _Expired(Exception):
    """Internal signal: the evaluation's time budget ran out."""
