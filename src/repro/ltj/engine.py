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
variable of a branch is not bound at all: ``leap`` returns only values
that leave its atom non-empty, so every member of the last intersection
is a solution, and is appended — the branch's slot-indexed ``row`` — to
one flat int64 buffer that becomes the :class:`Solutions` matrix.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from itertools import cycle
from typing import TYPE_CHECKING

import numpy as np

from repro.ltj.ordering import MinCandidatesOrdering, OrderingStrategy
from repro.ltj.plan import Atom, JoinPlan
from repro.ltj.relation import LeapRelation
from repro.ltj.solutions import Solutions
from repro.ltj.stats import EvaluationStats
from repro.query.model import Var
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import QueryTrace, VarCounters

# How many candidate attempts, and how many leaps of an intersection
# (which may produce no candidate at all), between timeout polls.
_TIMEOUT_CHECK_INTERVAL = 256
_TIMEOUT_CHECK_LEAPS = 1024


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
            limit: optional cap on the number of solutions.
            trace: optional :class:`repro.obs.trace.QueryTrace` recording
                per-variable leap/candidate/binding counters and ordering
                decisions. ``None`` (default) disables tracing; every
                recording site is guarded by a single ``is not None``
                test so the disabled path stays hot-loop cheap.
        """
        self._plan = JoinPlan(relations)
        self._variables = self._plan.state.variables
        self._ordering = ordering or MinCandidatesOrdering()
        self._ordering.prepare(self._variables)
        self._timeout = timeout
        self._limit = limit
        self._trace = trace
        self._stopwatch = Stopwatch(timeout)
        # Duck-typed: clause relations carry a `clause` attribute.
        self._sim_variables = frozenset(
            v for r in relations if hasattr(r, "clause") for v in r.variables
        )
        # Deduplicated wavelet trees reachable from the relations.
        self._trees = list(
            {id(t): t for r in relations for t in r.wavelet_trees()}.values()
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

        Resets ``stats``, starts the budget and, for the duration of the
        block, attaches a per-query memo to every wavelet tree reachable
        through a relation's ``wavelet_trees()`` hook (see
        :meth:`WaveletTree.begin_query_memo`): backtracking repeats many
        identical rank/leap traversals, and the trees are immutable, so
        caching them within one evaluation is free of staleness. The
        memo changes only the cost of operations — logical op counts
        (and therefore traces) are unchanged. Yields whether there is
        anything to search: no atom is statically empty, the budget is
        not spent already and the limit is not zero. A budget expiring
        inside the block ends it with ``stats.timed_out`` set; stats are
        finalized on every way out, including a consumer abandoning the
        generator the block runs in.
        """
        self._stopwatch = Stopwatch(self._timeout)
        self.stats = EvaluationStats(sim_variables=self._sim_variables)
        self._out = array("q")
        for tree in self._trees:
            tree.begin_query_memo()
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
            for tree in self._trees:
                tree.end_query_memo()
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
        rows = np.frombuffer(self._out, dtype=np.int64)
        return Solutions(
            self._variables,
            rows.astype("<i8", copy=False).reshape(
                self.stats.solutions, len(self._variables)
            ),
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
        """One elimination step: choose, intersect, bind and descend."""
        slot, vc = self._choose(first_descent)
        return self._descend(
            slot, self._candidates(slot, vc), vc, first_descent
        )

    def _candidates(self, slot: int, vc: VarCounters | None) -> Iterator[int]:
        """The leapfrog intersection of ``slot``'s atoms under the current
        bindings, in increasing order. The consumer may bind ``slot``
        between two candidates as long as it unbinds it again.

        The last unbound variable, when it sits in one atom, needs no
        leapfrog: its candidates are that atom's ``values``, one leap.
        """
        atoms = self._plan.atoms[slot]
        stats = self.stats
        if len(atoms) == 1 and self._plan.state.unbound == 1 << slot:
            stats.leap_calls += 1
            if vc is not None:
                vc.leaps += 1
            relation, pos, _mask = atoms[0]
            members: Iterable[int] = relation.values(pos)
        else:
            members = self._intersection(atoms, vc)
        for candidate in members:
            stats.attempts += 1
            if vc is not None:
                vc.candidates += 1
            if stats.attempts % _TIMEOUT_CHECK_INTERVAL == 0:
                if self._stopwatch.expired():
                    raise _Expired()
            yield candidate

    def _intersection(
        self, atoms: list[Atom], vc: VarCounters | None
    ) -> Iterator[int]:
        """Veldhuizen's leapfrog search and next as one loop: seek the
        atoms round-robin to ``bound``, the largest value any of them
        has returned. ``agree`` counts the atoms in a row that landed on
        it; a larger value becomes the bound, all ``k`` agreeing make it
        a member, and the search goes on from the next value with the
        next atom. Every seek moves its atom forward, so the loop costs
        at most ``k * (min |atom| + 1)`` leaps, and it polls the budget
        by leap count — also while nothing is found."""
        stats = self.stats
        seeks = [relation.seeker(pos) for relation, pos, _mask in atoms]
        k = len(seeks)
        bound = agree = 0
        for seek in cycle(seeks):
            leaps = stats.leap_calls = stats.leap_calls + 1
            if vc is not None:
                vc.leaps += 1
            if not leaps % _TIMEOUT_CHECK_LEAPS and self._stopwatch.expired():
                raise _Expired()
            value = seek(bound)
            if value is None:
                return
            if value != bound:
                bound = value
                agree = 0
            agree += 1
            if agree == k:
                yield bound
                bound += 1
                agree = 0

    def _descend(
        self,
        slot: int,
        candidates: Iterable[int],
        vc: VarCounters | None,
        first_descent: bool,
    ) -> Iterator[None]:
        """Bind each candidate of ``slot`` and search below it; with no
        variable left below, the candidate completes a solution as it
        stands (see :meth:`LeapRelation.leap`) and the row is emitted.
        Yields whenever a block of rows is ready."""
        plan = self._plan
        stats = self.stats
        row = self._row
        limit = self._limit
        if plan.state.unbound == 1 << slot:
            out = self._out
            block = self._block
            for candidate in candidates:
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
        for candidate in candidates:
            ok = plan.bind(slot, candidate)
            if vc is not None:
                if ok:
                    vc.bindings += 1
                else:
                    vc.failed_bindings += 1
            if not ok:
                continue
            stats.bindings += 1
            row[slot] = candidate
            yield from self._search(first_descent)
            first_descent = False
            plan.unbind(slot)
            if limit is not None and stats.solutions >= limit:
                return


class _Expired(Exception):
    """Internal signal: the evaluation's time budget ran out."""
