"""The baseline engine (Sec. 5.3 of the paper).

Two phases:

1. Solve the BGP *ignoring* every similarity clause, with classic LTJ
   over the Ring.
2. Post-process each solution with the similarity clauses, classified as
   ``2-ready`` (both sides resolved: filter via the direct K-NN
   adjacency), ``ready`` (one side resolved: extend via the direct or
   reverse adjacency), and ``sim`` (neither side resolved). Filtering is
   prioritized; extending a variable can promote ``sim`` clauses to
   ``ready``.

Similarity clauses *disconnected* from the rest of the query (whose
variables can never become resolved) are not supported, as in the paper.
Distance clauses are handled with the same scheme over the
distance-range index (an extension beyond the paper's baseline).
"""

from __future__ import annotations

from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.ltj.engine import LTJEngine
from repro.ltj.ordering import MinCandidatesOrdering
from repro.ltj.stats import EvaluationStats
from repro.ltj.triple_relation import RingTripleRelation
from repro.obs.spans import now
from repro.obs.trace import attach_wavelets, instrument_relations, wavelet_targets
from repro.query.model import DistClause, ExtendedBGP, SimClause, Var, is_var
from repro.utils.errors import QueryError
from repro.utils.timing import Stopwatch


class BaselineEngine:
    """Classic LTJ + similarity post-processing (Sec. 5.3)."""

    name = "baseline"

    def __init__(self, db: GraphDatabase) -> None:
        self._db = db

    # ------------------------------------------------------------------
    def _check_supported(self, query: ExtendedBGP) -> None:
        """Reject disconnected similarity clauses (paper's restriction).

        A variable is resolvable if it occurs in a triple pattern, or in
        a clause whose other side is a constant or itself resolvable.
        """
        self._db.validate_query(query)
        if not query.triples:
            raise QueryError(
                "baseline requires at least one triple pattern (Sec. 5.3)"
            )
        resolvable: set[Var] = set()
        for t in query.triples:
            resolvable.update(t.variables)
        all_clauses = (*query.clauses, *query.dist_clauses)
        changed = True
        while changed:
            changed = False
            for clause in all_clauses:
                sides = (clause.x, clause.y)
                resolved = [
                    not is_var(side) or side in resolvable for side in sides
                ]
                if any(resolved):
                    for side in sides:
                        if is_var(side) and side not in resolvable:
                            resolvable.add(side)
                            changed = True
        for clause in all_clauses:
            for side in (clause.x, clause.y):
                if is_var(side) and side not in resolvable:
                    raise QueryError(
                        "baseline does not support similarity clauses "
                        f"disconnected from the query: {clause!r}"
                    )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        query: ExtendedBGP,
        timeout: float | None = None,
        limit: int | None = None,
        trace: object | None = None,
    ) -> QueryResult:
        """Run both phases, sharing one time budget.

        With ``trace``, the BGP phase records the usual LTJ counters and
        the split between the two phases lands in ``trace.spans`` (the
        post-processing phase does no leapfrog work, so its cost shows
        up there and nowhere else).
        """
        self._check_supported(query)
        stopwatch = Stopwatch(timeout)
        # Phase 1: classic LTJ over the triples only.
        relations = [
            RingTripleRelation(self._db.ring, t) for t in query.triples
        ]
        ltj = LTJEngine(
            relations,
            ordering=MinCandidatesOrdering(),
            timeout=timeout,
            # The clause phase drops and multiplies base solutions, so
            # the only cap that carries over to this one is "none".
            limit=0 if limit == 0 else None,
            trace=trace,
        )
        stats = EvaluationStats()
        stats.sim_variables = frozenset(
            v
            for clause in (*query.clauses, *query.dist_clauses)
            for v in clause.variables
        )
        if trace is not None:
            trace.engine = self.name
            if trace.query is None:
                trace.query = repr(query)
            instrument_relations(trace, relations)
        solutions: list[dict[Var, int]] = []
        base_count = 0
        wavelets = (
            attach_wavelets(wavelet_targets(trace, self._db, query))
            if trace is not None
            else None
        )
        run = ltj.run()
        try:
            if wavelets is not None:
                wavelets.__enter__()
            for base in run:
                base_count += 1
                self._postprocess(
                    base,
                    list(query.clauses),
                    list(query.dist_clauses),
                    solutions,
                    stopwatch,
                    limit,
                )
                if stopwatch.expired():
                    stats.timed_out = True
                    break
                if limit is not None and len(solutions) >= limit:
                    break
        finally:
            run.close()
            if wavelets is not None:
                wavelets.__exit__(None, None, None)
        phase1 = ltj.stats.elapsed
        stats.timed_out = stats.timed_out or ltj.stats.timed_out
        stats.bindings = ltj.stats.bindings
        stats.attempts = ltj.stats.attempts
        stats.leap_calls = ltj.stats.leap_calls
        stats.first_descent_order = ltj.stats.first_descent_order
        stats.solutions = len(solutions)
        stats.elapsed = stopwatch.elapsed()
        if trace is not None:
            ended = now()
            started = ended - stats.elapsed
            trace.spans.add("bgp", started, started + phase1)
            trace.spans.add("postprocess", started + phase1, ended)
            trace.meta["base_solutions"] = base_count
            trace.finish(stats)
        return QueryResult(
            self.name,
            solutions,
            stats,
            phase_seconds={
                "bgp": phase1,
                "postprocess": stats.elapsed - phase1,
                "base_solutions": float(base_count),
            },
            trace=trace,
        )

    # ------------------------------------------------------------------
    def _postprocess(
        self,
        assignment: dict[Var, int],
        sim_clauses: list[SimClause],
        dist_clauses: list[DistClause],
        out: list[dict[Var, int]],
        stopwatch: Stopwatch,
        limit: int | None,
    ) -> None:
        """Filter/extend one base solution through the clause groups."""

        def resolve(term):
            if is_var(term):
                return assignment.get(term)
            return term

        if stopwatch.expired():
            return
        if limit is not None and len(out) >= limit:
            return

        # 2-ready first: pure filters, can preempt the whole branch.
        pending_sim: list[SimClause] = []
        for clause in sim_clauses:
            x, y = resolve(clause.x), resolve(clause.y)
            if x is not None and y is not None:
                adjacency = self._db.adjacency_for(clause.relation)
                if not adjacency.is_knn(x, y, clause.k):
                    return
            else:
                pending_sim.append(clause)
        pending_dist: list[DistClause] = []
        for clause in dist_clauses:
            x, y = resolve(clause.x), resolve(clause.y)
            if x is not None and y is not None:
                if not self._db.distance_index.contains(x, y, clause.d):
                    return
            else:
                pending_dist.append(clause)

        if not pending_sim and not pending_dist:
            out.append(dict(assignment))
            return

        # ready next: extend through the direct or reverse graph.
        for idx, clause in enumerate(pending_sim):
            x, y = resolve(clause.x), resolve(clause.y)
            if x is not None or y is not None:
                remaining = pending_sim[:idx] + pending_sim[idx + 1 :]
                adjacency = self._db.adjacency_for(clause.relation)
                if x is not None:
                    var, values = clause.y, adjacency.neighbors_of(
                        x, clause.k
                    )
                else:
                    var, values = clause.x, (
                        adjacency.reverse_neighbors_of(y, clause.k)
                    )
                for value in values:
                    assignment[var] = int(value)
                    self._postprocess(
                        assignment, remaining, pending_dist, out,
                        stopwatch, limit,
                    )
                    del assignment[var]
                return
        for idx, clause in enumerate(pending_dist):
            x, y = resolve(clause.x), resolve(clause.y)
            if x is not None or y is not None:
                remaining = pending_dist[:idx] + pending_dist[idx + 1 :]
                anchor = x if x is not None else y
                var = clause.y if x is not None else clause.x
                values = self._db.distance_index.neighbors_within(
                    anchor, clause.d
                )
                for value in values:
                    assignment[var] = int(value)
                    self._postprocess(
                        assignment, pending_sim, remaining, out,
                        stopwatch, limit,
                    )
                    del assignment[var]
                return
        # Only sim clauses with both sides unresolved remain; they were
        # ruled out statically by _check_supported.
        raise QueryError(  # pragma: no cover - guarded statically
            "unreachable: disconnected similarity clause at runtime"
        )
