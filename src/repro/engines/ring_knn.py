"""The Ring-KNN and Ring-KNN-S engines (Secs. 5.1-5.2).

Both compile an extended BGP into leapfrog relations — triple patterns
over the Ring, similarity clauses over the succinct K-NN structure,
distance clauses over the distance-range index — and run the LTJ engine.
They differ *only* in the variable-ordering strategy:

* **Ring-KNN** uses :class:`ConstraintAwareOrdering`, never binding the
  target ``y`` of an unresolved ``x <|_k y`` edge while an unmarked
  variable exists (the wco recipe of Sec. 4);
* **Ring-KNN-S** uses the unrestricted :class:`MinCandidatesOrdering`,
  "free to bind y before x" (Sec. 5.1).
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.ltj.distance_relation import DistanceClauseRelation
from repro.ltj.engine import LTJEngine
from repro.ltj.knn_relation import KnnClauseRelation
from repro.ltj.ordering import (
    ConstraintAwareOrdering,
    MinCandidatesOrdering,
    OrderingStrategy,
)
from repro.ltj.solutions import raw_limit
from repro.ltj.triple_relation import RingTripleRelation
from repro.obs.trace import attach_wavelets, instrument_relations, wavelet_targets
from repro.query.model import ExtendedBGP


class _RingEngineBase:
    """Shared compile-and-run logic of the two Ring variants."""

    name = "ring-base"

    def __init__(self, db: GraphDatabase) -> None:
        self._db = db

    def _ordering(self, query: ExtendedBGP) -> OrderingStrategy:
        raise NotImplementedError

    def compile(self, query: ExtendedBGP) -> list[object]:
        """Build the leapfrog relations for a query (fresh state)."""
        self._db.validate_query(query)
        relations: list[object] = [
            RingTripleRelation(self._db.ring, t) for t in query.triples
        ]
        relations.extend(
            KnnClauseRelation(self._db.knn_ring_for(c.relation), c)
            for c in query.clauses
        )
        relations.extend(
            DistanceClauseRelation(self._db.distance_index, c)
            for c in query.dist_clauses
        )
        return relations

    def evaluate(
        self,
        query: ExtendedBGP,
        timeout: float | None = None,
        limit: int | None = None,
        project: list | None = None,
        distinct: bool = False,
        trace: object | None = None,
    ) -> QueryResult:
        """Run the query, returning solutions and instrumentation.

        Args:
            query: the extended BGP.
            timeout: wall-clock budget in seconds (sets ``timed_out``).
            limit: cap on the number of (projected) solutions.
            project: keep only these variables in each solution
                (SPARQL SELECT-style projection).
            distinct: deduplicate the (projected) solutions.
            trace: optional :class:`~repro.obs.trace.QueryTrace`. When
                given, per-variable/relation/wavelet counters are
                recorded and the trace is attached to the result.
        """
        relations = self.compile(query)
        engine = LTJEngine(
            relations,
            ordering=self._ordering(query),
            timeout=timeout,
            limit=raw_limit(limit, project, distinct),
            trace=trace,
        )
        if trace is None:
            attached = nullcontext()
        else:
            trace.engine = self.name
            if trace.query is None:
                trace.query = repr(query)
            instrument_relations(trace, relations)
            attached = attach_wavelets(wavelet_targets(trace, self._db, query))
        with attached:
            timed = (
                nullcontext() if trace is None
                else trace.spans.span("evaluate")
            )
            with timed:
                solutions = engine.evaluate().select(project, distinct, limit)
        return QueryResult(self.name, solutions, engine.stats, trace=trace)


class RingKnnEngine(_RingEngineBase):
    """Ring-KNN: constraint-aware ordering (the paper's full technique)."""

    name = "ring-knn"

    def _ordering(self, query: ExtendedBGP) -> OrderingStrategy:
        return ConstraintAwareOrdering()


class RingKnnSEngine(_RingEngineBase):
    """Ring-KNN-S: unrestricted adaptive min-``l_x`` ordering."""

    name = "ring-knn-s"

    def _ordering(self, query: ExtendedBGP) -> OrderingStrategy:
        return MinCandidatesOrdering()


#: The two LTJ strategies by name: what ``auto`` chooses between, what a
#: pool task names and what ``explain`` can plan.
RING_ENGINES = {cls.name: cls for cls in (RingKnnEngine, RingKnnSEngine)}
