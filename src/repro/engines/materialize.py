"""The materialization strawman (Sec. 3.2 of the paper).

For every clause ``x <|_k y`` it *materializes* the relation
``kNN(.,.)`` — all pairs ``(a, b)`` with ``b in k-NN(a)`` — as triples
under a fresh predicate, sorts and indexes them into their own LTJ
tries (a dedicated Ring), and runs classic LTJ on the rewritten query.

The paper dismisses this approach because the extraction + sorting +
re-indexing cost is paid before query processing even starts (their
measurement: 260 s of setup against 1.3-103 s total for the integrated
index). :class:`MaterializeEngine` reports the two phases separately so
the materialization-cost experiment (E7 in DESIGN.md) can reproduce that
comparison.
"""

from __future__ import annotations

from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.graph.triples import GraphData
from repro.ltj.engine import LTJEngine
from repro.ltj.ordering import MinCandidatesOrdering
from repro.ltj.triple_relation import RingTripleRelation
from repro.obs.spans import now
from repro.query.model import ExtendedBGP, TriplePattern
from repro.ring.index import RingIndex
from repro.utils.errors import QueryError


class MaterializeEngine:
    """Materialize ``kNN`` relations into triples, then run plain LTJ."""

    name = "materialize"

    def __init__(self, db: GraphDatabase) -> None:
        self._db = db

    def evaluate(
        self,
        query: ExtendedBGP,
        timeout: float | None = None,
        limit: int | None = None,
        trace: object | None = None,
    ) -> QueryResult:
        self._db.validate_query(query)
        if query.dist_clauses:
            raise QueryError(
                "materialization strawman only covers <|_k clauses"
            )

        started = now()
        # Phase 1: extract the k-prefixes of the K-NN lists per clause
        # and sort/index them as the relation kNN(.,.) under a fresh
        # predicate id (one per distinct k, since the pairs depend on
        # k). As in Sec. 3.2, the relation gets its *own* LTJ tries — a
        # separate Ring — so data patterns never see the virtual pairs.
        base_domain = self._db.graph.domain_size
        for graph in self._db.knn_graphs.values():
            if graph.num_members:
                base_domain = max(base_domain, int(graph.members.max()) + 1)
        predicate_for: dict[tuple[str, int], int] = {}
        extra_triples: list[tuple[int, int, int]] = []
        clause_patterns: list[TriplePattern] = []
        for clause in query.clauses:
            key = (clause.relation, clause.k)
            pred = predicate_for.get(key)
            if pred is None:
                pred = base_domain + len(predicate_for)
                predicate_for[key] = pred
                knn = self._db.knn_graphs[clause.relation]
                for u in knn.members:
                    u = int(u)
                    for v in knn.neighbors_of(u, clause.k):
                        extra_triples.append((u, pred, int(v)))
            clause_patterns.append(TriplePattern(clause.x, pred, clause.y))
        knn_ring = RingIndex(GraphData(extra_triples))
        materialized = now()

        # Phase 2: classic LTJ; data patterns run over the existing data
        # Ring, the rewritten clause patterns over the kNN-pairs Ring.
        remaining = None
        if timeout is not None:
            remaining = max(0.0, timeout - (materialized - started))
        relations = [
            RingTripleRelation(self._db.ring, t) for t in query.triples
        ]
        relations.extend(
            RingTripleRelation(knn_ring, t) for t in clause_patterns
        )
        engine = LTJEngine(
            relations,
            ordering=MinCandidatesOrdering(),
            timeout=remaining,
            limit=limit,
            trace=trace,
        )
        if trace is None:
            solutions = engine.evaluate()
        else:
            trace.meta["materialized_pairs"] = len(extra_triples)
            # Two Rings are live here: the data Ring and the fresh Ring
            # over the materialized kNN pairs.
            wavelets = [(self._db.ring.column(c), "ring") for c in "spo"]
            wavelets.extend(
                (knn_ring.column(c), "materialized_ring") for c in "spo"
            )
            with trace.observe(self.name, query, wavelets):
                solutions = engine.evaluate()
        ended = now()
        stats = engine.stats
        stats.elapsed = ended - started
        if trace is not None:
            trace.finish(stats)
        result = QueryResult(self.name, solutions, stats, trace=trace)
        setup = result.spans.add("materialize", started, materialized)
        setup.attrs["materialized_pairs"] = len(extra_triples)
        result.spans.add("query", materialized, ended)
        return result
