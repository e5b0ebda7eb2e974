"""Ablation engine: classic six-permutation index instead of the Ring.

Sec. 1 of the paper notes that wco algorithms "typically require extra
index permutations, and thus more space" — the Ring's contribution is
removing that overhead. :class:`ClassicSixPermEngine` evaluates the
same extended BGPs with the same LTJ machinery and the same succinct
K-NN clauses, but backs triple patterns by the six sorted permutations.
It gives the space/time ablation: ~6x the raw data in space, with
array-binary-search navigation.
"""

from __future__ import annotations

from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.graph.sixperm import SixPermIndex
from repro.ltj.distance_relation import DistanceClauseRelation
from repro.ltj.engine import LTJEngine
from repro.ltj.knn_relation import KnnClauseRelation
from repro.ltj.ordering import ConstraintAwareOrdering
from repro.ltj.sixperm_relation import SixPermTripleRelation
from repro.obs.trace import attach_wavelets, instrument_relations, wavelet_targets
from repro.query.model import ExtendedBGP


class ClassicSixPermEngine:
    """Extended LTJ over six sorted permutations (space-heavy classic)."""

    name = "sixperm-knn"

    def __init__(self, db: GraphDatabase) -> None:
        self._db = db
        self._index = SixPermIndex(db.graph)

    @property
    def index(self) -> SixPermIndex:
        return self._index

    def compile(self, query: ExtendedBGP) -> list[object]:
        self._db.validate_query(query)
        relations: list[object] = [
            SixPermTripleRelation(self._index, t) for t in query.triples
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
        trace: object | None = None,
    ) -> QueryResult:
        relations = self.compile(query)
        engine = LTJEngine(
            relations,
            ordering=ConstraintAwareOrdering(),
            timeout=timeout,
            limit=limit,
            trace=trace,
        )
        if trace is None:
            solutions = engine.evaluate()
            return QueryResult(self.name, solutions, engine.stats)
        trace.engine = self.name
        if trace.query is None:
            trace.query = repr(query)
        instrument_relations(trace, relations)
        # Six-permutation triple patterns run over sorted arrays, not
        # wavelet trees, so only the K-NN/distance structures apply.
        pairs = wavelet_targets(trace, self._db, query, include_ring=False)
        with attach_wavelets(pairs), trace.spans.span("evaluate"):
            solutions = engine.evaluate()
        return QueryResult(self.name, solutions, engine.stats, trace=trace)

    def size_in_bytes(self) -> int:
        """Index footprint (six permutations + succinct K-NN)."""
        return self._index.size_in_bytes() + sum(
            ring.size_in_bytes() for ring in self._db.knn_rings.values()
        )
