"""Strategy auto-selection based on the paper's Sec. 6.2 findings.

The evaluation's summary: "In simpler cases (Q1), Ring-KNN-S is more
effective by exploiting the opportunity of binding the variables
involved in similarity clauses earlier ... As the queries get more
complicated, however, with more similarity constraints or with
constraints involved in cycles (Q2 onwards), the careful variable
ordering of Ring-KNN protects it against bad cases."

:class:`AutoEngine` encodes that decision rule: queries with at most one
similarity clause and an acyclic constraint graph run under the
unrestricted Ring-KNN-S ordering; everything else — multiple clauses,
2-cycles from the symmetric operator, general cycles — runs under the
constraint-aware Ring-KNN ordering (which also carries the Thm. 2/3 wco
guarantees where they apply).
"""

from __future__ import annotations

from repro.bounds.constraint_graph import ConstraintGraph
from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.query.model import ExtendedBGP


class AutoEngine:
    """Pick Ring-KNN or Ring-KNN-S per query, per the Sec. 6.2 summary."""

    name = "auto"

    def __init__(
        self,
        db: GraphDatabase,
        exact_estimates: bool = False,
        cache: object | None = None,
    ) -> None:
        self._db = db
        self._ring_knn = RingKnnEngine(db, exact_estimates=exact_estimates)
        self._ring_knn_s = RingKnnSEngine(db, exact_estimates=exact_estimates)
        self._owned_store: object | None = None
        #: Optional :class:`repro.cache.QueryCache` probed before and
        #: filled after every full (un-limited) evaluation.
        self.cache = cache

    @classmethod
    def from_index(
        cls,
        path: str,
        exact_estimates: bool = False,
        verify: bool = True,
    ) -> "AutoEngine":
        """Construct an engine over an mmap-loaded persistent index.

        The engine owns the store it loaded: :meth:`close` releases the
        mapping.
        """
        db = GraphDatabase.from_index(path, verify=verify)
        engine = cls(db, exact_estimates=exact_estimates)
        engine._owned_store = db.store
        return engine

    def close(self) -> None:
        """Release the index-store mapping when this engine was built
        via :meth:`from_index`; a no-op otherwise."""
        store = self._owned_store
        self._owned_store = None
        if store is not None:
            store.close()  # type: ignore[attr-defined]

    def select(self, query: ExtendedBGP) -> str:
        """Return the chosen engine name for ``query``."""
        n_constraints = len(query.clauses) + len(query.dist_clauses)
        if n_constraints <= 1 and ConstraintGraph(query).is_acyclic():
            return self._ring_knn_s.name
        return self._ring_knn.name

    def evaluate(
        self,
        query: ExtendedBGP,
        timeout: float | None = None,
        limit: int | None = None,
        trace: object | None = None,
    ) -> QueryResult:
        """Evaluate with the per-query selected strategy.

        The result's ``engine`` field names the strategy actually used;
        with ``trace``, the selection and its reason land in
        ``trace.meta["auto"]``.

        When a :attr:`cache` is attached and no ``limit`` is set, the
        cache is probed before execution and filled afterwards; a hit
        returns the replayed result (``cached=True``) and, with
        ``trace``, records a ``cache_hit`` event in
        ``trace.meta["cache"]`` with the replayed counters — never
        silent zeros.
        """
        selected = self.select(query)
        if trace is not None:
            n_constraints = len(query.clauses) + len(query.dist_clauses)
            trace.meta["auto"] = {
                "selected": selected,
                "constraints": n_constraints,
                "acyclic": ConstraintGraph(query).is_acyclic(),
            }
        cache = self.cache if limit is None else None
        cache_info: dict[str, object] = {}
        if cache is not None:
            hit = cache.probe(  # type: ignore[attr-defined]
                self._db, query, engine=selected, meta=cache_info
            )
            if hit is not None:
                if trace is not None:
                    if trace.engine is None:
                        trace.engine = hit.engine
                    trace.meta["cache"] = cache_info
                    trace.finish(hit.stats)
                    hit.trace = trace
                return hit
        if selected == self._ring_knn_s.name:
            result = self._ring_knn_s.evaluate(
                query, timeout=timeout, limit=limit, trace=trace
            )
        else:
            result = self._ring_knn.evaluate(
                query, timeout=timeout, limit=limit, trace=trace
            )
        if cache is not None:
            cache.fill(  # type: ignore[attr-defined]
                self._db, query, result, engine=selected, meta=cache_info
            )
            if trace is not None:
                trace.meta["cache"] = cache_info
        return result
