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

from typing import TYPE_CHECKING

from repro.bounds.constraint_graph import ConstraintGraph
from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.engines.ring_knn import RING_ENGINES, RingKnnEngine, RingKnnSEngine
from repro.query.model import ExtendedBGP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import QueryCache
    from repro.obs.trace import QueryTrace


class AutoEngine:
    """Pick Ring-KNN or Ring-KNN-S per query, per the Sec. 6.2 summary."""

    name = "auto"

    def __init__(
        self, db: GraphDatabase, cache: QueryCache | None = None
    ) -> None:
        self._db = db
        self._strategies = {
            name: cls(db) for name, cls in RING_ENGINES.items()
        }
        self._owned_store: object | None = None
        #: Optional :class:`repro.cache.QueryCache` probed before and
        #: filled after every full (un-limited) evaluation.
        self.cache = cache

    @classmethod
    def from_index(cls, path: str, verify: bool = True) -> "AutoEngine":
        """Construct an engine over an mmap-loaded persistent index.

        The engine owns the store it loaded: :meth:`close` releases the
        mapping.
        """
        db = GraphDatabase.from_index(path, verify=verify)
        engine = cls(db)
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
            return RingKnnSEngine.name
        return RingKnnEngine.name

    def evaluate(
        self,
        query: ExtendedBGP,
        timeout: float | None = None,
        limit: int | None = None,
        trace: QueryTrace | None = None,
    ) -> QueryResult:
        """Evaluate with the per-query selected strategy.

        The result's ``engine`` field names the strategy actually used;
        with ``trace``, the selection and its reason land in
        ``trace.meta["auto"]``.

        When a :attr:`cache` is attached and no ``limit`` is set (a
        truncated result must not be replayed as the full one), the
        evaluation goes through :meth:`repro.cache.QueryCache.evaluate`:
        a hit returns the replayed result (``cached=True``).
        """
        selected = self.select(query)
        if trace is not None:
            n_constraints = len(query.clauses) + len(query.dist_clauses)
            trace.meta["auto"] = {
                "selected": selected,
                "constraints": n_constraints,
                "acyclic": ConstraintGraph(query).is_acyclic(),
            }
        strategy = self._strategies[selected]
        if self.cache is None or limit is not None:
            return strategy.evaluate(
                query, timeout=timeout, limit=limit, trace=trace
            )
        return self.cache.evaluate(
            self._db,
            query,
            engine=selected,
            run=lambda: strategy.evaluate(query, timeout=timeout, trace=trace),
            trace=trace,
        )
