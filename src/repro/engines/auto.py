"""Strategy auto-selection: constraint marks only where a theorem backs them.

The paper's Sec. 6.2 summary favours Ring-KNN's careful ordering once
queries carry "more similarity constraints or ... constraints involved
in cycles (Q2 onwards)". Its guarantees are narrower: Thm. 2 covers an
acyclic constraint graph and Thm. 3 a single 2-cyclic one (Def. 12).
Beyond them the marks are a heuristic, and at this repository's scale a
costly one: on two 2-cycles (Q2b) or a 3-cycle (Q2t) they bind three
entity stars, a cross product, before any similarity variable, while the
unmarked min-``l_x`` order binds a star, its image and that image's
``<= k`` neighbour first (``docs/performance.md``, "The order").

:class:`AutoEngine` therefore runs Ring-KNN exactly when a query has at
least two constraints and its constraint graph meets Thm. 2's or Thm.
3's premise (:meth:`ConstraintGraph.constraint_class`). Every other
query runs under Ring-KNN-S: one constraint or none, as the summary's
Q1 finding asks, and cycles beyond Def. 12, where no theorem holds.
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
    """Pick Ring-KNN where Thm. 2 or 3 backs its marks, else Ring-KNN-S."""

    name = "auto"

    def __init__(
        self, db: GraphDatabase, cache: QueryCache | None = None
    ) -> None:
        self._db = db
        self._strategies = {
            name: cls(db) for name, cls in RING_ENGINES.items()
        }
        self._owned_db: GraphDatabase | None = None
        #: Optional :class:`repro.cache.QueryCache` probed before and
        #: filled after every full (un-limited) evaluation.
        self.cache = cache

    @classmethod
    def from_index(cls, path: str) -> "AutoEngine":
        """Construct an engine over an mmap-loaded persistent index.

        The engine owns the store it loaded: :meth:`close` releases the
        mapping.
        """
        db = GraphDatabase.from_index(path)
        engine = cls(db)
        engine._owned_db = db
        return engine

    def close(self) -> None:
        """Release the index-store mapping when this engine was built
        via :meth:`from_index`; a no-op otherwise."""
        db = self._owned_db
        self._owned_db = None
        if db is not None:
            db.close()

    def select(self, query: ExtendedBGP) -> str:
        """Return the chosen engine name for ``query``."""
        return self._decide(query)["selected"]

    @staticmethod
    def _decide(query: ExtendedBGP) -> dict:
        """The choice and what it was read from (``trace.meta["auto"]``)."""
        n_constraints = len(query.clauses) + len(query.dist_clauses)
        constraint_class = ConstraintGraph(query).constraint_class()
        theorem = n_constraints >= 2 and constraint_class != "general-cyclic"
        return {
            "selected": RingKnnEngine.name if theorem else RingKnnSEngine.name,
            "constraints": n_constraints,
            "constraint_class": constraint_class,
        }

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
        decision = self._decide(query)
        selected = decision["selected"]
        if trace is not None:
            trace.meta["auto"] = decision
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
