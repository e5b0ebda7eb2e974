"""The indexed database shared by all engines.

Owns the graph and its indexes:

* the :class:`~repro.ring.index.RingIndex` over the triples;
* one :class:`~repro.knn.succinct.KnnRing` per named K-NN relation
  (Sec. 3.1 allows several independent similarity relations in the same
  queries; the unnamed one is ``"default"``), each built once for its
  construction-time ``K`` — queries may use any ``k <= K`` (Sec. 3.2);
* lazily, the plain :class:`~repro.knn.adjacency.KnnAdjacency` forms
  the baseline uses (so Ring-only workloads don't pay for them);
* optionally a :class:`~repro.knn.distance_index.DistanceRangeIndex`
  for ``dist(x, y) <= d`` clauses.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from repro.knn.distance_index import DistanceRangeIndex
from repro.knn.succinct import KnnRing
from repro.query.model import DEFAULT_RELATION, ExtendedBGP
from repro.ring.index import RingIndex
from repro.succinct.fields import Child, Layout, Transient
from repro.utils.errors import QueryError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.triples import GraphData
    from repro.knn.adjacency import KnnAdjacency
    from repro.knn.graph import KnnGraph


class GraphDatabase:
    """A graph database plus (optional) similarity structures."""

    # Only the succinct structures persist: the query path
    # (validate_query, the Ring engines, the LTJ relations) touches
    # nothing else. The raw graph/K-NN tables never reach a worker or
    # an index file; the engines that need them (baseline, classic,
    # materialize) refuse an attached database.
    LAYOUT = Layout(
        "database",
        Child("ring", RingIndex),
        Child("knn_rings", KnnRing, "dict"),
        Child("distance_index", DistanceRangeIndex, "optional"),
        Transient("graph"),
        Transient("knn_graphs", {}),
        Transient("_adjacency", {}),
    )

    def __init__(
        self,
        graph: GraphData,
        knn_graph: KnnGraph | None = None,
        distance_index: DistanceRangeIndex | None = None,
        knn_graphs: dict[str, KnnGraph] | None = None,
    ) -> None:
        """Index a graph with zero or more K-NN relations.

        Args:
            graph: the edge set.
            knn_graph: the primary (``"default"``) K-NN relation.
            distance_index: optional range-similarity index.
            knn_graphs: additional named K-NN relations; may not contain
                ``"default"`` if ``knn_graph`` is also given.
        """
        self.graph = graph
        self.ring = RingIndex(graph)
        self.knn_graphs: dict[str, KnnGraph] = dict(knn_graphs or {})
        if knn_graph is not None:
            if DEFAULT_RELATION in self.knn_graphs:
                raise ValidationError(
                    "pass the default K-NN relation either as knn_graph or "
                    "inside knn_graphs, not both"
                )
            self.knn_graphs[DEFAULT_RELATION] = knn_graph
        self.knn_rings: dict[str, KnnRing] = {
            name: KnnRing(g) for name, g in self.knn_graphs.items()
        }
        self.distance_index = distance_index
        self._adjacency: dict[str, KnnAdjacency] = {}

    # ------------------------------------------------------------------
    # persistent-store construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, path: str) -> "GraphDatabase":
        """Attach a database zero-copy from a persistent index file.

        Only the header and the manifest are read and checked here; each
        array is held to its checksum at the first read of the structure
        that owns it (:func:`repro.store.load`).

        The returned database carries only the succinct structures (the
        raw ``graph``/``knn_graphs`` tables are not part of the
        artifact — what every pool worker opens too), so the Ring/K-NN
        engines work but the baseline family does not. The backing
        :class:`~repro.store.IndexStore` is reachable as ``db._store``
        and owns the mapping's lifetime; worker pools detect it and
        hand their workers this file instead of saving a scratch copy.
        """
        from repro.store import load

        return load(path).database

    @property
    def store(self) -> object | None:
        """The backing :class:`~repro.store.IndexStore`, if mmap-loaded."""
        return getattr(self, "_store", None)

    # ------------------------------------------------------------------
    # mutation epoch (cache invalidation)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Mutation epoch stamped into :mod:`repro.cache` entries.

        The base is the persistent store's whole-file checksum (written
        at build, never verified on load) when this
        database is mmap-backed (so a hot index replace — a different
        file behind the same server — invalidates every cached entry on
        first lookup) and 0 for an in-memory build; each
        :meth:`bump_epoch` call adds one on top. ``getattr`` defaults
        keep both accessors safe on instances rebuilt without running
        ``__init__`` (every :func:`repro.store.load`, a pool worker's
        included).
        """
        base = 0
        store = getattr(self, "_store", None)
        if store is not None:
            header = getattr(store, "header", None)
            if header is not None:
                base = int(getattr(header, "checksum", 0))
        return base + int(getattr(self, "_mutations", 0))

    def bump_epoch(self) -> None:
        """Record a graph mutation: every cached result becomes stale.

        The indexes themselves are immutable today; embedders that
        rebuild or patch the underlying structures in place call this
        so :class:`~repro.cache.QueryCache` drops entries produced
        against the old contents.
        """
        self._mutations = int(getattr(self, "_mutations", 0)) + 1

    def close(self) -> None:
        """Release runtime resources bound to this database.

        Closes every cached worker pool keyed on this instance (their
        processes and scratch files) and, for a store-backed
        database, the backing mmap. Idempotent; an in-memory database
        with no pools is a no-op. Owners that open a database per
        request (the CLI, embedders) must call this — dropping the
        last reference leaks the mapping until process exit, which is
        exactly what the test suite's leak check flags.
        """
        # Pools exist only once the executor has been imported; a
        # process that never pooled does not load it to find that out.
        executor = sys.modules.get("repro.parallel.executor")
        if executor is not None:
            executor.close_pools_for(self)
        store = getattr(self, "_store", None)
        if store is not None:
            self._store = None
            # The structures are views of the mapping, and whoever calls
            # this holds the database: they go first, or the mapping
            # cannot close.
            self.ring = None  # type: ignore[assignment]
            self.knn_rings = {}
            self.distance_index = None
            store.close()

    # ------------------------------------------------------------------
    # default-relation conveniences (most code uses a single relation)
    # ------------------------------------------------------------------
    @property
    def knn_graph(self) -> KnnGraph | None:
        """The ``"default"`` K-NN graph, if any."""
        return self.knn_graphs.get(DEFAULT_RELATION)

    @property
    def knn_ring(self) -> KnnRing | None:
        """The ``"default"`` succinct K-NN structure, if any."""
        return self.knn_rings.get(DEFAULT_RELATION)

    @property
    def adjacency(self) -> KnnAdjacency:
        """Plain-form adjacency of the default relation (baseline only)."""
        return self.adjacency_for(DEFAULT_RELATION)

    def adjacency_for(self, relation: str) -> KnnAdjacency:
        """Plain-form adjacency of a named relation, built on first use."""
        if relation not in self.knn_graphs:
            raise QueryError(f"database has no K-NN relation {relation!r}")
        if relation not in self._adjacency:
            from repro.knn.adjacency import KnnAdjacency

            self._adjacency[relation] = KnnAdjacency(
                self.knn_graphs[relation]
            )
        return self._adjacency[relation]

    def knn_ring_for(self, relation: str) -> KnnRing:
        """Succinct structure of a named relation."""
        try:
            return self.knn_rings[relation]
        except KeyError:
            raise QueryError(
                f"database has no K-NN relation {relation!r} "
                f"(available: {sorted(self.knn_rings) or 'none'})"
            ) from None

    def validate_query(self, query: ExtendedBGP) -> None:
        """Check that the database has the structures the query needs."""
        for clause in query.clauses:
            ring = self.knn_rings.get(clause.relation)
            if ring is None:
                raise QueryError(
                    f"query uses <|_k on relation {clause.relation!r} but "
                    "the database has no such K-NN graph"
                )
            if clause.k > ring.K:
                raise QueryError(
                    f"query uses k={clause.k} > construction-time K="
                    f"{ring.K} on relation {clause.relation!r} "
                    "(Sec. 3.2: K is fixed at indexing)"
                )
        if query.dist_clauses:
            if self.distance_index is None:
                raise QueryError(
                    "query uses dist clauses but the database has no "
                    "distance-range index"
                )
            worst = max(c.d for c in query.dist_clauses)
            if worst > self.distance_index.d_max:
                raise QueryError(
                    f"query distance {worst} exceeds index d_max="
                    f"{self.distance_index.d_max}"
                )

    # ------------------------------------------------------------------
    # space accounting (Sec. 6.2's space paragraph)
    # ------------------------------------------------------------------
    def ring_size_in_bytes(self) -> int:
        """Ring + succinct K-NN structures (what the Ring variants use)."""
        return self.ring.size_in_bytes() + sum(
            ring.size_in_bytes() for ring in self.knn_rings.values()
        )

    def baseline_size_in_bytes(self) -> int:
        """Ring + plain K-NN adjacency (what the baseline uses)."""
        return self.ring.size_in_bytes() + sum(
            self.adjacency_for(name).size_in_bytes()
            for name in self.knn_graphs
        )

    def raw_size_in_bytes(self) -> int:
        """Plain edge table + plain K-NN tables ("raw data" reference)."""
        return self.graph.size_in_bytes() + sum(
            g.size_in_bytes() for g in self.knn_graphs.values()
        )
