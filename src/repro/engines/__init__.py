"""Query engines (Sec. 5 of the paper).

* :class:`RingKnnEngine` — the full technique: extended LTJ over the
  Ring + succinct K-NN structure with the constraint-aware variable
  ordering (**Ring-KNN**, Sec. 5.2).
* :class:`RingKnnSEngine` — same machinery with the unrestricted
  adaptive ordering (**Ring-KNN-S**, Sec. 5.1).
* :class:`BaselineEngine` — classic LTJ over the triples followed by
  similarity post-processing on plain adjacency (Sec. 5.3).
* :class:`MaterializeEngine` — the Sec. 3.2 strawman that materializes
  each ``kNN(.,.)`` relation into triples and re-indexes before running
  plain LTJ (used by the materialization-cost experiment).
* :func:`evaluate_k_star` — the Sec. 7 "k* best results" semantics.

All engines operate on a shared :class:`GraphDatabase`, which owns the
indexes, and return :class:`QueryResult` objects.

The engine *names* live here and nowhere else: :data:`ENGINES`,
:data:`INDEX_ENGINES` and :data:`RING_ENGINES` are what the CLI's
``choices``, the wire schema's enums, the pool workers, the server and
``explain`` all read.
"""

from repro.engines.auto import AutoEngine
from repro.engines.baseline import BaselineEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.database import GraphDatabase
from repro.engines.kstar import KStarResult, evaluate_k_star
from repro.engines.materialize import MaterializeEngine
from repro.engines.result import QueryResult, Solutions
from repro.engines.ring_knn import (
    RING_ENGINES,
    RingKnnEngine,
    RingKnnSEngine,
)

#: Engines that answer from the succinct index alone — all a persistent
#: index file (``--from-index``), a pool worker or the server can run.
INDEX_ENGINES = {AutoEngine.name: AutoEngine, **RING_ENGINES}

#: Every engine by name. Those not in :data:`INDEX_ENGINES` read the raw
#: graph / K-NN tables, which only a bundle-built database carries.
ENGINES = {
    **INDEX_ENGINES,
    **{
        cls.name: cls
        for cls in (BaselineEngine, MaterializeEngine, ClassicSixPermEngine)
    },
}

__all__ = [
    "ENGINES",
    "INDEX_ENGINES",
    "RING_ENGINES",
    "GraphDatabase",
    "QueryResult",
    "Solutions",
    "RingKnnEngine",
    "RingKnnSEngine",
    "BaselineEngine",
    "MaterializeEngine",
    "ClassicSixPermEngine",
    "AutoEngine",
    "evaluate_k_star",
    "KStarResult",
]
