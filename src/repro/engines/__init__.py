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

The engine *names* live here and nowhere else: :data:`ENGINE_NAMES`,
:data:`ENGINES`, :data:`INDEX_ENGINES` and :data:`RING_ENGINES` are
what the CLI's ``choices``, the wire schema's enums, the pool workers,
the server and ``explain`` all read. Importing the package imports the
index engines only; the others are imported at their first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.engines.auto import AutoEngine
from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult, Solutions
from repro.engines.ring_knn import RING_ENGINES, RingKnnEngine, RingKnnSEngine
from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engines.baseline import BaselineEngine
    from repro.engines.classic import ClassicSixPermEngine
    from repro.engines.kstar import KStarResult, evaluate_k_star
    from repro.engines.materialize import MaterializeEngine

    ENGINES: dict[str, type]

#: Engines that answer from the succinct index alone — all a persistent
#: index file (``--from-index``), a pool worker or the server can run.
INDEX_ENGINES = {AutoEngine.name: AutoEngine, **RING_ENGINES}

#: The keys of :data:`ENGINES` (built at first use); those not in
#: :data:`INDEX_ENGINES` need the raw tables only a bundle carries.
ENGINE_NAMES = (*INDEX_ENGINES, "baseline", "materialize", "sixperm-knn")

__all__ = [
    "ENGINES", "ENGINE_NAMES", "INDEX_ENGINES", "RING_ENGINES", "GraphDatabase",
    "QueryResult", "Solutions", "RingKnnEngine", "RingKnnSEngine",
    "BaselineEngine", "MaterializeEngine", "ClassicSixPermEngine", "AutoEngine",
    "evaluate_k_star", "KStarResult",
]

_export, __dir__ = lazy_exports(__name__, {
    "baseline": ("BaselineEngine",), "classic": ("ClassicSixPermEngine",),
    "kstar": ("KStarResult", "evaluate_k_star"), "materialize": ("MaterializeEngine",),
})


def __getattr__(name: str) -> Any:
    if name != "ENGINES":
        return _export(name)
    from repro.engines.baseline import BaselineEngine
    from repro.engines.classic import ClassicSixPermEngine
    from repro.engines.materialize import MaterializeEngine

    global ENGINES
    others = (BaselineEngine, MaterializeEngine, ClassicSixPermEngine)
    ENGINES = {**INDEX_ENGINES, **{cls.name: cls for cls in others}}
    return ENGINES
