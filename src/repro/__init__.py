"""Worst-case-optimal similarity joins on graph databases.

A from-scratch Python reproduction of Arroyuelo, Bustos, Gómez-Brandón,
Hogan, Navarro & Reutter, *Worst-Case-Optimal Similarity Joins on Graph
Databases* (SIGMOD 2024): the Ring index, the succinct K-NN structure
(S, S', B), Leapfrog TrieJoin extended with ``x <|_k y`` similarity
clauses, the Ring-KNN / Ring-KNN-S variable orderings, the Sec. 5.3
baseline, the output-size linear programs, and the full experimental
harness (Figures 2-3 plus the space and materialization measurements).

Start with the worked examples rather than inline snippets — they stay
runnable (and seeded, like every dataset builder)::

    python examples/quickstart.py        # graph + K-NN + one mixed query
    python examples/query_plans.py       # EXPLAIN / EXPLAIN ANALYZE tour

``examples/`` also covers multimedia search, social recommendation and
geo range joins; the public API surface is re-exported below, each
name imported at its first use (:mod:`repro.utils.lazy`). Every engine
returns a ``QueryResult`` whose ``solutions`` is a ``Solutions``
— it reads like a list of ``{Var: int}`` dicts, holds the search's rows
as one flat int64 ``array('q')`` (no numpy needed to read them), and
``solutions.columns(order)`` copies them out with the columns in
``order``.
"""

import sys
from types import ModuleType
from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engines import (
        AutoEngine, BaselineEngine, ClassicSixPermEngine, GraphDatabase, KStarResult,
        MaterializeEngine, QueryResult, RingKnnEngine, RingKnnSEngine, Solutions,
        evaluate_k_star,
    )
    from repro.explain import PlanReport, explain
    from repro.graph import GraphData, TermDictionary
    from repro.knn import DistanceRangeIndex, KnnGraph, KnnRing, build_knn_graph
    from repro.query import (
        DistClause, ExtendedBGP, SimClause, TriplePattern, UndirectedSim, Var,
        orient_clauses, parse_query, sym_clauses, symmetric_to_directed,
    )

__version__ = "1.0.0"

__all__ = [
    "GraphData", "TermDictionary", "KnnGraph", "KnnRing", "DistanceRangeIndex",
    "build_knn_graph", "Var", "TriplePattern", "SimClause", "DistClause",
    "sym_clauses", "ExtendedBGP", "parse_query", "UndirectedSim",
    "orient_clauses", "symmetric_to_directed", "GraphDatabase", "QueryResult",
    "Solutions", "RingKnnEngine", "RingKnnSEngine", "BaselineEngine",
    "MaterializeEngine", "ClassicSixPermEngine", "AutoEngine",
    "evaluate_k_star", "KStarResult", "explain", "PlanReport", "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "engines": (
        "AutoEngine", "BaselineEngine", "ClassicSixPermEngine", "GraphDatabase",
        "KStarResult", "MaterializeEngine", "QueryResult", "RingKnnEngine",
        "RingKnnSEngine", "Solutions", "evaluate_k_star",
    ),
    "explain": ("PlanReport", "explain"),
    "graph": ("GraphData", "TermDictionary"),
    "knn": ("DistanceRangeIndex", "KnnGraph", "KnnRing", "build_knn_graph"),
    "query": (
        "DistClause", "ExtendedBGP", "SimClause", "TriplePattern", "UndirectedSim",
        "Var", "orient_clauses", "parse_query", "sym_clauses", "symmetric_to_directed",
    ),
})


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Importing the submodule ``repro.explain`` binds it here, over
        # the function exported under that name: the function keeps it.
        if name != "explain" or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
