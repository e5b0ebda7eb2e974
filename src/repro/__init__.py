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
geo range joins; the public API surface is re-exported below. Every
engine returns a ``QueryResult`` whose ``solutions`` is a ``Solutions``
— it reads like a list of ``{Var: int}`` dicts and is one int64 row
matrix (``solutions.variables``, ``solutions.rows``).
"""

from repro.engines import (
    AutoEngine,
    BaselineEngine,
    ClassicSixPermEngine,
    GraphDatabase,
    KStarResult,
    MaterializeEngine,
    QueryResult,
    RingKnnEngine,
    RingKnnSEngine,
    Solutions,
    evaluate_k_star,
)
from repro.explain import PlanReport, explain
from repro.graph import GraphData, TermDictionary
from repro.knn import (
    DistanceRangeIndex,
    KnnGraph,
    KnnRing,
    build_knn_graph,
)
from repro.query import (
    DistClause,
    ExtendedBGP,
    SimClause,
    TriplePattern,
    UndirectedSim,
    Var,
    orient_clauses,
    parse_query,
    sym_clauses,
    symmetric_to_directed,
)

__version__ = "1.0.0"

__all__ = [
    "GraphData",
    "TermDictionary",
    "KnnGraph",
    "KnnRing",
    "DistanceRangeIndex",
    "build_knn_graph",
    "Var",
    "TriplePattern",
    "SimClause",
    "DistClause",
    "sym_clauses",
    "ExtendedBGP",
    "parse_query",
    "UndirectedSim",
    "orient_clauses",
    "symmetric_to_directed",
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
    "explain",
    "PlanReport",
    "__version__",
]
