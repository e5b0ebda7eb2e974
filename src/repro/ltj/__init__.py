"""Leapfrog TrieJoin with similarity clauses (Secs. 2.2, 3.3, 4, 5).

The engine performs variable elimination: an ordering strategy picks the
next variable, a leapfrog intersection over all atoms containing it
enumerates its candidate values, and each candidate is bound in every
such atom before recursing — except the last variable of a branch,
whose candidates are solutions as they stand and are appended to the
row block a :class:`Solutions` wraps. The query is compiled once into a
:class:`JoinPlan` (variables as int slots, fixed per-slot atom lists,
incrementally kept ``l_x``), which the orderings read as a
:class:`SlotState`. Atoms are :class:`LeapRelation` adapters:

* :class:`RingTripleRelation` — a triple pattern over the Ring;
* :class:`KnnClauseRelation` — a clause ``x <|_k y`` over the succinct
  K-NN structure (ranges in ``S``/``S'``);
* :class:`DistanceClauseRelation` — a clause ``dist(x, y) <= d`` over
  the distance-range index.

Ordering strategies implement Sec. 5: :class:`MinCandidatesOrdering`
(Ring-KNN-S), :class:`ConstraintAwareOrdering` (Ring-KNN), plus static
topological and fixed orders used by tests and ablations.
"""

from repro.ltj.distance_relation import DistanceClauseRelation
from repro.ltj.engine import LTJEngine
from repro.ltj.knn_relation import KnnClauseRelation
from repro.ltj.ordering import (
    ConstraintAwareOrdering,
    FixedOrdering,
    MinCandidatesOrdering,
    OrderingStrategy,
    SlotState,
    TopologicalOrdering,
)
from repro.ltj.plan import JoinPlan
from repro.ltj.relation import LeapRelation
from repro.ltj.sixperm_relation import SixPermTripleRelation
from repro.ltj.solutions import Solutions
from repro.ltj.stats import EvaluationStats
from repro.ltj.triple_relation import RingTripleRelation

__all__ = [
    "LeapRelation",
    "RingTripleRelation",
    "SixPermTripleRelation",
    "KnnClauseRelation",
    "DistanceClauseRelation",
    "LTJEngine",
    "JoinPlan",
    "SlotState",
    "EvaluationStats",
    "Solutions",
    "OrderingStrategy",
    "MinCandidatesOrdering",
    "ConstraintAwareOrdering",
    "TopologicalOrdering",
    "FixedOrdering",
]
