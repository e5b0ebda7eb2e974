"""Experiment E7: the materialization-cost comparison of Sec. 3.2.

The paper's motivating numbers: materializing + sorting the kNN
relation (k = 50) takes 260 s *before query processing even starts*,
while the integrated index answers whole queries in 1.3-103 s. The shape
to reproduce: the :class:`MaterializeEngine`'s setup phase alone
dominates — and typically exceeds — the *total* time of the integrated
Ring-KNN engine on the same queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines.database import GraphDatabase
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine
from repro.query.model import ExtendedBGP


@dataclass
class MaterializationReport:
    """Aggregated phase timings across the measured queries."""

    queries: int
    materialize_seconds: list[float]
    materialize_query_seconds: list[float]
    integrated_seconds: list[float]

    @property
    def mean_materialize(self) -> float:
        return float(np.mean(self.materialize_seconds))

    @property
    def mean_materialize_total(self) -> float:
        return float(
            np.mean(
                np.array(self.materialize_seconds)
                + np.array(self.materialize_query_seconds)
            )
        )

    @property
    def mean_integrated(self) -> float:
        return float(np.mean(self.integrated_seconds))

    @property
    def setup_vs_integrated(self) -> float:
        """How many integrated *full queries* one materialization costs."""
        if self.mean_integrated == 0:
            return float("inf")
        return self.mean_materialize / self.mean_integrated

    def rows(self) -> list[list[object]]:
        return [
            ["materialize: setup (extract+sort+index)", self.mean_materialize],
            ["materialize: total (setup + LTJ)", self.mean_materialize_total],
            ["integrated Ring-KNN: total", self.mean_integrated],
            ["setup cost / integrated total", round(self.setup_vs_integrated, 2)],
        ]


MATERIALIZATION_HEADERS = ["phase", "mean_seconds"]


def run_materialization_comparison(
    db: GraphDatabase,
    queries: list[ExtendedBGP],
    timeout: float | None = 60.0,
) -> MaterializationReport:
    """Time the strawman's phases against the integrated engine."""
    strawman = MaterializeEngine(db)
    integrated = RingKnnEngine(db)
    mat_setup: list[float] = []
    mat_query: list[float] = []
    integrated_total: list[float] = []
    for query in queries:
        outcome = strawman.evaluate(query, timeout=timeout)
        phases = outcome.spans.totals()
        mat_setup.append(phases["materialize"])
        mat_query.append(phases["query"])
        reference = integrated.evaluate(query, timeout=timeout)
        integrated_total.append(reference.elapsed)
        assert reference.sorted_solutions() == outcome.sorted_solutions() or (
            outcome.timed_out or reference.timed_out
        ), "engines disagree outside of timeouts"
    return MaterializationReport(
        queries=len(queries),
        materialize_seconds=mat_setup,
        materialize_query_seconds=mat_query,
        integrated_seconds=integrated_total,
    )
