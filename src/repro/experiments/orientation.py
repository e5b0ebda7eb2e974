"""Experiment E11 (Sec. 7 discussion): direction-free similarity.

The paper's closing proposal: let the system pick the direction of
similarity clauses so the constraint graph becomes acyclic, trading a
slightly different (approximate) answer set for wco evaluation. This
harness quantifies that trade on symmetric (Q1b-style) queries:

* speed: evaluation time of the symmetric query vs its directed rewrite;
* fidelity: precision (all rewritten answers that satisfy the symmetric
  semantics) and recall (always 1.0 — the rewrite only drops
  conditions, so exact answers survive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines.ring_knn import RingKnnEngine
from repro.engines.database import GraphDatabase
from repro.query.model import ExtendedBGP
from repro.query.rewrite import symmetric_to_directed


@dataclass
class OrientationReport:
    """Aggregates of the symmetric-vs-directed comparison.

    The directed rewrite returns a *superset* of the symmetric answers
    (one of the two k-NN conditions is dropped), so raw times are not
    comparable — the meaningful efficiency metric is seconds per
    delivered tuple, where the acyclic plans should not be worse.
    """

    queries: int
    symmetric_seconds: list[float]
    directed_seconds: list[float]
    symmetric_solutions: list[int]
    directed_solutions: list[int]
    precisions: list[float]
    """|exact ∩ approx| / |approx| per query (1.0 when approx empty)."""

    @property
    def symmetric_ms_per_tuple(self) -> float:
        total = sum(self.symmetric_solutions)
        return 1000.0 * sum(self.symmetric_seconds) / max(total, 1)

    @property
    def directed_ms_per_tuple(self) -> float:
        total = sum(self.directed_solutions)
        return 1000.0 * sum(self.directed_seconds) / max(total, 1)

    @property
    def per_tuple_speedup(self) -> float:
        if self.directed_ms_per_tuple == 0:
            return float("inf")
        return self.symmetric_ms_per_tuple / self.directed_ms_per_tuple

    @property
    def mean_precision(self) -> float:
        return float(np.mean(self.precisions)) if self.precisions else 1.0

    def rows(self) -> list[list[object]]:
        return [
            ["symmetric: seconds (total)", round(sum(self.symmetric_seconds), 3)],
            ["symmetric: solutions", sum(self.symmetric_solutions)],
            ["symmetric: ms/tuple", round(self.symmetric_ms_per_tuple, 3)],
            ["directed: seconds (total)", round(sum(self.directed_seconds), 3)],
            ["directed: solutions", sum(self.directed_solutions)],
            ["directed: ms/tuple", round(self.directed_ms_per_tuple, 3)],
            ["per-tuple speedup of rewrite", round(self.per_tuple_speedup, 2)],
            ["answer precision of rewrite", round(self.mean_precision, 3)],
        ]


ORIENTATION_HEADERS = ["variant", "value"]


def run_orientation_comparison(
    db: GraphDatabase,
    queries: list[ExtendedBGP],
    timeout: float | None = 30.0,
) -> OrientationReport:
    """Compare symmetric queries against their directed rewrites."""
    engine = RingKnnEngine(db)
    sym_times: list[float] = []
    dir_times: list[float] = []
    sym_counts: list[int] = []
    dir_counts: list[int] = []
    precisions: list[float] = []
    for query in queries:
        exact_result = engine.evaluate(query, timeout=timeout)
        rewritten = symmetric_to_directed(query)
        approx_result = engine.evaluate(rewritten, timeout=timeout)
        sym_times.append(exact_result.elapsed)
        dir_times.append(approx_result.elapsed)
        sym_counts.append(len(exact_result.solutions))
        dir_counts.append(len(approx_result.solutions))
        exact = set(exact_result.sorted_solutions())
        approx = set(approx_result.sorted_solutions())
        if approx:
            precisions.append(len(exact & approx) / len(approx))
        else:
            precisions.append(1.0)
    return OrientationReport(
        queries=len(queries),
        symmetric_seconds=sym_times,
        directed_seconds=dir_times,
        symmetric_solutions=sym_counts,
        directed_solutions=dir_counts,
        precisions=precisions,
    )
