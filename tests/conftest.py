"""Shared fixtures: small deterministic graphs, K-NN graphs, databases.

Session-scoped where construction is non-trivial; all randomness is
seeded so failures reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.datasets.wikimedia import WikimediaConfig, generate_benchmark
from repro.engines.database import GraphDatabase
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.graph import KnnGraph


if sanitize.enabled():
    # Patch the runtime resource primitives before any test module
    # imports them; see repro/analysis/sanitize.py. The CI ``sanitize``
    # job runs the layout/pool/store/serve batteries under
    # REPRO_SANITIZE=1.
    sanitize.install()


@pytest.fixture(autouse=True)
def _sanitize_leak_check(request):
    """Fail any test that acquires a resource it never releases."""
    if not sanitize.enabled():
        yield
        return
    with sanitize.test_leak_check(request.node.nodeid):
        yield


@pytest.fixture(scope="session")
def paper_figure1_graph() -> GraphData:
    """The travel graph of Figure 1 (labels: c = cheap, e = expensive).

    Nodes 1..7. Example 1 pins down the cheap edges: for the BGP
    {(x, c, y), (y, c, z)} the candidate subjects of the c-block are
    {2, 3, 4}, the candidate objects {1, 4, 5, 6}, their intersection
    {4}; binding y := 4 leaves z in {5, 6} and x in {2, 3}. The
    expensive edges are not load-bearing for the examples.
    """
    c, e = 10, 11
    return GraphData(
        [
            (2, c, 4),
            (3, c, 4),
            (4, c, 5),
            (4, c, 6),
            (2, c, 1),
            (1, e, 3),
            (5, e, 1),
            (6, e, 5),
        ]
    )


@pytest.fixture(scope="session")
def small_graph() -> GraphData:
    """A 20-node random graph with 3 predicates (ids 20..22)."""
    rng = np.random.default_rng(7)
    triples = [
        (
            int(rng.integers(0, 20)),
            int(20 + rng.integers(0, 3)),
            int(rng.integers(0, 20)),
        )
        for _ in range(120)
    ]
    return GraphData(triples)


@pytest.fixture(scope="session")
def small_points() -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.normal(size=(20, 2))


@pytest.fixture(scope="session")
def small_knn(small_points) -> KnnGraph:
    return build_knn_graph_bruteforce(small_points, K=5)


@pytest.fixture(scope="session")
def small_db(small_graph, small_knn) -> GraphDatabase:
    return GraphDatabase(small_graph, small_knn)


@pytest.fixture(scope="session")
def bench():
    """A tiny synthetic Wikimedia-like benchmark."""
    return generate_benchmark(
        WikimediaConfig(
            n_entities=120,
            n_images=60,
            n_misc_triples=700,
            K=8,
            seed=5,
        )
    )


@pytest.fixture(scope="session")
def bench_db(bench) -> GraphDatabase:
    return GraphDatabase(bench.graph, bench.knn_graph)
