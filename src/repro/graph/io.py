"""Persistence for graphs and K-NN graphs.

A binary ``.npz`` bundle for benchmark-scale data: the edge table, the
K-NN member/neighbor arrays, and optional descriptor points,
round-tripping exactly.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.graph.triples import GraphData
from repro.knn.graph import KnnGraph


def save_bundle(
    path: str | pathlib.Path,
    graph: GraphData,
    knn_graph: KnnGraph | None = None,
    points: np.ndarray | None = None,
) -> None:
    """Save graph (+ optional K-NN graph and descriptors) as ``.npz``."""
    arrays: dict[str, np.ndarray] = {"spo": graph.spo}
    if knn_graph is not None:
        arrays["knn_members"] = knn_graph.members
        arrays["knn_neighbors"] = knn_graph.neighbor_table
    if points is not None:
        arrays["points"] = np.asarray(points, dtype=np.float64)
    np.savez_compressed(pathlib.Path(path), **arrays)


def load_bundle(
    path: str | pathlib.Path,
) -> tuple[GraphData, KnnGraph | None, np.ndarray | None]:
    """Load a ``.npz`` bundle written by :func:`save_bundle`."""
    with np.load(pathlib.Path(path)) as data:
        graph = GraphData(data["spo"])
        knn_graph = None
        if "knn_members" in data:
            knn_graph = KnnGraph(data["knn_members"], data["knn_neighbors"])
        points = data["points"] if "points" in data else None
    return graph, knn_graph, points
