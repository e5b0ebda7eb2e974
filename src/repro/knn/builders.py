"""K-NN graph construction (Sec. 3.1 of the paper).

The paper treats the K-NN graph as part of the input, built once at index
construction time. This module provides:

* :func:`build_knn_graph_bruteforce` — exact, any metric, ``Theta(n^2)``
  distance computations (the "naive approach" the paper mentions);
* :func:`build_knn_graph_kdtree` — exact for Euclidean data via scipy's
  ``cKDTree`` (standing in for the low-dimensional methods of Vaidya /
  Dickerson-Eppstein cited in the paper);
* :func:`build_knn_graph_nn_descent` — the approximate NN-Descent
  algorithm (Dong et al., WWW 2011 — the paper's reference [21]) for
  arbitrary similarity measures;
* :func:`build_knn_graph` — dispatching front end.

Ties are broken by node id, which fits Def. 3's "ties broken arbitrarily"
while keeping construction deterministic and testable.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.knn.graph import KnnGraph
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

Metric = Callable[["np.ndarray", "np.ndarray"], float]


def _check_inputs(points: np.ndarray, members: np.ndarray | None, K: int):
    import numpy as np

    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-D array (n, dim)")
    if points.size and not np.isfinite(points).all():
        raise ValidationError("points must be finite (no NaN/inf)")
    n = points.shape[0]
    if members is None:
        members = np.arange(n, dtype=np.int64)
    else:
        members = np.asarray(members, dtype=np.int64)
        if members.shape != (n,):
            raise ValidationError("members must be parallel to points")
        if not np.array_equal(members, np.sort(members)) or (
            np.unique(members).size != members.size
        ):
            raise ValidationError("members must be sorted and distinct")
    if not 1 <= K < n:
        raise ValidationError(f"K must satisfy 1 <= K < n={n}, got {K}")
    return points, members


def build_knn_graph_bruteforce(
    points: np.ndarray,
    K: int,
    members: np.ndarray | None = None,
    metric: Metric | None = None,
    max_distance: float | None = None,
) -> KnnGraph:
    """Exact K-NN graph by computing all pairwise distances.

    Args:
        points: ``(n, dim)`` array of descriptors.
        K: neighbor-list length (``1 <= K < n``).
        members: node ids parallel to ``points`` (default ``0..n-1``).
        metric: optional distance callable; default squared-Euclidean
            (rank-equivalent to Euclidean and cheaper).
        max_distance: optionally truncate each list at this distance
            (under the *effective* metric, i.e. squared Euclidean by
            default) — the Sec. 3.1 relaxation "to disregard neighbors
            that are too far away".
    """
    import numpy as np

    points, members, = _check_inputs(points, members, K)
    n = points.shape[0]
    if metric is None:
        # Vectorized squared-Euclidean distance matrix.
        sq = (points**2).sum(axis=1)
        dist = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
        np.maximum(dist, 0.0, out=dist)
    else:
        dist = np.empty((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(n):
                dist[i, j] = metric(points[i], points[j])
    np.fill_diagonal(dist, np.inf)
    neighbors = np.empty((n, K), dtype=np.int64)
    lengths = np.full(n, K, dtype=np.int64)
    for i in range(n):
        # Stable tie-break by index: lexsort on (index, distance).
        order = np.lexsort((np.arange(n), dist[i]))
        neighbors[i] = members[order[:K]]
        if max_distance is not None:
            lengths[i] = int(
                np.searchsorted(dist[i][order[:K]], max_distance, side="right")
            )
    if max_distance is None:
        return KnnGraph(members, neighbors)
    return KnnGraph(members, neighbors, lengths)


def build_knn_graph_kdtree(
    points: np.ndarray, K: int, members: np.ndarray | None = None
) -> KnnGraph:
    """Exact Euclidean K-NN graph via a KD-tree (scipy ``cKDTree``)."""
    import numpy as np

    from scipy.spatial import cKDTree

    points, members = _check_inputs(points, members, K)
    tree = cKDTree(points)
    # Query K+1 to drop each point itself.
    _dists, idx = tree.query(points, k=K + 1)
    n = points.shape[0]
    neighbors = np.empty((n, K), dtype=np.int64)
    for i in range(n):
        row = [j for j in idx[i] if j != i][:K]
        if len(row) < K:  # pragma: no cover - duplicate-point corner
            extras = [j for j in range(n) if j != i and j not in row]
            row.extend(extras[: K - len(row)])
        neighbors[i] = members[np.asarray(row, dtype=np.int64)]
    return KnnGraph(members, neighbors)


def build_knn_graph_nn_descent(
    points: np.ndarray,
    K: int,
    members: np.ndarray | None = None,
    metric: Metric | None = None,
    max_iters: int = 10,
    sample_rate: float = 1.0,
    seed: int = 0,
) -> KnnGraph:
    """Approximate K-NN graph via NN-Descent (paper's reference [21]).

    Starts from a random neighbor assignment and iteratively refines each
    node's list by comparing against its neighbors' neighbors, until an
    iteration produces no updates or ``max_iters`` is hit. Works with any
    distance callable; defaults to squared Euclidean.
    """
    import numpy as np

    points, members = _check_inputs(points, members, K)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    if metric is None:
        def metric(a: np.ndarray, b: np.ndarray) -> float:  # noqa: A001
            diff = a - b
            return float(diff @ diff)

    # heaps[i]: list of (dist, j, is_new) kept sorted, length <= K
    heaps: list[list[tuple[float, int, bool]]] = []
    for i in range(n):
        choices = rng.choice(n - 1, size=K, replace=False)
        choices = np.where(choices >= i, choices + 1, choices)
        entries = sorted(
            (metric(points[i], points[j]), int(j), True) for j in choices
        )
        heaps.append(entries)

    def try_insert(i: int, j: int, dist_ij: float) -> bool:
        heap = heaps[i]
        if any(entry[1] == j for entry in heap):
            return False
        if len(heap) >= K and dist_ij >= heap[-1][0]:
            return False
        heap.append((dist_ij, j, True))
        heap.sort()
        if len(heap) > K:
            heap.pop()
        return True

    for _ in range(max_iters):
        # Build combined (old+new, forward+reverse) candidate lists. A
        # "new" entry participates once in the join step and is then
        # marked old (Dong et al.'s incremental search); entries inserted
        # *during* this round stay new for the next round.
        new_candidates: list[list[int]] = [[] for _ in range(n)]
        old_candidates: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            updated_heap: list[tuple[float, int, bool]] = []
            for dist_ij, j, is_new in heaps[i]:
                if is_new and (
                    sample_rate >= 1.0 or rng.random() < sample_rate
                ):
                    new_candidates[i].append(j)
                    new_candidates[j].append(i)
                    updated_heap.append((dist_ij, j, False))
                else:
                    if not is_new:
                        old_candidates[i].append(j)
                        old_candidates[j].append(i)
                    updated_heap.append((dist_ij, j, is_new))
            heaps[i] = updated_heap
        updates = 0
        for i in range(n):
            news = new_candidates[i]
            olds = old_candidates[i]
            for a_pos, a in enumerate(news):
                for b in news[a_pos + 1 :]:
                    if a == b:
                        continue
                    d = metric(points[a], points[b])
                    updates += try_insert(a, b, d)
                    updates += try_insert(b, a, d)
                for b in olds:
                    if a == b:
                        continue
                    d = metric(points[a], points[b])
                    updates += try_insert(a, b, d)
                    updates += try_insert(b, a, d)
        if not updates:
            break

    neighbors = np.empty((n, K), dtype=np.int64)
    for i in range(n):
        neighbors[i] = members[[j for _d, j, _new in heaps[i]]]
    return KnnGraph(members, neighbors)


def build_knn_graph(
    points: np.ndarray,
    K: int,
    members: np.ndarray | None = None,
    method: str = "auto",
    metric: Metric | None = None,
    **kwargs: object,
) -> KnnGraph:
    """Build a K-NN graph, dispatching on ``method``.

    ``method`` is one of ``"auto"`` (KD-tree for plain Euclidean, brute
    force otherwise), ``"bruteforce"``, ``"kdtree"``, ``"nn_descent"``.
    """
    if method == "auto":
        method = "kdtree" if metric is None else "bruteforce"
    if method == "bruteforce":
        return build_knn_graph_bruteforce(points, K, members, metric)
    if method == "kdtree":
        if metric is not None:
            raise ValidationError("kdtree supports only Euclidean distance")
        return build_knn_graph_kdtree(points, K, members)
    if method == "nn_descent":
        return build_knn_graph_nn_descent(
            points, K, members, metric, **kwargs  # type: ignore[arg-type]
        )
    raise ValidationError(f"unknown K-NN construction method: {method!r}")
