"""K-NN graph construction (Sec. 3.1 of the paper).

The paper treats the K-NN graph as part of the input, built once at index
construction time, and its structures work "with any k-NN relation".
:func:`build_knn_graph` is the one builder: exact Euclidean K-NN by brute
force over row blocks. A relation under another measure is handed to the
index as a prebuilt :class:`~repro.knn.graph.KnnGraph`.

Ties are broken by node id, which fits Def. 3's "ties broken arbitrarily"
while keeping construction deterministic and testable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.knn.graph import KnnGraph
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Candidates kept per row beyond the K neighbours, for the exact re-rank.
_SPARE = 9

#: Distances one block of rows holds: 2**22 float64 values are 32 MB.
_BLOCK = 1 << 22


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


def _rank_exactly(points: np.ndarray, rows: np.ndarray, cand: np.ndarray):
    """Order each row's candidates by exact squared distance, ties by id:
    the candidate table and its distances, both sorted along each row."""
    import numpy as np

    dist = ((points[cand] - points[rows][:, None, :]) ** 2).sum(axis=-1)
    order = np.lexsort((cand, dist), axis=-1)
    return (
        np.take_along_axis(cand, order, axis=-1),
        np.take_along_axis(dist, order, axis=-1),
    )


def build_knn_graph(
    points: np.ndarray,
    K: int,
    members: np.ndarray | None = None,
    max_distance: float | None = None,
) -> KnnGraph:
    """Exact Euclidean K-NN graph, ties broken by id.

    Args:
        points: ``(n, dim)`` array of descriptors.
        K: neighbor-list length (``1 <= K < n``).
        members: node ids parallel to ``points`` (default ``0..n-1``).
        max_distance: optionally truncate each list at this *squared*
            Euclidean distance (inclusive) — the Sec. 3.1 relaxation "to
            disregard neighbors that are too far away".

    Each block of rows computes its squared distances to all ``n`` points
    by the expansion ``|a|^2 + |b|^2 - 2 a.b`` (one matrix product), keeps
    the ``K + 9`` nearest as candidates and ranks them by the exact
    ``((b - a)**2).sum()``. A row whose candidates the expansion's
    rounding could have misjudged is ranked over all ``n`` points.
    """
    import numpy as np

    points, members = _check_inputs(points, members, K)
    n, dim = points.shape
    sq = (points**2).sum(axis=1)
    # Rounding bound. With u = 2**-53 and gamma_m = m u / (1 - m u), the
    # expansion e of D = |a - b|^2 errs by at most gamma_dim on each of
    # |a|^2, |b|^2 and 2 a.b (bounded through |a||b|), plus u on each of
    # its two additions: |e - D| <= gamma_{dim+2} (|a| + |b|)^2. The exact
    # form x errs by at most gamma_{dim+2} D <= gamma_{dim+2} (|a| + |b|)^2
    # (a subtraction and a square per term, then dim - 1 additions). Every
    # non-candidate has e >= t, the largest candidate e, so its x is at
    # least t - 2 gamma_{dim+2} (|a| + R)^2 with R the largest norm. A row
    # whose K-th exact candidate distance lies below that cannot be beaten
    # from outside its candidates, ties included. ``slack`` overstates the
    # bound by the factor (dim + 3) / (dim + 2), which covers gamma's
    # denominator and the rounding of ``t - slack`` itself.
    norms = np.sqrt(sq)
    slack = (dim + 3) * 2.0**-52 * (norms + norms.max()) ** 2
    spare = min(K + _SPARE, n - 1)
    step = max(1, _BLOCK // n)
    neighbors = np.empty((n, K), dtype=np.int64)
    distances = np.empty((n, K), dtype=np.float64)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        est = points[rows] @ points.T
        est *= -2.0
        est += sq[rows, None]
        est += sq[None, :]
        est[rows - lo, rows] = np.inf
        cand = np.argpartition(est, spare - 1, axis=1)[:, :spare]
        cand, dist = _rank_exactly(points, rows, cand)
        neighbors[rows], distances[rows] = cand[:, :K], dist[:, :K]
        if spare == n - 1:
            continue
        t = np.take_along_axis(est, cand, axis=1).max(axis=1)
        for i in rows[~(dist[:, K - 1] < t - slack[rows])]:
            # The full sort: every other point is a candidate.
            others = np.delete(np.arange(n), i)[None, :]
            row, row_dist = _rank_exactly(points, np.array([i]), others)
            neighbors[i], distances[i] = row[0, :K], row_dist[0, :K]
    lengths = None
    if max_distance is not None:
        lengths = (distances <= max_distance).sum(axis=1)
    return KnnGraph(members, members[neighbors], lengths)
