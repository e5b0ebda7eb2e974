"""Distance functions for K-NN graph construction.

The paper's techniques work "with any k-NN relation, without requiring
that it corresponds to some distance d" (Sec. 3.1) — in particular with
non-metric similarities. This module collects the common choices used
by the builders and examples:

* :func:`euclidean` / :func:`squared_euclidean` — the default (IMGpedia
  visual descriptors are compared under Euclidean-style distances);
* :func:`manhattan` — L1;
* :func:`chebyshev` — L-infinity;
* :func:`cosine_distance` — ``1 - cos(a, b)``; *not* a metric (no
  triangle inequality on raw vectors), exercising the non-metric path;
* :func:`hamming` — for binary/categorical codes.

Each function takes two 1-D numpy vectors and returns a float, matching
the ``Metric`` callable signature of :mod:`repro.knn.builders`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def squared_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b||^2`` — rank-equivalent to Euclidean and cheaper."""
    diff = a - b
    return float(diff @ diff)


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b||``."""
    import numpy as np

    return float(np.sqrt(squared_euclidean(a, b)))


def manhattan(a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance ``sum |a_i - b_i|``."""
    import numpy as np

    return float(np.abs(a - b).sum())


def chebyshev(a: np.ndarray, b: np.ndarray) -> float:
    """L-infinity distance ``max |a_i - b_i|``."""
    import numpy as np

    return float(np.abs(a - b).max())


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - cos(a, b)``; 0 for parallel vectors, 2 for opposite.

    Not a metric — used to exercise the paper's claim that any k-NN
    relation works. Raises on zero vectors (undefined direction).
    """
    import numpy as np

    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine distance undefined for zero vectors")
    return 1.0 - float(a @ b) / (na * nb)


def hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Number of positions where the vectors differ."""
    import numpy as np

    return float(np.count_nonzero(a != b))


METRICS = {
    "euclidean": euclidean,
    "squared_euclidean": squared_euclidean,
    "manhattan": manhattan,
    "chebyshev": chebyshev,
    "cosine": cosine_distance,
    "hamming": hamming,
}


def metric_by_name(name: str):
    """Look up a metric callable by name (see :data:`METRICS`)."""
    try:
        return METRICS[name]
    except KeyError:
        raise ValidationError(
            f"unknown metric {name!r}; choose from {sorted(METRICS)}"
        ) from None
