"""K-nearest-neighbor graphs and their succinct representation.

Implements Sec. 3 of the paper:

* :mod:`repro.knn.graph` — the :class:`KnnGraph` model (Def. 4): for every
  participating node ``u``, an ordered list ``K-NN(u)`` of its ``K``
  closest other nodes.
* :mod:`repro.knn.builders` — :func:`build_knn_graph`, the one exact
  (Euclidean) builder; a relation under any other measure comes in as a
  prebuilt :class:`KnnGraph`.
* :mod:`repro.knn.succinct` — :class:`KnnRing`: the sequences ``S`` and
  ``S'`` plus bitvector ``B`` of Defs. 7-8, with the range computations of
  Lemmas 1-2 that let LTJ treat ``x <|_k y`` as trie ranges.
* :mod:`repro.knn.adjacency` — the plain (uncompressed) direct + reverse
  adjacency form the baseline stores (Sec. 5.3).
* :mod:`repro.knn.distance_index` — the distance-graph sequence ``D``
  sketched at the end of Sec. 3.3 for range-based similarity
  (``dist(x, y) <= d``).
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.knn.adjacency import KnnAdjacency
    from repro.knn.builders import build_knn_graph
    from repro.knn.distance_index import DistanceRangeIndex
    from repro.knn.graph import KnnGraph
    from repro.knn.succinct import KnnRing

__all__ = [
    "KnnGraph", "KnnRing", "KnnAdjacency", "DistanceRangeIndex", "build_knn_graph",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "adjacency": ("KnnAdjacency",),
    "builders": ("build_knn_graph",),
    "distance_index": ("DistanceRangeIndex",),
    "graph": ("KnnGraph",),
    "succinct": ("KnnRing",),
})
