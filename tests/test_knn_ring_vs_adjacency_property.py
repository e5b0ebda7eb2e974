"""Cross-representation property: the succinct K-NN structure and the
plain adjacency must answer identically on arbitrary K-NN tables —
including truncated rows — since the baseline and the Ring engines
consult different representations of the same relation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _size
from repro.knn.adjacency import KnnAdjacency
from repro.knn.graph import KnnGraph
from repro.knn.succinct import KnnRing


@st.composite
def knn_tables(draw):
    """Arbitrary valid (possibly truncated) K-NN tables over 0..n-1."""
    n = draw(st.integers(3, 10))
    K = draw(st.integers(1, min(4, n - 1)))
    table, lengths = [], []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        table.append(list(draw(st.permutations(others)))[:K])
        lengths.append(draw(st.integers(0, K)))
    # Entries past a row's length are padding, never read.
    return KnnGraph(np.arange(n), np.array(table), np.array(lengths))


@settings(max_examples=40, deadline=None)
@given(knn_tables(), st.data())
def test_representations_agree(graph, data):
    ring = KnnRing(graph)
    adjacency = KnnAdjacency(graph)
    n = graph.num_members
    k = data.draw(st.integers(1, graph.K))
    for u in range(n):
        assert ring.neighbors_of(u, k) == adjacency.neighbors_of(
            u, k
        ).tolist()
        assert sorted(ring.reverse_neighbors_of(u, k)) == sorted(
            adjacency.reverse_neighbors_of(u, k).tolist()
        )
        for v in range(n):
            if u == v:
                continue
            truth = graph.is_knn(u, v, k)
            assert ring.contains(u, v, k) == truth
            assert adjacency.is_knn(u, v, k) == truth


@settings(max_examples=25, deadline=None)
@given(knn_tables())
def test_counts_are_consistent(graph):
    ring = KnnRing(graph)
    k = graph.K
    # Total forward entries == total backward entries == valid pairs.
    forward_total = sum(
        _size(ring.forward_range(int(u), k)) for u in graph.members
    )
    backward_total = sum(
        _size(ring.backward_range(int(v), k)) for v in graph.members
    )
    assert forward_total == backward_total == int(graph.lengths.sum())
