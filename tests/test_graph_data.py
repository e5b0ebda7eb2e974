"""Tests for the GraphData triple container."""

import numpy as np
import pytest

from repro.graph.triples import GraphData
from repro.utils.errors import ValidationError


class TestConstruction:
    def test_dedup_and_sort(self):
        g = GraphData([(2, 0, 1), (0, 0, 1), (2, 0, 1)])
        assert len(g) == 2
        assert list(g) == [(0, 0, 1), (2, 0, 1)]

    def test_empty_graph(self):
        g = GraphData([])
        assert len(g) == 0
        assert g.domain_size == 0
        assert g.num_nodes == 0
        assert g.nodes.size == 0
        assert g.predicates.size == 0

    def test_negative_constants_rejected(self):
        with pytest.raises(ValidationError):
            GraphData([(0, -1, 2)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError):
            GraphData(np.zeros((3, 2), dtype=np.int64))

    def test_table_is_readonly(self):
        g = GraphData([(0, 1, 2)])
        with pytest.raises(ValueError):
            g.spo[0, 0] = 9


class TestDerivedQuantities:
    def test_paper_quantities(self):
        # n <= D <= 3N per Sec. 2.1.
        g = GraphData([(0, 1, 2), (3, 1, 0), (2, 4, 3)])
        assert g.num_edges == 3
        assert g.domain_size == 5
        # Predicates 1 and 4 are not nodes unless used as subject/object.
        assert g.num_nodes == 3
        assert set(g.nodes.tolist()) == {0, 2, 3}
        assert set(g.predicates.tolist()) == {1, 4}

    def test_contains(self):
        g = GraphData([(0, 1, 2), (3, 1, 0)])
        assert (0, 1, 2) in g
        assert (3, 1, 0) in g
        assert (0, 1, 3) not in g
        assert (9, 9, 9) not in g

    def test_size_in_bytes(self):
        g = GraphData([(0, 1, 2)])
        assert g.size_in_bytes() == 3 * 4  # ids at the index's stored width


class TestMatchingAndUnion:
    def test_matching_wildcards(self):
        g = GraphData([(0, 1, 2), (0, 1, 3), (4, 1, 2), (0, 5, 2)])
        assert len(g.matching(0, 1, None)) == 2
        assert len(g.matching(None, None, 2)) == 3
        assert len(g.matching(None, None, None)) == 4
        assert len(g.matching(9, None, None)) == 0
