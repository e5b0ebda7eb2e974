"""Unit tests for Ring construction and primitives, including the
worked Example 1 of the paper (Figure 1)."""

import pytest

from repro.graph.triples import GraphData
from repro.ring.index import NEXT_COORD, PREV_COORD, RingIndex
from repro.utils.errors import StructureError


class TestCoordinateCycle:
    def test_cycle_is_consistent(self):
        for coord in "spo":
            assert PREV_COORD[NEXT_COORD[coord]] == coord
            assert NEXT_COORD[PREV_COORD[coord]] == coord

    def test_arc_start_singletons(self):
        for coord in "spo":
            assert RingIndex.arc_start({coord}) == coord

    def test_arc_start_pairs(self):
        assert RingIndex.arc_start({"s", "p"}) == "s"
        assert RingIndex.arc_start({"p", "o"}) == "p"
        assert RingIndex.arc_start({"o", "s"}) == "o"

    def test_arc_start_invalid(self):
        with pytest.raises(StructureError):
            RingIndex.arc_start({"s", "p", "o"})


class TestFigure1Example:
    """Example 1: the travel graph, BGP {(x, c, y), (y, c, z)}."""

    def test_candidate_intersection_on_y(self, paper_figure1_graph):
        ring = RingIndex(paper_figure1_graph)
        c = 10
        # Example 1: "for (y, c, z), the candidate subjects {2, 3, 4} are
        # the distinct elements in C_S[1..5]".
        lo, hi = ring.block_range("p", c)
        subjects = set()
        value = 0
        while True:
            nxt = ring.leap_stored("p", lo, hi, value)
            if nxt is None:
                break
            subjects.add(nxt)
            value = nxt + 1
        assert subjects == {2, 3, 4}
        # "for (x, c, y), the candidate objects {1, 4, 5, 6} are the
        # distinct elements in C_O mapped to C_S[1..5]".
        objects = set()
        value = 0
        while True:
            nxt = ring.leap_ahead("p", c, value)
            if nxt is None:
                break
            objects.add(nxt)
            value = nxt + 1
        assert objects == {1, 4, 5, 6}
        # "The Ring efficiently finds the intersection {4}."
        assert subjects & objects == {4}

    def test_descend_by_y_narrows_ranges(self, paper_figure1_graph):
        ring = RingIndex(paper_figure1_graph)
        c = 10
        # After y := 4: (4, c, z) is the 2-arc (s, p) = (4, c).
        lo, hi = ring.pair_range("s", 4, c)
        assert hi - lo + 1 == 2  # edges 4->5, 4->6
        zs = set()
        value = 0
        while True:
            nxt = ring.leap_stored("s", lo, hi, value)
            if nxt is None:
                break
            zs.add(nxt)
            value = nxt + 1
        assert zs == {5, 6}
        # (x, c, 4) is the 2-arc (p, o) = (c, 4).
        lo, hi = ring.pair_range("p", c, 4)
        xs = set()
        value = 0
        while True:
            nxt = ring.leap_stored("p", lo, hi, value)
            if nxt is None:
                break
            xs.add(nxt)
            value = nxt + 1
        assert xs == {2, 3}


class TestPrimitives:
    def test_contains(self, small_graph):
        ring = RingIndex(small_graph)
        for triple in list(small_graph)[:30]:
            assert ring.contains(*triple)
        assert not ring.contains(0, 0, 0)
        assert not ring.contains(999, 20, 0)

    def test_block_count_matches_matching(self, small_graph):
        ring = RingIndex(small_graph)
        for value in range(small_graph.domain_size):
            assert ring.block_count("s", value) == len(
                small_graph.matching(value, None, None)
            )
            assert ring.block_count("p", value) == len(
                small_graph.matching(None, value, None)
            )
            assert ring.block_count("o", value) == len(
                small_graph.matching(None, None, value)
            )

    def test_out_of_domain_values_are_empty(self, small_graph):
        ring = RingIndex(small_graph)
        lo, hi = ring.block_range("s", 9999)
        assert lo > hi
        lo, hi = ring.pair_range("s", 9999, 0)
        assert lo > hi
        assert ring.leap_ahead("s", 9999, 0) is None

    def test_pair_range_sizes(self, small_graph):
        ring = RingIndex(small_graph)
        spo = small_graph.spo
        for s, p in {(int(r[0]), int(r[1])) for r in spo[:40]}:
            lo, hi = ring.pair_range("s", s, p)
            expected = len(small_graph.matching(s, p, None))
            assert hi - lo + 1 == expected

    def test_empty_graph(self):
        ring = RingIndex(GraphData([]))
        assert ring.num_edges == 0
        assert ring.leap_unbound("s", 0) is None

    def test_size_in_bytes(self, small_graph):
        assert RingIndex(small_graph).size_in_bytes() > 0
