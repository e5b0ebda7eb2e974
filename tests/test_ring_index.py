"""Unit tests for Ring construction and primitives, including the
worked Example 1 of the paper (Figure 1)."""

import numpy as np
import pytest

from conftest import _size
from repro.graph.triples import GraphData
from repro.obs.trace import OpCounters, attach_wavelets
from repro.ring.index import NEXT_COORD, PREV_COORD, RingIndex


def _holds(ring: RingIndex, s: int, p: int, o: int) -> bool:
    """Whether the Ring holds ``(s, p, o)``: the object's count in the
    ``(s, p)`` 2-arc."""
    lo, hi = ring.pair_range("s", s, p)
    return ring.triple_count("s", lo, hi, o) > 0


class TestCoordinateCycle:
    def test_cycle_is_consistent(self):
        for coord in "spo":
            assert PREV_COORD[NEXT_COORD[coord]] == coord
            assert NEXT_COORD[PREV_COORD[coord]] == coord


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
            nxt = ring.column(PREV_COORD["p"]).range_next_value(lo, hi, value)
            if nxt is None:
                break
            subjects.add(nxt)
            value = nxt + 1
        assert subjects == {2, 3, 4}
        # "for (x, c, y), the candidate objects {1, 4, 5, 6} are the
        # distinct elements in C_O mapped to C_S[1..5]".
        objects = set()
        value = 0
        seek = ring.ahead_seeker("p", c)
        while True:
            nxt = seek(value)
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
            nxt = ring.column(PREV_COORD["s"]).range_next_value(lo, hi, value)
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
            nxt = ring.column(PREV_COORD["p"]).range_next_value(lo, hi, value)
            if nxt is None:
                break
            xs.add(nxt)
            value = nxt + 1
        assert xs == {2, 3}


class TestPrimitives:
    def test_contains(self, small_graph):
        ring = RingIndex(small_graph)
        for triple in list(small_graph)[:30]:
            assert _holds(ring, *triple) == (triple in small_graph)
        assert not _holds(ring, 0, 0, 0) and (0, 0, 0) not in small_graph
        assert not _holds(ring, 999, 20, 0)

    def test_block_count_matches_matching(self, small_graph):
        ring = RingIndex(small_graph)
        for value in range(small_graph.domain_size):
            for coord, pattern in (
                ("s", (value, None, None)),
                ("p", (None, value, None)),
                ("o", (None, None, value)),
            ):
                size = _size(ring.block_range(coord, value))
                assert size == len(small_graph.matching(*pattern))

    def test_out_of_domain_values_are_empty(self, small_graph):
        ring = RingIndex(small_graph)
        lo, hi = ring.block_range("s", 9999)
        assert lo > hi
        lo, hi = ring.pair_range("s", 9999, 0)
        assert lo > hi
        assert ring.ahead_seeker("s", 9999)(0) is None

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


def _sigma(graph, coord):
    return int(graph.spo[:, "spo".index(coord)].max()) + 1


def _gap(graph, coord):
    """The values ``coord`` cannot take, from its alphabet to past ``D``."""
    return range(_sigma(graph, coord), graph.domain_size + 2)


class TestPerColumnAlphabet:
    """Each coordinate's column and ``A_j`` span ``[0, sigma_c)``, sigma_c
    being 1 + its largest value. A value in ``[sigma_c, D)`` is a graph
    constant that cannot occur at ``c``: every primitive answers it empty
    (or ``None``) before any counted wavelet operation, and never raises.
    The two graphs leave such a gap at every coordinate: predicates are
    0..2 in both, subjects are low in one and objects in the other."""

    @pytest.fixture(
        scope="class", params=["subjects-low", "objects-low"]
    )
    def ring_and_graph(self, request):
        rng = np.random.default_rng(11)
        low = rng.integers(0, 10, 80)
        high = rng.integers(20, 40, 80)
        preds = rng.integers(0, 3, 80)
        s, o = (low, high) if request.param == "subjects-low" else (high, low)
        graph = GraphData(np.stack([s, preds, o], axis=1))
        return RingIndex(graph), graph

    def test_each_column_has_its_own_alphabet(self, ring_and_graph):
        ring, graph = ring_and_graph
        assert ring.domain_size == graph.domain_size == 40
        for coord in "spo":
            sigma = _sigma(graph, coord)
            assert ring.column(coord).alphabet_size == sigma
            assert ring.blocks(coord).alphabet_size == sigma
        assert _sigma(graph, "p") == 3
        assert ring.column("p").height == 2
        assert any(_sigma(graph, c) < ring.domain_size for c in "so")

    def test_every_value_answers_as_the_edge_table(self, ring_and_graph):
        ring, graph = ring_and_graph
        everything = range(-1, ring.domain_size + 2)
        for j, coord in enumerate("spo"):
            for value in everything:
                truth = int((graph.spo[:, j] == value).sum())
                lo, hi = ring.block_range(coord, value)
                assert hi - lo + 1 == truth or (truth == 0 and lo > hi)
        for s, p, o in [(1, 0, 25), (25, 1, 3), (39, 2, 39), (5, 39, 5)]:
            assert _holds(ring, s, p, o) == ((s, p, o) in graph)

    def test_gap_values_are_empty_and_uncounted(self, ring_and_graph):
        ring, graph = ring_and_graph
        # Per arc start: a stored triple's own values and its 2-arc.
        arcs = {}
        for first in "spo":
            value = int(graph.spo[0, "spo".index(first)])
            nxt = int(graph.spo[0, "spo".index(NEXT_COORD[first])])
            lo, hi = ring.pair_range(first, value, nxt)
            assert lo <= hi
            arcs[first] = value, nxt, lo, hi
        ops = OpCounters()
        with attach_wavelets([(ring.column(c), ops) for c in "spo"]):
            for first, (value, nxt, lo, hi) in arcs.items():
                for gap in _gap(graph, first):
                    glo, ghi = ring.block_range(first, gap)
                    assert glo > ghi
                    glo, ghi = ring.pair_range(first, gap, nxt)
                    assert glo > ghi
                    assert ring.ahead_seeker(first, gap)(0) is None
                    assert ring.leap_unbound(first, gap) is None
                for gap in _gap(graph, NEXT_COORD[first]):
                    glo, ghi = ring.pair_range(first, value, gap)
                    assert glo > ghi
                    assert ring.ahead_seeker(first, value)(gap) is None
                for gap in _gap(graph, PREV_COORD[first]):
                    assert ring.triple_count(first, lo, hi, gap) == 0
            assert ops.total == 0
            # The stored column answers a lower past its alphabet with a
            # counted None, as it answered one past D.
            for first, (_value, _nxt, lo, hi) in arcs.items():
                stored = ring.column(PREV_COORD[first])
                for gap in _gap(graph, PREV_COORD[first]):
                    assert stored.range_next_value(lo, hi, gap) is None
                    ops.range_next -= 1
            assert ops.total == 0
