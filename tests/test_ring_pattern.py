"""Property tests: Ring pattern navigation vs the six-permutation oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.sixperm import SixPermIndex
from repro.graph.triples import GraphData
from repro.ring.index import RingIndex
from repro.ring.pattern import RingPatternState
from repro.utils.errors import StructureError


@pytest.fixture(scope="module")
def indexed():
    rng = np.random.default_rng(21)
    triples = rng.integers(0, 15, size=(250, 3))
    graph = GraphData(triples)
    return graph, RingIndex(graph), SixPermIndex(graph)


class TestAgainstOracle:
    def test_counts_match_all_single_bindings(self, indexed):
        graph, ring, oracle = indexed
        for coord in "spo":
            for value in range(graph.domain_size):
                state = RingPatternState(ring, {coord: value})
                assert state.count() == oracle.count({coord: value})

    def test_counts_match_pair_bindings(self, indexed):
        graph, ring, oracle = indexed
        rng = np.random.default_rng(5)
        coords = ["sp", "po", "os", "so", "ps", "op"]
        for pair in coords:
            for _ in range(30):
                v1 = int(rng.integers(0, graph.domain_size))
                v2 = int(rng.integers(0, graph.domain_size))
                state = RingPatternState(ring, {})
                state.bind(pair[0], v1)
                state.bind(pair[1], v2)
                assert state.count() == oracle.count(
                    {pair[0]: v1, pair[1]: v2}
                ), (pair, v1, v2)

    def test_leaps_match(self, indexed):
        graph, ring, oracle = indexed
        rng = np.random.default_rng(9)
        for _ in range(300):
            n_bound = int(rng.integers(0, 3))
            coords = list("spo")
            rng.shuffle(coords)
            bound = {
                c: int(rng.integers(0, graph.domain_size))
                for c in coords[:n_bound]
            }
            state = RingPatternState(ring, dict(bound))
            free = [c for c in "spo" if c not in bound]
            target = free[int(rng.integers(0, len(free)))]
            lower = int(rng.integers(0, graph.domain_size + 2))
            got = state.leap(target, lower)
            expected = oracle.leap(bound, target, lower)
            assert got == expected, (bound, target, lower)


class TestStateMachine:
    def test_bind_unbind_restores_state(self, indexed):
        _graph, ring, _oracle = indexed
        state = RingPatternState(ring, {})
        before = state.count()
        state.bind("s", 3)
        state.bind("o", 7)
        state.unbind()
        state.unbind()
        assert state.count() == before
        assert len(state.frame.bound) == 0

    def test_cannot_bind_twice(self, indexed):
        _graph, ring, _oracle = indexed
        state = RingPatternState(ring, {"s": 1})
        with pytest.raises(StructureError):
            state.bind("s", 2)

    def test_cannot_unbind_root(self, indexed):
        _graph, ring, _oracle = indexed
        state = RingPatternState(ring, {})
        with pytest.raises(StructureError):
            state.unbind()

    def test_leap_on_bound_coordinate_rejected(self, indexed):
        _graph, ring, _oracle = indexed
        state = RingPatternState(ring, {"s": 1})
        with pytest.raises(StructureError):
            state.leap("s", 0)

    def test_probe_leaves_state_unchanged(self, indexed):
        _graph, ring, _oracle = indexed
        state = RingPatternState(ring, {"p": 4})
        depth = len(state.frame.bound)
        count = state.count()
        state.probe({"s": 2, "o": 2})
        assert len(state.frame.bound) == depth
        assert state.count() == count

    def test_probe_matches_contains(self, indexed):
        graph, ring, _oracle = indexed
        state = RingPatternState(ring, {})
        for s, p, o in list(graph)[:20]:
            assert state.probe({"s": s, "p": p, "o": o})
        assert not state.probe({"s": 0, "p": 0, "o": 0}) or (0, 0, 0) in graph


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=60,
    ),
    st.data(),
)
def test_random_graphs_match_oracle(triples, data):
    """Full navigation agreement on random graphs (hypothesis-driven)."""
    graph = GraphData(triples)
    ring = RingIndex(graph)
    oracle = SixPermIndex(graph)
    coords = list("spo")
    n_bound = data.draw(st.integers(0, 2))
    chosen = data.draw(st.permutations(coords))[:n_bound]
    bound = {c: data.draw(st.integers(0, 8)) for c in chosen}
    state = RingPatternState(ring, dict(bound))
    assert state.count() == oracle.count(bound)
    free = [c for c in "spo" if c not in bound]
    target = data.draw(st.sampled_from(free))
    lower = data.draw(st.integers(0, 9))
    assert state.leap(target, lower) == oracle.leap(bound, target, lower)
