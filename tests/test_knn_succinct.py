"""Tests for the succinct K-NN structure: S, S', B and Lemmas 1-2.

Includes the paper's worked Example 2 (Figure 1's 3-NN graph).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _size
from repro.knn.builders import build_knn_graph
from repro.knn.graph import KnnGraph
from repro.knn.succinct import KnnRing
from repro.store import load, save
from repro.utils.errors import ValidationError
from test_truncated_knn import truncated_graph


@pytest.fixture(scope="module")
def example2() -> tuple[KnnGraph, KnnRing]:
    """The 3-NN graph of Figure 1 / Example 2 (nodes 1..7, 1-based).

    The paper gives: S_1 = 324, S_2 = 134, and S'_4 = 675123 with
    B_4 = 100101000; also S'_1 = 23 with B_1 = 10011. We reconstruct a
    consistent full graph: node u's ordered neighbor lists chosen so all
    published fragments hold.
    """
    members = np.arange(1, 8)
    neighbors = np.array(
        [
            [3, 2, 4],  # S_1 = 324
            [1, 3, 4],  # S_2 = 134
            [2, 1, 4],  # S_3 = 214 (4 at rank 3, per j_3 = 3)
            [5, 6, 7],  # S_4 (unspecified by the paper; any valid row)
            [6, 4, 7],  # S_5 (4 at rank 2: j_5 = 2)
            [4, 7, 5],  # S_6 (4 at rank 1: j_6 = 1)
            [4, 6, 5],  # S_7 (4 at rank 1: j_7 = 1)
        ]
    )
    graph = KnnGraph(members, neighbors)
    return graph, KnnRing(graph)


class TestExample2:
    def test_s_concatenation(self, example2):
        graph, ring = example2
        # S = S_1 . S_2 ... ; Def. 7, over member ranks (the example's
        # ids are 1..7, its ranks 0..6): members maps each rank back.
        expected = graph.neighbor_table.reshape(-1)
        ranks = [ring.S.access(i) for i in range(len(ring.S))]
        assert ranks == [int(v) - 1 for v in expected]
        assert [int(ring.members[r]) for r in ranks] == expected.tolist()

    def test_sprime_of_node_4(self, example2):
        _graph, ring = example2
        # S'_4 = 675123: sources listing 4, ordered by the rank at which
        # they list it (6 and 7 at rank 1, 5 at rank 2, 1, 2, 3 at rank 3).
        assert ring.reverse_neighbors_of(4) == [6, 7, 5, 1, 2, 3]

    def test_sprime_rank_prefixes_of_node_4(self, example2):
        _graph, ring = example2
        # Example 2: S'_4[1..2] = 67 for k=1, [1..3] = 675 for k=2.
        assert sorted(ring.reverse_neighbors_of(4, 1)) == [6, 7]
        assert sorted(ring.reverse_neighbors_of(4, 2)) == [5, 6, 7]
        assert sorted(ring.reverse_neighbors_of(4, 3)) == [1, 2, 3, 5, 6, 7]

    def test_sprime_of_node_1(self, example2):
        _graph, ring = example2
        # S'_1 = 23: 1 is in 1-NN(2) and 1-NN... here 2 lists 1 at rank 1
        # and 3 lists 1 at rank 2.
        assert sorted(ring.reverse_neighbors_of(1, 1)) == [2]
        assert sorted(ring.reverse_neighbors_of(1, 2)) == [2, 3]

    def test_forward_range_is_k_prefix(self, example2):
        graph, ring = example2
        for u in graph.members:
            for k in (1, 2, 3):
                lo, hi = ring.forward_range(int(u), k)
                assert hi - lo + 1 == k
                ranks = [ring.S.access(i) for i in range(lo, hi + 1)]
                values = [int(ring.members[r]) for r in ranks]
                assert values == graph.neighbors_of(int(u), k).tolist()
                assert ranks == [ring.index_of(v) for v in values]


class TestLemmas:
    """Lemma 2: (a) v in k-NN(u) <=> (b) v in S-range <=> (c) u in S'-range."""

    @pytest.fixture(scope="class")
    def random_ring(self):
        rng = np.random.default_rng(23)
        points = rng.normal(size=(30, 2))
        graph = build_knn_graph(points, K=6)
        return graph, KnnRing(graph)

    def test_lemma2_equivalences(self, random_ring):
        graph, ring = random_ring
        rng = np.random.default_rng(1)
        for _ in range(400):
            u = int(rng.integers(0, 30))
            v = int(rng.integers(0, 30))
            if u == v:
                continue
            k = int(rng.integers(1, 7))
            truth = graph.is_knn(u, v, k)
            # (b): v occurs in S[(u)K .. (u)K + k - 1] (as its rank)
            lo, hi = ring.forward_range(u, k)
            in_s = ring.S.rank_range(ring.index_of(v), lo, hi) > 0
            # (c): u occurs in S'[p_v(1) .. p_v(k+1) - 1]
            lo2, hi2 = ring.backward_range(v, k)
            in_sprime = ring.Sprime.rank_range(ring.index_of(u), lo2, hi2) > 0
            assert truth == in_s == in_sprime, (u, v, k)
            assert ring.contains(u, v, k) == truth

    def test_backward_counts_sum_to_kn(self, random_ring):
        _graph, ring = random_ring
        # Every (u, rank<=k) pair appears exactly once across all S'_v
        # k-prefixes: total backward count = k * n.
        for k in (1, 3, 6):
            total = sum(
                _size(ring.backward_range(int(v), k)) for v in ring.members
            )
            assert total == k * ring.num_members

    def test_leaps(self, random_ring):
        graph, ring = random_ring
        for u in (0, 7, 29):
            k = 4
            expected = sorted(graph.neighbors_of(u, k).tolist())
            got = []
            lower = 0
            while True:
                nxt = ring.leap_forward(u, k, lower)
                if nxt is None:
                    break
                got.append(nxt)
                lower = nxt + 1
            assert got == expected
        for v in (3, 12):
            k = 4
            expected = sorted(
                int(u)
                for u in range(30)
                if u != v and graph.is_knn(u, v, k)
            )
            got = []
            lower = 0
            while True:
                nxt = ring.leap_backward(v, k, lower)
                if nxt is None:
                    break
                got.append(nxt)
                lower = nxt + 1
            assert got == expected


class TestNonMembersAndBounds:
    def test_non_member_ranges_empty(self, example2):
        _graph, ring = example2
        lo, hi = ring.forward_range(99, 2)
        assert lo > hi
        lo, hi = ring.backward_range(99, 2)
        assert lo > hi
        assert not ring.contains(99, 1, 2)
        assert ring.neighbors_of(99) == []

    def test_k_beyond_K_rejected(self, example2):
        _graph, ring = example2
        with pytest.raises(ValidationError):
            ring.forward_range(1, 4)
        with pytest.raises(ValidationError):
            ring.backward_range(1, 0)

    def test_next_member(self, example2):
        _graph, ring = example2
        assert ring.next_member(0) == 1
        assert ring.next_member(4) == 4
        assert ring.next_member(8) is None

    def test_next_reverse_nonempty(self, example2):
        _graph, ring = example2
        # Every node of the example has at least one reverse neighbor at
        # k = 3 except possibly none; check enumeration is sorted members
        # with nonempty ranges.
        got = []
        lower = 0
        while True:
            nxt = ring.next_reverse_nonempty(3, lower)
            if nxt is None:
                break
            got.append(nxt)
            lower = nxt + 1
        expected = [
            int(m)
            for m in ring.members
            if _size(ring.backward_range(int(m), 3)) > 0
        ]
        assert got == expected

    def test_size_accounting(self, example2):
        _graph, ring = example2
        assert ring.size_in_bytes() > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.data())
def test_lemma2_property_random_knn_graphs(n, K, data):
    """Lemma 2 on arbitrary (not metric-derived) K-NN tables — the paper
    notes the structures work for any k-NN relation (Sec. 3.1)."""
    K = min(K, n - 1)
    members = np.arange(n)
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        perm = data.draw(st.permutations(others))
        rows.append(perm[:K])
    graph = KnnGraph(members, np.array(rows))
    ring = KnnRing(graph)
    for u in range(n):
        for k in range(1, K + 1):
            assert ring.neighbors_of(u, k) == list(rows[u][:k])
            for v in range(n):
                if v == u:
                    continue
                assert ring.contains(u, v, k) == (v in rows[u][:k])


class TestSparseMembers:
    """Members that are sparse and offset, so a rank is never its id:
    ``S``/``S'`` hold ranks, and every leap maps ``lower`` in and its
    answer out. Each ``lower`` below the first member, on one, between
    two and past the last answers as the K-NN table does."""

    MEMBERS = [10, 14, 15, 30, 42, 57]

    @pytest.fixture(scope="class")
    def sparse(self):
        rng = np.random.default_rng(3)
        rows = []
        for m in self.MEMBERS:
            others = [v for v in self.MEMBERS if v != m]
            rows.append(list(rng.permutation(others)[:3]))
        graph = KnnGraph(np.array(self.MEMBERS), np.array(rows))
        return graph, KnnRing(graph)

    def test_sequences_hold_ranks(self, sparse):
        graph, ring = sparse
        assert ring.S.alphabet_size == ring.Sprime.alphabet_size == 6
        assert ring.S.height == 3
        ranks = [ring.S.access(i) for i in range(len(ring.S))]
        assert [self.MEMBERS[r] for r in ranks] == (
            graph.neighbor_table.reshape(-1).tolist()
        )

    def test_leaps_and_contains_at_every_lower(self, sparse):
        graph, ring = sparse
        lowers = range(-1, self.MEMBERS[-1] + 3)  # below, on, between, past
        for node in self.MEMBERS:
            for k in (1, 2, 3):
                forward = sorted(graph.neighbors_of(node, k).tolist())
                backward = sorted(
                    u for u in self.MEMBERS if graph.is_knn(u, node, k)
                )
                for lower in lowers:
                    want = next((v for v in forward if v >= lower), None)
                    assert ring.leap_forward(node, k, lower) == want
                    want = next((u for u in backward if u >= lower), None)
                    assert ring.leap_backward(node, k, lower) == want
                    assert ring.contains(node, lower, k) == (lower in forward)
                    assert ring.contains(lower, node, k) == (
                        lower in backward
                    )
                assert ring.neighbors_of(node, k) == (
                    graph.neighbors_of(node, k).tolist()
                )
                assert sorted(ring.reverse_neighbors_of(node, k)) == backward


def _memo_graphs() -> dict[str, KnnGraph]:
    """Full rows over ids ``1..7`` (Example 2's shape), sparse offset ids,
    and two truncated tables: the hand-written one of
    ``test_truncated_knn`` and a capped brute-force build."""
    rng = np.random.default_rng(11)
    ids = [10, 14, 15, 30, 42, 57]
    sparse = [list(rng.permutation([v for v in ids if v != m])[:3]) for m in ids]
    capped = build_knn_graph(
        rng.uniform(size=(15, 2)), K=4, max_distance=0.08
    )
    assert capped.is_truncated
    return {
        "full": KnnGraph(
            np.arange(1, 8),
            np.array([[3, 2, 4], [1, 3, 4], [2, 1, 4], [5, 6, 7], [6, 4, 7],
                      [4, 7, 5], [4, 6, 5]]),
        ),
        "sparse": KnnGraph(np.array(ids), np.array(sparse)),
        "truncated": truncated_graph(),
        "capped": capped,
    }


def _reverse_lists(graph: KnnGraph) -> dict[tuple[int, int], list[int]]:
    """Per member ``v`` and ``k``: the sources listing ``v`` among their
    first ``k`` stored neighbors, in ``S'`` order (by the rank they list
    it at, then by id), read off the raw K-NN table."""
    members = graph.members.tolist()
    rows = [
        row[:length] for row, length in
        zip(graph.neighbor_table.tolist(), graph.lengths.tolist())
    ]
    return {
        (v, k): [
            u for _j, u in sorted(
                (j, u) for u, row in zip(members, rows)
                for j, w in enumerate(row[:k]) if w == v
            )
        ]
        for v in members for k in range(1, graph.K + 1)
    }


class TestBackwardMemos:
    """``backward_range`` (memoized per ``(v, k)``) and
    ``next_reverse_nonempty`` (one bisect of a per-``k`` member list)
    answer as a brute force over the raw K-NN lists, for every ``k``,
    on a built ring and on a freshly attached, unprimed one."""

    @pytest.fixture(params=["full", "sparse", "truncated", "capped"])
    def graph(self, request):
        return _memo_graphs()[request.param]

    @pytest.fixture(params=["built", "attached"])
    def ring(self, request, graph, tmp_path):
        """Runs a check over the built ring or over one attached from its
        index file. The store closes once the check returns, so no view
        of its mapping outlives the close."""

        def run(check):
            ring = KnnRing(graph)
            if request.param == "built":
                return check(ring)
            path = str(tmp_path / "knn.idx")
            save(ring, path)
            store = load(path)
            try:
                return check(store.structure)
            finally:
                store.close()

        return run

    def test_every_k_matches_the_knn_lists(self, graph, ring):
        truth = _reverse_lists(graph)
        members = graph.members.tolist()
        K = graph.K
        lowers = range(members[0] - 2, members[-1] + 3)
        strangers = [i for i in lowers if i not in members] + [-7, 10**6]

        def check(ring):
            # Up through every k and down again: no k answers from
            # another's.
            for k in [*range(1, K + 1), *range(K, 0, -1)]:
                for lower in lowers:  # below, on, between, past the members
                    want = next(
                        (v for v in members if v >= lower and truth[v, k]),
                        None,
                    )
                    assert ring.next_reverse_nonempty(k, lower) == want, (
                        k, lower,
                    )
                for v in members:
                    lo, hi = ring.backward_range(v, k)
                    assert hi - lo + 1 == len(truth[v, k])
                    assert ring.reverse_neighbors_of(v, k) == truth[v, k]
                for v in strangers:
                    assert _size(ring.backward_range(v, k)) == 0
                    assert ring.reverse_neighbors_of(v, k) == []
            assert sorted(ring._reverse_members) == list(range(1, K + 1))

        ring(check)

    def test_invalid_k_is_rejected_on_every_call(self, graph, ring):
        v = int(graph.members[0])

        def check(ring):
            for _ in range(2):  # a second call finds nothing memoized
                for k in (0, graph.K + 1):
                    with pytest.raises(ValidationError):
                        ring.backward_range(v, k)
                    with pytest.raises(ValidationError):
                        ring.next_reverse_nonempty(k, v)

        ring(check)


def test_attach_starts_with_empty_memos(tmp_path):
    graph = _memo_graphs()["full"]
    ring = KnnRing(graph)
    assert ring._memo_backward == {} and ring._reverse_members == {}
    ring.next_reverse_nonempty(1, 0)
    ring.backward_range(4, 2)
    assert ring._memo_backward and ring._reverse_members
    path = str(tmp_path / "knn.idx")
    save(ring, path)
    store = load(path)
    try:
        attached = store.structure
        assert attached._memo_backward == {}
        assert attached._reverse_members == {}
    finally:
        attached = None
        store.close()


def test_k_then_another_k_answers_each_from_its_own_list():
    """In Example 2's shape node 7 is nobody's nearest neighbor but is
    in three 3-NN lists: a root reverse leap from 7 tells ``k`` apart."""
    ring = KnnRing(_memo_graphs()["full"])
    assert ring.next_reverse_nonempty(1, 7) is None
    assert ring.next_reverse_nonempty(3, 7) == 7
    assert ring.next_reverse_nonempty(1, 7) is None
    assert ring.backward_range(7, 1) != ring.backward_range(7, 3)
    assert ring.reverse_neighbors_of(7, 1) == []
    assert ring.reverse_neighbors_of(7, 3) == [6, 4, 5]  # by rank: 2, 3, 3


class TestNonMetricKnnGraph:
    def test_cosine_knn_graph_builds(self):
        """Sec. 3.1: the structures accept any k-NN relation, including
        ones from non-metric similarities like cosine distance. The table
        is ranked here and comes in as a prebuilt ``KnnGraph``."""
        rng = np.random.default_rng(5)
        points = rng.normal(size=(25, 6)) + 0.1
        unit = points / np.linalg.norm(points, axis=1, keepdims=True)
        cosine = 1.0 - unit @ unit.T
        np.fill_diagonal(cosine, np.inf)
        ids = np.arange(len(points))
        table = np.array([np.lexsort((ids, row))[:4] for row in cosine])
        assert not np.array_equal(table, build_knn_graph(points, K=4).neighbor_table)
        graph = KnnGraph(ids, table)
        ring = KnnRing(graph)
        for u in ids.tolist():
            assert ring.neighbors_of(u) == table[u].tolist()
