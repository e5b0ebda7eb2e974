"""End-to-end reproduction of the paper's worked Examples 1-3.

Figure 1's travel graph and 3-NN graph, the BGP of Example 1, and the
extended BGP of Example 3 — the engines must produce exactly the
solutions printed in the paper:

* Example 3 with ``y ~_2 z``: (x, y, z) in {(2, 4, 6), (3, 4, 6)};
* with ``y ~_3 z`` additionally (2, 4, 5) and (3, 4, 5).
"""

import numpy as np
import pytest

from repro.engines.baseline import BaselineEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.database import GraphDatabase
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.knn.graph import KnnGraph
from repro.query.model import Var
from repro.query.parser import parse_query

C = 10  # the (c)heap predicate of Figure 1


@pytest.fixture(scope="module")
def figure1_knn() -> KnnGraph:
    """The 3-NN graph of Figure 1, consistent with every published
    fragment: S_1 = 324, S_2 = 134, S'_4 = 675123 (B_4 = 100101000),
    S'_1 = 23, and Example 3's requirements on node 4's own list
    (6 in 2-NN(4), 5 only in 3-NN(4))."""
    members = np.arange(1, 8)
    neighbors = np.array(
        [
            [3, 2, 4],  # S_1 = 324
            [1, 3, 4],  # S_2 = 134
            [2, 1, 4],  # j_3 = 3 (4 at rank 3)
            [6, 7, 5],  # Example 3: 6 in 2-NN(4); 5 only at rank 3
            [6, 4, 7],  # j_5 = 2
            [4, 7, 5],  # j_6 = 1
            [4, 6, 5],  # j_7 = 1
        ]
    )
    return KnnGraph(members, neighbors)


@pytest.fixture(scope="module")
def figure1_db(paper_figure1_graph, figure1_knn) -> GraphDatabase:
    return GraphDatabase(paper_figure1_graph, figure1_knn)


ALL_ENGINES = [
    RingKnnEngine,
    RingKnnSEngine,
    BaselineEngine,
    MaterializeEngine,
    ClassicSixPermEngine,
]


def solutions_xyz(result):
    return sorted(
        (s[Var("x")], s[Var("y")], s[Var("z")]) for s in result.solutions
    )


class TestExample1:
    """Q = {(x, c, y), (y, c, z)}: places reachable in two cheap hops."""

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_two_hop_solutions(self, figure1_db, engine_cls):
        query = parse_query(f"(?x, {C}, ?y) . (?y, {C}, ?z)")
        result = engine_cls(figure1_db).evaluate(query)
        assert solutions_xyz(result) == [
            (2, 4, 5),
            (2, 4, 6),
            (3, 4, 5),
            (3, 4, 6),
        ]


class TestExample3:
    """Q = {(x, c, y), (y, c, z), y ~_2 z}: nearby consecutive stops."""

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_k2_solutions_match_paper(self, figure1_db, engine_cls):
        query = parse_query(f"(?x, {C}, ?y) . (?y, {C}, ?z) . sim(?y, ?z, 2)")
        result = engine_cls(figure1_db).evaluate(query)
        assert solutions_xyz(result) == [(2, 4, 6), (3, 4, 6)]

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_k3_adds_the_two_extra_solutions(self, figure1_db, engine_cls):
        query = parse_query(f"(?x, {C}, ?y) . (?y, {C}, ?z) . sim(?y, ?z, 3)")
        result = engine_cls(figure1_db).evaluate(query)
        assert solutions_xyz(result) == [
            (2, 4, 5),
            (2, 4, 6),
            (3, 4, 5),
            (3, 4, 6),
        ]

    def test_ranges_of_example3(self, figure1_db, figure1_knn):
        """The specific ranges the paper walks through for y := 4:
        S_4[1..2] for 4 <|_2 z and S'_4[1..3] for z <|_2 4. ``S`` and
        ``S'`` hold member ranks, which ``members`` maps back to the
        paper's node ids."""
        ring = figure1_db.knn_ring
        members = ring.members.tolist()
        lo, hi = ring.forward_range(4, 2)
        assert hi - lo + 1 == 2
        ranks = {ring.S.access(i) for i in range(lo, hi + 1)}
        assert {members[r] for r in ranks} == {6, 7}  # 2-NN(4)
        assert ranks == {ring.index_of(6), ring.index_of(7)}
        lo, hi = ring.backward_range(4, 2)
        assert hi - lo + 1 == 3  # S'_4[1..3] per B_4 = 100101000
        ranks = {ring.Sprime.access(i) for i in range(lo, hi + 1)}
        assert {members[r] for r in ranks} == {6, 7, 5}
        assert ranks == {ring.index_of(v) for v in (6, 7, 5)}


class TestExample2Identities:
    def test_b4_unary_encoding(self, figure1_knn):
        """B_4 = 100101000: groups of sizes 2, 1, 3 at ranks 1, 2, 3."""
        from repro.knn.succinct import KnnRing

        ring = KnnRing(figure1_knn)
        vi = ring.index_of(4)
        starts = [ring._sprime_boundary(vi, t) for t in (1, 2, 3, 4)]
        sizes = [b - a for a, b in zip(starts, starts[1:])]
        assert sizes == [2, 1, 3]
