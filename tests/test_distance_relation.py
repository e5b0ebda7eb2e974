"""Tests for distance-clause evaluation (Sec. 3.3 extension), end to end."""

import dataclasses

import numpy as np
import pytest

from repro.engines.baseline import BaselineEngine
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.graph.naive import evaluate_naive
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.distance_index import DistanceRangeIndex
from repro.query.parser import parse_query
from repro.succinct import wavelet_tree
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import QueryError


def _build_dist_db():
    rng = np.random.default_rng(61)
    n = 15
    triples = [
        (
            int(rng.integers(0, n)),
            int(30 + rng.integers(0, 2)),
            int(rng.integers(0, n)),
        )
        for _ in range(70)
    ]
    graph = GraphData(triples)
    points = rng.uniform(size=(n, 2))
    knn = build_knn_graph_bruteforce(points, K=4)
    index = DistanceRangeIndex(points, d_max=0.8)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    distances = {
        (i, j): float(dist[i, j]) for i in range(n) for j in range(n) if i != j
    }
    return GraphDatabase(graph, knn, index), graph, knn, distances


@pytest.fixture(scope="module")
def dist_db():
    return _build_dist_db()


def canonical(solutions):
    return sorted(
        tuple(sorted((v.name, c) for v, c in s.items())) for s in solutions
    )


DIST_QUERIES = [
    "(?x, 30, ?y) . dist(?x, ?y, 0.4)",
    "(?x, 30, ?y) . (?y, 31, ?z) . dist(?x, ?z, 0.5)",
    "(?x, 30, ?y) . dist(?y, ?w, 0.3)",
    "(?x, 30, ?y) . dist(?x, ?y, 0.4) . knn(?x, ?y, 4)",
]


@pytest.mark.parametrize("text", DIST_QUERIES)
def test_engines_match_naive_with_distance(dist_db, text):
    db, graph, knn, distances = dist_db
    query = parse_query(text)
    expected = canonical(evaluate_naive(query, graph, knn, distances))
    for engine_cls in (RingKnnEngine, RingKnnSEngine, BaselineEngine):
        got = engine_cls(db).evaluate(query).sorted_solutions()
        assert got == expected, engine_cls.__name__


def test_distance_without_index_rejected(dist_db):
    _db, graph, knn, _distances = dist_db
    bare = GraphDatabase(graph, knn)
    query = parse_query("(?x, 30, ?y) . dist(?x, ?y, 0.4)")
    with pytest.raises(QueryError):
        RingKnnEngine(bare).evaluate(query)


def test_distance_beyond_dmax_rejected(dist_db):
    db, _graph, _knn, _distances = dist_db
    query = parse_query("(?x, 30, ?y) . dist(?x, ?y, 0.9)")
    with pytest.raises(QueryError):
        RingKnnEngine(db).evaluate(query)


def test_distance_predicate_is_symmetric(dist_db):
    db, _graph, _knn, _distances = dist_db
    a = RingKnnEngine(db).evaluate(parse_query("(?x, 30, ?y) . dist(?x, ?y, 0.4)"))
    b = RingKnnEngine(db).evaluate(parse_query("(?x, 30, ?y) . dist(?y, ?x, 0.4)"))
    assert a.sorted_solutions() == b.sorted_solutions()


# Forward, reverse and 2-hop K-NN leaps beside the distance leaps: with
# DIST_QUERIES they reach every relation kind the Ring engines build.
# The repeated variable leaps through the Ring's own leap, not a
# relation's seeker: every range here is short, so no seeker descends.
HOT_QUERIES = DIST_QUERIES + [
    "(?x, 30, ?y) . knn(?x, ?y, 3)",
    "(?x, 30, ?y) . knn(?y, ?x, 3)",
    "knn(?x, ?y, 3) . knn(?y, ?z, 2)",
    "(?x, 30, ?x) . (?x, 31, ?y)",
]


def _evaluate_hot_queries(db) -> int:
    solutions = 0
    for text in HOT_QUERIES:
        query = parse_query(text)
        for engine_cls in (RingKnnEngine, RingKnnSEngine):
            solutions += len(engine_cls(db).evaluate(query).solutions)
    return solutions


def test_hot_path_calls_no_validated_kernel(dist_db, monkeypatch):
    """Leaps run on the unchecked ``_*_u`` kernels (Sec. 2.4): their
    arguments are in range by construction, so a validated BitVector op
    or a numpy binary search per leap is a tax on every query."""

    def banned(*_args, **_kwargs):
        raise AssertionError("validated kernel called while searching")

    for name in ("rank1", "select1", "select0"):
        monkeypatch.setattr(BitVector, name, banned)
    monkeypatch.setattr(np, "searchsorted", banned)
    assert _evaluate_hot_queries(dist_db[0]) > 0


def test_a_repeated_search_is_answered_from_the_tree_memo(monkeypatch):
    """Each wavelet tree keeps its memo for its whole life, so a second
    evaluation of the same queries over one database makes no
    traversal at all (no cap is reached at this size) and reports the
    same solutions and stats; the first one, on a fresh database, does
    traverse. Every range here is short, so its leaps bisect the range's
    report; at a threshold of 0 they descend, and that memo is held
    too."""
    for short, kinds in (
        (wavelet_tree._SHORT, {"_descend", "_report"}),
        (0, {"_descend", "_next_value", "_report"}),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(wavelet_tree, "_SHORT", short)
            _check_repeated_search(patched, kinds)


def _check_repeated_search(monkeypatch, kinds: set[str]) -> None:
    db = _build_dist_db()[0]
    traversals = []
    for name in ("_descend", "_next_value"):
        def counted(tree, *args, _entry=getattr(WaveletTree, name), _name=name):
            traversals.append(_name)
            return _entry(tree, *args)

        monkeypatch.setattr(WaveletTree, name, counted)

    def report(tree, lo, hi, _entry=WaveletTree._report):
        # `_report` looks its memo up itself: only a miss traverses
        if lo <= hi and (lo, hi) not in tree._memo_values:
            traversals.append("_report")
        return _entry(tree, lo, hi)

    monkeypatch.setattr(WaveletTree, "_report", report)

    def evaluate_all():
        return [
            (list(result.solutions), dataclasses.replace(result.stats, elapsed=0.0))
            for text in HOT_QUERIES
            for engine_cls in (RingKnnEngine, RingKnnSEngine)
            for result in [engine_cls(db).evaluate(parse_query(text))]
        ]

    first = evaluate_all()
    assert kinds <= set(traversals)
    traversals.clear()
    assert evaluate_all() == first
    assert traversals == []
