"""Advanced features tour: plan explanation, multiple K-NN relations,
truncated neighbor lists, and direction-free similarity.

A "songs" catalog where each track has two independent descriptor
spaces — tonality and lyrics (the paper's motivating example 4: "pairs
of songs with similar tonality AND lyrics") — with the lyrics K-NN graph
truncated by a maximum distance, so some tracks have short lists.

Run with::

    python examples/query_plans.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    GraphData,
    GraphDatabase,
    RingKnnEngine,
    Var,
    explain,
    parse_query,
    symmetric_to_directed,
)
from repro.knn.builders import build_knn_graph

N_SONGS = 100
BY_ARTIST = N_SONGS          # predicate: song -> artist
ARTIST_BASE = N_SONGS + 1


def build_catalog(seed: int = 21) -> GraphDatabase:
    rng = np.random.default_rng(seed)
    n_artists = 12
    artist = rng.integers(0, n_artists, size=N_SONGS)
    triples = [
        (int(s), BY_ARTIST, int(ARTIST_BASE + artist[s]))
        for s in range(N_SONGS)
    ]
    graph = GraphData(triples)
    # Two independent similarity relations over the same song ids; the
    # lyrics one truncated so far-apart lyrics are not neighbors at all.
    tonality = build_knn_graph(
        rng.normal(size=(N_SONGS, 4)), K=8
    )
    lyrics = build_knn_graph(
        rng.normal(size=(N_SONGS, 12)), K=8, max_distance=18.0
    )
    print(
        "lyrics K-NN truncated: "
        f"{int((lyrics.lengths < 8).sum())}/{N_SONGS} songs have < 8 "
        "neighbors within the distance cap"
    )
    return GraphDatabase(
        graph, knn_graphs={"tonality": tonality, "lyrics": lyrics}
    )


def main() -> None:
    db = build_catalog()
    engine = RingKnnEngine(db)

    # Songs by the same artist, similar in tonality AND lyrics.
    query = parse_query(
        f"(?a, {BY_ARTIST}, ?artist) . (?b, {BY_ARTIST}, ?artist) "
        ". knn:tonality(?a, ?b, 6) . knn:lyrics(?a, ?b, 6)"
    )
    print("\n--- plan explanation " + "-" * 40)
    print(explain(db, query).format())

    result = engine.evaluate(query, timeout=60)
    print(f"\n{len(result.solutions)} same-artist doubly-similar pairs")
    for sol in result.solutions[:5]:
        print(f"  songs {sol[Var('a')]} and {sol[Var('b')]}")

    # Symmetric similarity vs its system-oriented (acyclic) rewrite.
    print("\n--- Sec. 7 direction-free rewrite " + "-" * 27)
    symmetric = parse_query(
        f"(?a, {BY_ARTIST}, ?artist) . (?b, {BY_ARTIST}, ?artist) "
        ". sim:tonality(?a, ?b, 6)"
    )
    directed = symmetric_to_directed(symmetric)
    exact = engine.evaluate(symmetric, timeout=60)
    approx = engine.evaluate(directed, timeout=60)
    exact_set = set(exact.sorted_solutions())
    approx_set = set(approx.sorted_solutions())
    print(f"symmetric (exact):    {len(exact_set):4d} answers, "
          f"{exact.elapsed:.3f}s, constraint graph has a 2-cycle")
    print(f"directed  (acyclic):  {len(approx_set):4d} answers, "
          f"{approx.elapsed:.3f}s, wco by Thm. 2")
    print(f"every exact answer kept: {exact_set <= approx_set}; "
          f"precision of rewrite: {len(exact_set & approx_set) / len(approx_set):.2f}")


if __name__ == "__main__":
    main()
