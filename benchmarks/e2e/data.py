"""Seeded inputs: the two graphs, the mined query pool, query texts.

What ``--seed`` changes and what it does not. The *shape* of the data
comes from ``--shape-seed`` (default: generator seed 7 of the repo's
Figure-2 benchmark, ``benchmarks/conftest.py``); ``--seed`` relabels
every constant of it — predicates, classes, literals, entities and
images, each permuted inside its own id range — and drives request
order, Zipf draws, variable renamings, lookup constants and probe
arguments. Every seed therefore hands the program different tables, a
different index file and different query texts, while the amount of join
work stays the same: all seeds are isomorphic inputs, and only another
shape seed is a held-out one.

That is deliberate and was measured before it was chosen: regenerating
the graph itself per seed moved a family's mean query time by up to
2.5x between seeds (Q2: 0.60 s at seed 1, 1.49 s at seed 6), and neither
solution counts nor sub-join sizes predicted it (log-log correlation
0.5-0.7 on Q2/Q2b/Q2t), so no selection rule could have kept ten seeds
inside a 25 % bound. A permutation keeps solution counts identical, so
the selection quotas below are fillable at every seed or at none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import oracle
from repro.datasets.wikimedia import (
    WikimediaBenchmark,
    WikimediaConfig,
    generate_benchmark,
)
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.graph.naive import evaluate_naive
from repro.graph.triples import GraphData
from repro.knn.graph import KnnGraph
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var

#: Generator seed of the repo's Figure-2 benchmark (benchmarks/conftest.py):
#: the default ``--shape-seed``.
SHAPE_SEED = 7

#: name -> WikimediaConfig keywords. ``query`` is the Figure-2 scale,
#: ``cold`` the build/load scale, the ``quick-*`` pair serves ``--quick``.
SCALES: dict[str, dict[str, int]] = {
    "query": dict(n_entities=600, n_images=250, n_misc_triples=4000, K=16),
    "cold": dict(n_entities=40000, n_images=6000, n_misc_triples=400000, K=32),
    "quick-query": dict(n_entities=120, n_images=60, n_misc_triples=600, K=8),
    "quick-cold": dict(n_entities=2000, n_images=400, n_misc_triples=12000, K=16),
}

#: Candidates mined per family before selection (Q1 also sizes Q1b, Q2
#: also Q2b and Q2t). Mining is seeded by the shape seed, so the pool —
#: and with it every quota's fillability — is the same at every ``--seed``.
POOL = dict(k=10, n_q1=48, n_q2=40, n_q3=48, n_q4=48, n_q5=48)
QUICK_POOL = dict(k=4, n_q1=24, n_q2=16, n_q3=24, n_q4=24, n_q5=24)


@dataclass
class Graph:
    """One generated graph as the program receives it: raw tables."""

    scale: str
    graph: GraphData
    knn: KnnGraph
    perm: np.ndarray
    """Constant relabelling applied to the Figure-2 shape."""

    shape: WikimediaBenchmark
    """The unpermuted benchmark (mining reads its id bookkeeping)."""

    shape_seed: int

    generate_s: float

    @property
    def edges(self) -> int:
        """Distinct triples plus K-NN arcs: what an index must store."""
        return int(self.graph.num_edges + self.knn.lengths.sum())


@dataclass
class Candidate:
    """One mined query with its reference answer."""

    family: str
    query: ExtendedBGP
    solutions: int
    digest: str

    @property
    def names(self) -> list[str]:
        return sorted(v.name for v in self.query.variables)


def make_graph(scale: str, seed: int, shape_seed: int = SHAPE_SEED) -> Graph:
    """Generate the scale's graph from ``shape_seed``, relabelled by ``seed``."""
    started = time.perf_counter()
    shape = generate_benchmark(WikimediaConfig(seed=shape_seed, **SCALES[scale]))
    rng = np.random.default_rng([seed, 1])
    domain = max(shape.graph.domain_size, int(shape.knn_graph.members.max()) + 1)
    perm = np.arange(domain, dtype=np.int64)
    for ids in (
        np.array(sorted(shape.predicates.values()), dtype=np.int64),
        shape.class_ids,
        shape.literal_ids,
        shape.entity_ids,
        shape.image_ids,
    ):
        perm[ids] = rng.permutation(ids)
    old = shape.knn_graph
    members = perm[old.members]
    order = np.argsort(members)
    knn = KnnGraph(
        members[order], perm[old.neighbor_table][order], old.lengths[order]
    )
    graph = GraphData(perm[shape.graph.spo])
    return Graph(scale, graph, knn, perm, shape, shape_seed,
                 time.perf_counter() - started)


def _relabel(query: ExtendedBGP, perm: np.ndarray) -> ExtendedBGP:
    def term(t):
        return t if isinstance(t, Var) else int(perm[t])

    return ExtendedBGP(
        [TriplePattern(term(t.s), term(t.p), term(t.o)) for t in query.triples],
        [SimClause(term(c.x), c.k, term(c.y), c.relation) for c in query.clauses],
    )


class Pool:
    """The mined candidates of one graph, answered by the oracle on demand.

    Mining itself is cheap; the reference answers are not, so a family's
    candidates are only answered as far as a selection reads into them.
    Duplicates (the miner repeats itself on small families) and
    candidates whose reference plan outgrows :data:`oracle.MAX_ROWS`
    are skipped.
    """

    def __init__(self, g: Graph, sizes: dict[str, int]) -> None:
        self._g = g
        self.k = sizes["k"]
        self._mined = generate_workload(
            g.shape, WorkloadConfig(seed=g.shape_seed, **sizes))
        self._cursor = {family: 0 for family in self._mined}
        self._seen: dict[str, set[str]] = {f: set() for f in self._mined}
        self._kept: dict[str, list[Candidate]] = {f: [] for f in self._mined}
        self.reference_s = 0.0
        """Seconds spent in the oracle so far (``harness.reference_s``)."""

    def candidates(self, family: str):
        """The family's distinct candidates in mining order."""
        kept = self._kept[family]
        position = 0
        while True:
            while position < len(kept):
                yield kept[position]
                position += 1
            if not self._answer_next(family):
                return

    def _answer_next(self, family: str) -> bool:
        """Answer mined queries until one more candidate is kept."""
        mined = self._mined[family]
        g = self._g
        while self._cursor[family] < len(mined):
            query = _relabel(mined[self._cursor[family]], g.perm)
            self._cursor[family] += 1
            text = to_text(query)
            if text in self._seen[family]:
                continue
            self._seen[family].add(text)
            started = time.perf_counter()
            try:
                count, digest = oracle.reference(query, g.graph.spo, g.knn)
            except oracle.TooLarge:
                continue
            finally:
                self.reference_s += time.perf_counter() - started
            self._kept[family].append(Candidate(family, query, count, digest))
            return True
        return False


def select(
    pool: Pool,
    families: tuple[str, ...],
    lo: int,
    hi: int,
    per_family: int | None = None,
    total: int | None = None,
) -> list[Candidate]:
    """Pick by family and solution count only, in mining order.

    ``per_family`` takes that many from each family; ``total`` instead
    deals round-robin over the families until ``total`` are taken. An
    unfillable quota is an error, never a smaller workload.
    """
    streams = {
        f: (c for c in pool.candidates(f) if lo <= c.solutions <= hi)
        for f in families
    }
    picked: list[Candidate] = []
    if per_family is not None:
        for family in families:
            taken = [c for c, _ in zip(streams[family], range(per_family))]
            if len(taken) < per_family:
                raise RuntimeError(
                    f"quota unfillable: {family} has {len(taken)} of "
                    f"{per_family} queries with {lo}..{hi} solutions"
                )
            picked.extend(taken)
        return picked
    assert total is not None
    live = list(families)
    while len(picked) < total:
        if not live:
            raise RuntimeError(
                f"quota unfillable: {len(picked)} of {total} queries with "
                f"{lo}..{hi} solutions from {families}"
            )
        for family in list(live):
            candidate = next(streams[family], None)
            if candidate is None:
                live.remove(family)
            elif len(picked) < total:
                picked.append(candidate)
    return picked


#: The repo's exhaustive-search oracle is run on at most this many of a
#: workload's queries, and only on ones it can finish in milliseconds:
#: few solutions, and a small join of the triple patterns alone (it
#: enumerates that join before it looks at a similarity clause).
NAIVE_QUERIES = 8
NAIVE_MAX_SOLUTIONS = 500
NAIVE_MAX_TRIPLE_ROWS = 1200


def cross_check(g: Graph, candidates: list[Candidate]) -> int:
    """Hold the oracle's answers against ``repro.graph.naive``.

    Returns how many queries were compared; a disagreement means the
    reference itself is wrong, so it aborts the run.
    """
    checked = 0
    for candidate in candidates:
        if checked == NAIVE_QUERIES:
            break
        if candidate.solutions > NAIVE_MAX_SOLUTIONS:
            continue
        triples_only = ExtendedBGP(list(candidate.query.triples), [])
        try:
            rows = len(oracle.solve(triples_only, g.graph.spo, g.knn))
        except oracle.TooLarge:
            continue
        if rows > NAIVE_MAX_TRIPLE_ROWS:
            continue
        naive = evaluate_naive(candidate.query, g.graph, g.knn)
        if oracle.digest_solutions(naive, candidate.names) != candidate.digest:
            raise RuntimeError(
                f"oracle and repro.graph.naive disagree on {to_text(candidate.query)}"
            )
        checked += 1
    return checked


def to_text(query: ExtendedBGP, rename: dict[str, str] | None = None) -> str:
    """The parser's textual syntax for ``query`` (optionally renamed)."""

    def term(t) -> str:
        if isinstance(t, Var):
            return "?" + (rename[t.name] if rename else t.name)
        return str(int(t))

    atoms = [f"({term(t.s)}, {term(t.p)}, {term(t.o)})" for t in query.triples]
    atoms += [f"knn({term(c.x)}, {term(c.y)}, {c.k})" for c in query.clauses]
    return " . ".join(atoms)


def renaming(query: ExtendedBGP, rng: np.random.Generator) -> dict[str, str]:
    """A fresh variable renaming (old name -> new name), names distinct."""
    names = sorted(v.name for v in query.variables)
    tags = rng.choice(1_000_000, size=len(names), replace=False)
    return {name: f"v{int(tag)}" for name, tag in zip(names, tags)}
