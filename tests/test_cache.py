"""Battery for the semantic cross-query cache (:mod:`repro.cache`).

Three layers of guarantees:

* **Canonicalizer** (Hypothesis): any variable renaming and/or atom
  reordering of a query collides on the signature; a *pure* renaming
  additionally preserves the profile (the key that gates byte-identical
  reuse); structurally distinct queries get distinct signatures.

* **QueryCache unit**: admission rejections (timeout, byte budget,
  unbound variables), elapsed/age eviction order, epoch
  invalidation on ``bump_epoch`` *and* on a hot index-file replace
  (different store checksum behind the same path), and the
  byte-identical probe round trip under renamed variables.

* **Events**: on the golden Figure-2 workload a hit's trace carries an
  explicit ``cache_hit`` event, and a ``limit`` bypasses the cache.
  That every door's hit returns the cold run's rows, order and counters
  — engine, scheduler, ``/query``, ``/explain``, and a hit by a pure
  renaming — is held in ``tests/test_matrix.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import _rename
from repro.cache import (
    QueryCache,
    canonicalize,
    database_epoch,
    first_seen_variables,
    profile_of,
)
from repro.engines.auto import AutoEngine
from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.engines.ring_knn import RingKnnEngine
from repro.ltj.stats import EvaluationStats
from repro.obs import QueryTrace
from repro.query.model import (
    DistClause,
    ExtendedBGP,
    SimClause,
    TriplePattern,
    Var,
)

W, X, Y, Z = Var("w"), Var("x"), Var("y"), Var("z")

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _result(
    solutions: list[dict[Var, int]],
    elapsed: float = 1.0,
    timed_out: bool = False,
    engine: str = "ring-knn",
) -> QueryResult:
    stats = EvaluationStats()
    stats.solutions = len(solutions)
    stats.elapsed = elapsed
    stats.timed_out = timed_out
    return QueryResult(engine=engine, solutions=solutions, stats=stats)


# ----------------------------------------------------------------------
# canonicalizer properties (Hypothesis)
# ----------------------------------------------------------------------

_VARS = (W, X, Y, Z)
_FRESH = (Var("p2"), Var("q2"), Var("r2"), Var("s2"))
_PREDICATES = (20, 21, 22)


@st.composite
def bgps(draw) -> ExtendedBGP:
    """Small random extended BGPs over the ``small_db`` vocabulary."""
    variables = list(_VARS[: draw(st.integers(2, 4))])
    terms = variables + [0, 5]
    triples = [
        TriplePattern(
            draw(st.sampled_from(terms)),
            draw(st.sampled_from(_PREDICATES)),
            draw(st.sampled_from(terms)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    clauses = []
    for _ in range(draw(st.integers(0, 2))):
        x = draw(st.sampled_from(variables))
        y = draw(st.sampled_from([v for v in variables if v != x]))
        clauses.append(SimClause(x, draw(st.integers(1, 4)), y))
    dist_clauses = []
    for _ in range(draw(st.integers(0, 1))):
        x = draw(st.sampled_from(variables))
        y = draw(st.sampled_from([v for v in variables if v != x]))
        dist_clauses.append(DistClause(x, draw(st.sampled_from([0.5, 1.0])), y))
    return ExtendedBGP(triples, clauses, dist_clauses)


@st.composite
def renamings(draw) -> dict[Var, Var]:
    fresh = draw(st.permutations(list(_FRESH)))
    return dict(zip(_VARS, fresh))


class TestCanonicalizer:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(query=bgps(), mapping=renamings(), data=st.data())
    def test_renaming_and_reordering_collide_on_signature(
        self, query, mapping, data
    ):
        renamed = _rename(query, mapping)
        shuffled = ExtendedBGP(
            data.draw(st.permutations(list(renamed.triples))),
            data.draw(st.permutations(list(renamed.clauses))),
            data.draw(st.permutations(list(renamed.dist_clauses))),
        )
        assert (
            canonicalize(shuffled).signature == canonicalize(query).signature
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(query=bgps(), mapping=renamings())
    def test_pure_renaming_preserves_profile(self, query, mapping):
        renamed = _rename(query, mapping)
        assert profile_of(renamed) == profile_of(query)
        # ... and the probe remap is positional: the renamed first-seen
        # list is the image of the original one under the mapping.
        assert first_seen_variables(renamed) == tuple(
            mapping.get(v, v) for v in first_seen_variables(query)
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(query=bgps())
    def test_structural_edits_change_the_signature(self, query):
        base = canonicalize(query).signature
        # Changing a constant, a k bound, or dropping an atom must all
        # produce a different signature.
        bumped_pred = ExtendedBGP(
            [
                TriplePattern(t.s, t.p + 7, t.o)
                for t in query.triples
            ],
            list(query.clauses),
            list(query.dist_clauses),
        )
        if query.triples:
            assert canonicalize(bumped_pred).signature != base
        if query.clauses:
            harder = ExtendedBGP(
                list(query.triples),
                [
                    SimClause(c.x, c.k + 1, c.y, c.relation)
                    for c in query.clauses
                ],
                list(query.dist_clauses),
            )
            assert canonicalize(harder).signature != base
        if len(query.atoms) > 1:
            dropped = ExtendedBGP(
                list(query.triples)[:-1],
                list(query.clauses),
                list(query.dist_clauses),
            )
            if dropped.atoms:
                assert canonicalize(dropped).signature != base

    def test_atom_permutation_changes_profile_not_signature(self):
        q = ExtendedBGP(
            [TriplePattern(X, 20, Y), TriplePattern(Y, 21, Z)],
            clauses=[SimClause(X, 2, Z)],
        )
        permuted = ExtendedBGP(
            [TriplePattern(Y, 21, Z), TriplePattern(X, 20, Y)],
            clauses=[SimClause(X, 2, Z)],
        )
        assert canonicalize(q).signature == canonicalize(permuted).signature
        assert profile_of(q) != profile_of(permuted)

    def test_variables_follow_first_seen_order(self):
        q = ExtendedBGP(
            [TriplePattern(Y, 20, X)],
            clauses=[SimClause(X, 2, W)],
            dist_clauses=[DistClause(Z, 1.0, Y)],
        )
        form = canonicalize(q)
        assert form.variables == (Y, X, W, Z)
        # ExtendedBGP.variables omits dist-only variables; the cache's
        # first-seen list must not (packed columns cover every binding).
        assert form.variables == first_seen_variables(q)


# ----------------------------------------------------------------------
# QueryCache unit behaviour
# ----------------------------------------------------------------------


QUERY = ExtendedBGP(
    [TriplePattern(X, 20, Y), TriplePattern(Y, 21, Z)],
    clauses=[SimClause(X, 2, Z)],
)
RENAMED = _rename(QUERY, {X: Var("a"), Y: Var("b"), Z: Var("c")})


class TestQueryCacheUnit:
    def test_probe_round_trip_is_byte_identical(self, small_db):
        cache = QueryCache()
        engine = RingKnnEngine(small_db)
        cold = engine.evaluate(QUERY)
        assert cache.fill(small_db, QUERY, cold, engine="ring-knn")

        # Probing the *renamed* query must replay the producer's
        # solutions — same values, same enumeration order — under the
        # probing query's own variable names.
        hit = cache.probe(small_db, RENAMED, engine="ring-knn")
        assert hit is not None and hit.cached
        reference = engine.evaluate(RENAMED)
        assert hit.solutions == reference.solutions
        assert hit.engine == "ring-knn"
        (probe,) = hit.spans.records
        assert probe.name == "cache_probe"
        assert hit.elapsed == probe.seconds
        for field in ("solutions", "bindings", "attempts", "leap_calls"):
            assert getattr(hit.stats, field) == getattr(cold.stats, field)
        # Replayed descent order is the cold order mapped through ranks.
        mapping = dict(
            zip(first_seen_variables(QUERY), first_seen_variables(RENAMED))
        )
        assert hit.stats.first_descent_order == [
            mapping[v] for v in cold.stats.first_descent_order
        ]
        assert hit.stats.sim_variables == frozenset(
            mapping[v] for v in cold.stats.sim_variables
        )

    def test_engines_do_not_share_entries(self, small_db):
        cache = QueryCache()
        cold = RingKnnEngine(small_db).evaluate(QUERY)
        cache.fill(small_db, QUERY, cold, engine="ring-knn")
        assert cache.probe(small_db, QUERY, engine="ring-knn-s") is None
        assert cache.probe(small_db, QUERY, engine="ring-knn") is not None

    def test_atom_permutation_does_not_reuse_results(self, small_db):
        cache = QueryCache()
        cold = RingKnnEngine(small_db).evaluate(QUERY)
        cache.fill(small_db, QUERY, cold, engine="ring-knn")
        permuted = ExtendedBGP(
            list(reversed(QUERY.triples)), list(QUERY.clauses)
        )
        # Same signature, different profile: no byte-identical claim.
        assert cache.probe(small_db, permuted, engine="ring-knn") is None

    def test_timed_out_results_are_inadmissible(self, small_db):
        cache = QueryCache()
        meta: dict = {}
        bad = _result([{X: 1, Y: 2, Z: 3}], timed_out=True)
        assert not cache.fill(small_db, QUERY, bad, meta=meta)
        assert meta["store_reason"] == "timed out"
        assert cache.stats()["inadmissible"] == 1
        assert len(cache) == 0

    def test_oversized_entry_is_inadmissible(self, small_db):
        cache = QueryCache(max_bytes=1024)
        meta: dict = {}
        big = _result([{X: i, Y: i, Z: i} for i in range(1000)])
        assert not cache.fill(small_db, QUERY, big, meta=meta)
        assert meta["store_reason"] == "over byte budget"

    def test_projected_solutions_are_inadmissible(self, small_db):
        cache = QueryCache()
        meta: dict = {}
        partial = _result([{X: 1}])  # misses Y and Z bindings
        assert not cache.fill(small_db, QUERY, partial, meta=meta)
        assert meta["store_reason"] == "unbound variable"

    def test_eviction_prefers_cheap_stale_entries(self, small_db):
        # Budget fits two entries; the third fill evicts the cheapest
        # (elapsed/age score), not simply the oldest.
        row = [{X: 1, Y: 2, Z: 3}]
        nbytes = 3 * 8 + 512
        cache = QueryCache(max_bytes=2 * nbytes + 1)
        queries = [
            ExtendedBGP(
                [TriplePattern(X, 20 + i, Y), TriplePattern(Y, 21, Z)],
                clauses=[SimClause(X, 2, Z)],
            )
            for i in range(3)
        ]
        cache.fill(small_db, queries[0], _result(row, elapsed=50.0))
        cache.fill(small_db, queries[1], _result(row, elapsed=0.01))
        cache.fill(small_db, queries[2], _result(row, elapsed=5.0))
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        # The expensive old entry survived; the cheap one went.
        assert cache.probe(small_db, queries[0], engine="ring-knn")
        assert cache.probe(small_db, queries[1], engine="ring-knn") is None
        assert cache.probe(small_db, queries[2], engine="ring-knn")

    def test_bump_epoch_invalidates_on_next_probe(self, small_graph):
        db = GraphDatabase(small_graph)
        cache = QueryCache()
        q = ExtendedBGP([TriplePattern(X, 20, Y)])
        cache.fill(db, q, _result([{X: 1, Y: 2}]))
        assert cache.probe(db, q, engine="ring-knn") is not None
        before = database_epoch(db)
        db.bump_epoch()
        assert database_epoch(db) == before + 1
        assert cache.probe(db, q, engine="ring-knn") is None
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["entries"] == 0

    def test_clear_drops_entries_keeps_lifetime_counters(self, small_db):
        cache = QueryCache()
        cache.fill(small_db, QUERY, _result([{X: 1, Y: 2, Z: 3}]))
        assert cache.probe(small_db, QUERY, engine="ring-knn")
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["hits"] == 1 and stats["fills"] == 1


# ----------------------------------------------------------------------
# epoch invalidation across a hot index replace
# ----------------------------------------------------------------------


class TestHotReloadInvalidation:
    def test_replaced_index_file_invalidates_entries(self, tmp_path):
        from repro.store import save

        rng = np.random.default_rng(3)
        path = str(tmp_path / "db.idx")
        graphs = [
            [
                (
                    int(rng.integers(0, 12)),
                    20,
                    int(rng.integers(0, 12)),
                )
                for _ in range(40)
            ]
            for _ in range(2)
        ]
        from repro.graph.triples import GraphData

        cache = QueryCache()
        q = ExtendedBGP([TriplePattern(X, 20, Y)])

        save(GraphDatabase(GraphData(graphs[0])), path)
        db1 = GraphDatabase.from_index(path)
        try:
            epoch1 = database_epoch(db1)
            assert epoch1 > 0  # seeded from the store checksum
            cold = RingKnnEngine(db1).evaluate(q)
            cache.fill(db1, q, cold)
            assert cache.probe(db1, q, engine="ring-knn") is not None
        finally:
            db1.close()

        # Hot replace: a different artifact behind the same path.
        save(GraphDatabase(GraphData(graphs[1])), path)
        db2 = GraphDatabase.from_index(path)
        try:
            assert database_epoch(db2) != epoch1
            assert cache.probe(db2, q, engine="ring-knn") is None
            assert cache.stats()["invalidations"] == 1
            # The fresh database's results are admitted under its epoch.
            cache.fill(db2, q, RingKnnEngine(db2).evaluate(q))
            assert cache.probe(db2, q, engine="ring-knn") is not None
        finally:
            db2.close()


# ----------------------------------------------------------------------
# cache events on the golden Figure-2 workload (what a hit returns is
# held door by door in tests/test_matrix.py)
# ----------------------------------------------------------------------


class TestGoldenFigure2Sweep:
    def test_trace_records_cache_hit_event(self, figure2):
        query = figure2.queries[0]
        engine = AutoEngine(figure2.db, cache=QueryCache())
        engine.evaluate(query)
        trace = QueryTrace()
        result = engine.evaluate(query, trace=trace)
        assert result.cached
        assert trace.meta["cache"]["event"] == "cache_hit"
        assert trace.meta["cache"]["outcome"] == "hit"
        assert trace.meta["cache"]["signature"]
        assert trace.solutions == len(result.solutions)

    def test_limit_bypasses_the_cache(self, figure2):
        query = figure2.queries[0]
        engine = AutoEngine(figure2.db, cache=QueryCache())
        engine.evaluate(query)  # fills
        limited = engine.evaluate(query, limit=1)
        assert not limited.cached
        assert len(limited.solutions) <= 1
