"""One differential matrix: every way of answering a query, one harness.

A door is a way of getting an answer: the serial engines, the cached
``AutoEngine``, ``QueryScheduler.run_batch`` in this process or over a
pool (fork or spawn), and the HTTP server's routes; each over a built
database or one mapped from its index file. Two inputs go through them:

* **The golden Figure-2 workload.** Each door is asked every distinct
  query twice over a fresh cache — the first ask misses, the second
  hits — and must return the serial ``auto`` run's ordered rows, engine
  and counters both times. A pinned, traced ``ring-knn`` request runs
  uncached and must return the serial traced document, op counts
  included. A thin pool
  sweep (2 and 4 workers, fork and spawn, built and mapped) holds the
  pool's answers and its scratch-file lifecycle.
* **Hypothesis extended BGPs.** Every engine's multiset equals
  :func:`repro.graph.naive.evaluate_naive`; the pool, the cache (cold,
  warm, and hit by a pure renaming) and the server return the serial
  run's ordered rows; no answer outgrows the LP bound ``Q*``
  (Eqs. 1-2) and the Thm. 2/3 ordering fence holds. Metamorphic rows
  relate each query's answer to those of its variants: its atoms
  reordered, a ``sim`` over one of its clauses, a wider ``k`` or ``d``,
  a projection and a limit.
* **A query too symmetric to canonicalize** is a cache miss through
  every cached door, answered with the serial rows.

A new door is a new row here, not a new file.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    _comparable,
    _counts,
    _post,
    _query_text,
    _rename,
    _request,
    _term_text,
)
from repro.bounds.linear_program import solve_size_bound
from repro.cache import CanonicalizationError, QueryCache, canonicalize
from repro.engines.auto import AutoEngine
from repro.engines.baseline import BaselineEngine
from repro.engines.classic import ClassicSixPermEngine
from repro.engines.database import GraphDatabase
from repro.engines.materialize import MaterializeEngine
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.graph.naive import evaluate_naive
from repro.obs import QueryTrace
from repro.parallel.executor import ENV_START_METHOD, close_pools_for, pool_for
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP, Var
from repro.query.parser import parse_query
from repro.serve import protocol
from repro.serve.app import ServeConfig, ServerThread
from repro.utils.errors import QueryError
from tests.test_auto_and_stats import _assert_fenced
from tests.test_differential_engines import (
    _POOL,
    D_MAX,
    K,
    VARS,
    canonical,
    extended_bgps,
)


def _in_process(result):
    return result.solutions, result.engine, _counts(result.stats)


def _on_the_wire(result):
    return (
        protocol.encode_solutions(result.solutions),
        result.engine,
        protocol.query_stats(result.stats),
    )


def _explained(result):
    """What ``/explain`` shows of a run: no rows."""
    return None, *_on_the_wire(result)[1:]


# ----------------------------------------------------------------------
# the golden Figure-2 workload through every door
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mapped(figure2):
    """The Figure-2 database mapped from its index file."""
    db = GraphDatabase.from_index(figure2.index_path)
    yield db
    db.close()


def _backing(figure2, mapped, backing):
    return figure2.db if backing == "built" else mapped


def _ask_http(handle, door, select):
    """``ask`` for an HTTP door: ``/query`` (the batched route),
    ``/query+trace`` (traced, so the direct route), ``/query+ring-knn``
    (pinned and traced) or ``/explain`` (``analyze``, under ``auto``'s
    choice)."""

    def ask_one(query):
        payload = {"query": _query_text(query)}
        if door == "/explain":
            payload.update(analyze=True, engine=select(query))
            status, _h, body = _post(handle, "/explain", payload)
            assert status == 200, body
            protocol.validate_explain_response(body)
            trace = body["trace"]
            hit = trace["meta"]["cache"]["outcome"] == "hit"
            return (None, body["engine"], trace["stats"]), hit, None
        if door != "/query":
            payload["trace"] = True
        if door == "/query+ring-knn":
            payload["engine"] = "ring-knn"
        status, _h, raw = _request(
            handle.host, handle.port, "POST", "/query", payload,
            raw_body=True,
        )
        assert status == 200, raw
        body = json.loads(raw)
        # The reply is hand-formatted: it must be its own canonical JSON.
        assert raw == (json.dumps(body, sort_keys=True) + "\n").encode()
        protocol.validate_query_response(body)
        assert body["route"] == ("direct" if "trace" in payload else "batched")
        assert body["timed_out"] is False
        trace = body.get("trace")
        if trace is not None and "cache" in trace["meta"]:
            outcome = trace["meta"]["cache"]["outcome"]
            assert outcome == ("hit" if body["cached"] else "miss")
        view = (body["solutions"], body["engine"], body["stats"])
        return view, body["cached"], trace and _comparable(trace)

    return lambda queries: [ask_one(query) for query in queries]


@contextmanager
def _door(door, db):
    """One way of asking, over a fresh cache: yields ``(cache, ask,
    view)``. ``ask(queries)`` answers each query with ``(what the door
    shows, whether it was served from the cache, the comparable trace
    document or None)``; ``view`` turns a serial result into what the
    door shows."""
    if door == "auto":
        cache = QueryCache()
        engine = AutoEngine(db, cache=cache)

        def ask_one(query):
            trace = QueryTrace()
            result = engine.evaluate(query, trace=trace)
            outcome = trace.meta["cache"]["outcome"]
            assert outcome == ("hit" if result.cached else "miss")
            return _in_process(result), result.cached, None

        yield cache, lambda queries: [ask_one(q) for q in queries], _in_process
    elif door.startswith("pool"):
        cache = QueryCache()
        scheduler = QueryScheduler(db, workers=int(door[-1]), cache=cache)
        try:
            yield cache, lambda queries: [
                (_in_process(result), result.cached, None)
                for result in scheduler.run_batch(queries)
            ], _in_process
        finally:
            scheduler.close()
    else:
        handle = ServerThread(db, ServeConfig(workers=2)).start()
        try:
            yield (
                handle.server.cache,
                _ask_http(handle, door, AutoEngine(db).select),
                _explained if door == "/explain" else _on_the_wire,
            )
        finally:
            handle.shutdown()
            close_pools_for(db)


DOORS = [
    ("auto", "built"),
    ("auto", "mapped"),
    ("pool-1", "built"),
    ("pool-2", "built"),
    ("pool-2", "mapped"),
    ("/query", "mapped"),
    ("/query+trace", "mapped"),
    ("/query+ring-knn", "mapped"),
    ("/explain", "mapped"),
]


@pytest.mark.parametrize("door, backing", DOORS)
def test_figure2_door(figure2, mapped, door, backing):
    db = _backing(figure2, mapped, backing)
    select = AutoEngine(figure2.db).select
    # One query per cache key, so every first ask misses.
    keys: dict[tuple, int] = {}
    for i, query in enumerate(figure2.queries):
        form = canonicalize(query)
        keys.setdefault((form.signature, form.profile, select(query)), i)
    picked = list(keys.values())
    # A pinned strategy runs cold and uncached, so its reference is the
    # serial traced ring-knn run and it never touches the cache.
    pinned = door == "/query+ring-knn"
    reference = figure2.ring if pinned else figure2.auto
    n = len(picked)
    with _door(door, db) as (cache, ask, view):
        for replay in (False, True):
            answers = ask([figure2.queries[i] for i in picked])
            for i, (shown, cached, doc) in zip(picked, answers):
                where = (door, backing, figure2.families[i], replay)
                assert shown == view(reference[i]), where
                assert cached is (replay and not pinned), where
                if pinned:
                    assert doc == figure2.traces[i], where
        stats = cache.stats()
    counts = (stats["misses"], stats["fills"], stats["hits"])
    assert counts == ((0, 0, 0) if pinned else (n, n, n))


@pytest.mark.parametrize("start_method", ("fork", "spawn"))
@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("backing", ("built", "mapped"))
def test_pool_sweep(figure2, mapped, monkeypatch, backing, workers,
                    start_method):
    """Pooled answers equal serial ones under either start method (spawn
    proves the index file carries everything: nothing rides
    copy-on-write). A mapped database's workers load its own file; a
    built one's pool saves a scratch copy and unlinks it on close."""
    db = _backing(figure2, mapped, backing)
    monkeypatch.setenv(ENV_START_METHOD, start_method)
    close_pools_for(db)  # a fresh pool under this start method
    scheduler = QueryScheduler(db, workers=workers)
    try:
        results = scheduler.run_batch(figure2.queries)
        pool = pool_for(db, workers)
        assert pool.start_method == start_method
        scratch = pool._scratch
    finally:
        scheduler.close()
    assert [_in_process(r) for r in results] == [
        _in_process(r) for r in figure2.auto
    ]
    if backing == "mapped":
        assert scratch is None
        assert os.path.exists(figure2.index_path)
    else:
        assert os.path.basename(scratch).startswith("repro-pool-")
        assert not os.path.exists(scratch)


# ----------------------------------------------------------------------
# random extended BGPs through every door
# ----------------------------------------------------------------------
#: Names a renaming draws from: the generator's own four and four fresh.
NAMES = ("x", "y", "z", "w", "a", "b", "c", "d")


@pytest.fixture(scope="module")
def servers():
    """One server per pool database, over the databases themselves."""
    handles = [
        ServerThread(db, ServeConfig(workers=2)).start() for db, *_ in _POOL
    ]
    try:
        yield handles
    finally:
        for handle in handles:
            handle.shutdown()
        for db, *_ in _POOL:
            close_pools_for(db)


def _assert_metamorphic(db, knn, query, serial, expected):
    """Relations between the answers of related queries, each of which
    the oracle above only checks one query at a time."""
    auto = AutoEngine(db)

    def rows(asked):
        return auto.evaluate(asked).sorted_solutions()

    # Conjunction commutes: reordering the atoms changes no answer.
    assert rows(ExtendedBGP(query.triples[::-1], query.clauses[::-1],
                            query.dist_clauses[::-1])) == expected, query

    # x ~_k y is x <|_k y and y <|_k x (Sec. 3.1): adding sim over a
    # clause keeps exactly the rows whose reverse arc also holds.
    def value(solution, term):
        return solution[term] if isinstance(term, Var) else term

    for c in query.clauses[:1]:
        mutual = rows(parse_query(
            f"{_query_text(query)} . "
            f"sim({_term_text(c.x)}, {_term_text(c.y)}, {c.k})"
        ))
        assert mutual == canonical(
            s for s in serial.solutions
            if knn.is_knn(value(s, c.y), value(s, c.x), c.k)
        ), query

    # Monotone answers: a wider k, or a wider d, loses no row.
    wider_k = tuple(
        dataclasses.replace(c, k=min(c.k + 1, K)) for c in query.clauses
    )
    wider_d = tuple(
        dataclasses.replace(c, d=D_MAX) for c in query.dist_clauses
    )
    for wider in (
        ExtendedBGP(query.triples, wider_k, query.dist_clauses),
        ExtendedBGP(query.triples, query.clauses, wider_d),
    ):
        if wider != query:
            assert set(expected) <= set(rows(wider)), (query, wider)

    # project= is the serial rows' columns; limit=n their first n rows.
    ring = RingKnnEngine(db)
    variables = serial.solutions.variables
    kept = list(variables[: (len(variables) + 1) // 2])
    full = ring.evaluate(query).solutions
    projected = ring.evaluate(query, project=kept).solutions
    assert projected.variables == tuple(kept), query
    assert projected.columns(kept).tolist() == [
        solution[var] for solution in full for var in kept
    ], query
    n = len(serial.solutions) // 2
    limited = auto.evaluate(query, limit=n)
    assert limited.solutions == serial.solutions[:n], (query, n)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    which=st.integers(0, len(_POOL) - 1),
    query=extended_bgps(),
    names=st.permutations(NAMES),
)
# A pure renaming that swaps the two variables: numbering plan slots by
# name made the cache replay the other query's order.
@example(which=0, query=parse_query("knn(?z, ?x, 1)"), names=tuple("zyxwabcd"))
# On the sparse instance, where no member's rank is its id: clauses of
# constants that hold, a leapfrog of a triple with an S range, and the
# last variable reported from D.
@example(
    which=3,
    query=parse_query(
        "(?x, 50, ?y) . knn(?x, ?y, 3) . knn(56, 60, 1) . dist(60, 56, 0.4)"
    ),
    names=tuple("yxzwabcd"),
)
@example(
    which=3,
    query=parse_query("(?x, 51, ?y) . dist(?y, ?w, 0.9)"),
    names=tuple("wzyxabcd"),
)
def test_random_query_every_door(servers, which, query, names):
    db, graph, knn, distances = _POOL[which]
    expected = canonical(evaluate_naive(query, graph, knn, distances))
    for engine in (
        RingKnnEngine(db),
        RingKnnSEngine(db),
        ClassicSixPermEngine(db),
    ):
        got = engine.evaluate(query).sorted_solutions()
        assert got == expected, (engine.name, query)
    serial = AutoEngine(db).evaluate(query)
    assert serial.sorted_solutions() == expected, ("auto", query)
    _assert_metamorphic(db, knn, query, serial, expected)
    # The baseline rejects clause graphs disconnected from the triples
    # (the paper's Sec. 5.3 restriction) — only compare when supported.
    try:
        got = BaselineEngine(db).evaluate(query).sorted_solutions()
    except QueryError:
        pass
    else:
        assert got == expected, ("baseline", query)
    if not query.dist_clauses:
        # The materialization strawman covers <|_k clauses only, and so
        # does the LP bound (which no empty answer can break).
        got = MaterializeEngine(db).evaluate(query).sorted_solutions()
        assert got == expected, ("materialize", query)
        if expected:
            bound = solve_size_bound(
                query,
                max(db.ring.num_edges, 1),
                domain_size=max(db.ring.domain_size, 2),
            )
            assert len(expected) <= bound.q_star * (1 + 1e-9), query
    _assert_fenced(db, query)

    # The pool (the path `repro serve` runs) reproduces the serial order.
    (pooled,) = QueryScheduler(db, workers=2).run_batch([query])
    assert _in_process(pooled) == _in_process(serial), ("pooled", query)

    # Cold, warm, and hit by a pure renaming: each the serial run of
    # the query it answers.
    renamed = _rename(query, dict(zip(VARS, map(Var, names))))
    renamed_serial = AutoEngine(db).evaluate(renamed)
    cached = AutoEngine(db, cache=QueryCache())
    trace = QueryTrace()
    cold = cached.evaluate(query, trace=trace)
    stored = trace.meta["cache"]["stored"]
    for result, want, hit in (
        (cold, serial, False),
        (cached.evaluate(query), serial, stored),
        (cached.evaluate(renamed), renamed_serial, stored),
    ):
        assert result.cached is hit, (query, renamed)
        assert _in_process(result) == _in_process(want), (query, renamed)

    # Over HTTP, through one long-lived cache.
    for asked, want in ((query, serial), (renamed, renamed_serial)):
        status, _h, body = _post(
            servers[which], "/query", {"query": _query_text(asked)}
        )
        assert status == 200, body
        assert body["solutions"] == protocol.encode_solutions(
            want.solutions
        ), ("http", asked)


def test_uncanonical_query_is_served_as_a_miss(servers):
    """A query too symmetric to canonicalize (8 interchangeable atoms on
    one hub: 8! labelings, past ``MAX_LABELINGS``) is a cache miss on
    every ask, through a cached ``AutoEngine`` and over HTTP: answered
    with the serial rows, never filled, never an error."""
    db, *_ = _POOL[0]
    text = " . ".join(f"(0, 50, ?a{i})" for i in range(8))
    query = parse_query(text)
    with pytest.raises(CanonicalizationError):
        canonicalize(query)
    serial = AutoEngine(db).evaluate(query)
    assert len(serial.solutions) == 2**8

    cache = QueryCache()
    cached = AutoEngine(db, cache=cache)
    http = servers[0].server.cache
    before = http.stats()
    for _ask in range(2):
        result = cached.evaluate(query)
        assert not result.cached
        assert _in_process(result) == _in_process(serial)
        status, _h, body = _post(servers[0], "/query", {"query": text})
        assert status == 200, body
        assert body["cached"] is False
        assert body["solutions"] == protocol.encode_solutions(
            serial.solutions
        )
    for stats, was in ((cache.stats(), None), (http.stats(), before)):
        for counter in ("hits", "misses", "fills", "entries"):
            assert stats[counter] == (0 if was is None else was[counter])
        assert stats["inadmissible"] > (0 if was is None else
                                        was["inadmissible"])
