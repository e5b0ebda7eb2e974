"""Shared fixtures: small deterministic graphs, K-NN graphs, databases,
and the golden Figure-2 setup with its serial answers.

Session-scoped where construction is non-trivial; all randomness is
seeded so failures reproduce. The autouse ``_leak_check`` fails any
test that leaves an index mapping, a pool or a server thread live. The
helpers below the fixtures (``_counts``, ``_size``, ``_comparable``,
``_rename``, ``_query_text``, ``_within``, ``_under_killed_workers``,
``_request``, ``_post``, ``_get``) are imported by test modules as
``from conftest import ...``.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import multiprocessing
import os
import re
import signal
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from http.client import HTTPConnection
from types import SimpleNamespace

import numpy as np
import pytest

import repro.parallel.executor as executor
import repro.store.io as store_io
from repro.datasets.wikimedia import WikimediaConfig, generate_benchmark
from repro.engines.auto import AutoEngine
from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.engines.ring_knn import RingKnnEngine
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph
from repro.knn.graph import KnnGraph
from repro.ltj.stats import EvaluationStats
from repro.obs import QueryTrace, validate_trace
from repro.parallel.executor import ENV_START_METHOD, shutdown_pools
from repro.query.model import (
    DEFAULT_RELATION,
    DistClause,
    ExtendedBGP,
    SimClause,
    TriplePattern,
    Var,
    is_var,
)
from repro.query.parser import parse_query
from repro.store import save


# ----------------------------------------------------------------------
# the leak check: a test releases what it acquires
# ----------------------------------------------------------------------
_acquired = SimpleNamespace(mappings=[], executors=[])


class _RecordedMmap(mmap.mmap):
    def __new__(cls, *args, **kwargs):
        mapping = super().__new__(cls, *args, **kwargs)
        mapping.stack = traceback.extract_stack(limit=24)[:-1]
        _acquired.mappings.append(mapping)
        return mapping


class _RecordedExecutor(ProcessPoolExecutor):
    closed = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stack = traceback.extract_stack(limit=24)[:-1]
        _acquired.executors.append(self)

    def shutdown(self, *args, **kwargs):
        self.closed = True
        super().shutdown(*args, **kwargs)

    close = shutdown


def _acquired_at(resource):
    frames = [frame for frame in resource.stack
              if not re.search("/(_pytest|pluggy)/", frame.filename)]
    return (f"{type(resource).__name__} acquired at:\n"
            + "".join(traceback.format_list(frames)))


def _serve_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("repro-serve")}


@pytest.fixture(autouse=True)
def _leak_check(monkeypatch):
    """Fail the test if it leaves live an index mapping, an executor no
    pool in ``executor._POOLS`` owns, or a ``repro-serve`` thread; then
    close what it can, so one leak fails one test."""
    global _acquired
    _acquired = SimpleNamespace(mappings=[], executors=[])
    monkeypatch.setattr(store_io, "mmap", SimpleNamespace(
        mmap=_RecordedMmap, ACCESS_READ=mmap.ACCESS_READ))
    monkeypatch.setattr(executor, "ProcessPoolExecutor", _RecordedExecutor)
    threads = _serve_threads()
    yield _acquired
    owned = {id(pool._executor) for pool in executor._POOLS.values()}
    report = []
    for resource in _acquired.mappings + _acquired.executors:
        if not resource.closed and id(resource) not in owned:
            report.append(_acquired_at(resource))
            with contextlib.suppress(BufferError):
                resource.close()
    for thread in _serve_threads() - threads:
        thread.join(5.0)  # a failed start's thread is on its way out
        if thread.is_alive():
            report.append(f"server thread {thread.name!r} still running")
    if report:
        pytest.fail(f"{len(report)} resource(s) left live:\n"
                    + "\n".join(report), pytrace=False)


@pytest.fixture(params=("fork", "spawn"))
def start_method(request, monkeypatch):
    """Run the test under each pool start method, on fresh pools.

    Spawn is reached through ``REPRO_PARALLEL_START_METHOD``; it proves
    a worker gets everything from the index file, since nothing rides
    copy-on-write inheritance."""
    method = request.param
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    monkeypatch.setenv(ENV_START_METHOD, method)
    shutdown_pools()
    yield method
    shutdown_pools()


@pytest.fixture(scope="session")
def paper_figure1_graph() -> GraphData:
    """The travel graph of Figure 1 (labels: c = cheap, e = expensive).

    Nodes 1..7. Example 1 pins down the cheap edges: for the BGP
    {(x, c, y), (y, c, z)} the candidate subjects of the c-block are
    {2, 3, 4}, the candidate objects {1, 4, 5, 6}, their intersection
    {4}; binding y := 4 leaves z in {5, 6} and x in {2, 3}. The
    expensive edges are not load-bearing for the examples.
    """
    c, e = 10, 11
    return GraphData(
        [
            (2, c, 4),
            (3, c, 4),
            (4, c, 5),
            (4, c, 6),
            (2, c, 1),
            (1, e, 3),
            (5, e, 1),
            (6, e, 5),
        ]
    )


@pytest.fixture(scope="session")
def small_graph() -> GraphData:
    """A 20-node random graph with 3 predicates (ids 20..22)."""
    rng = np.random.default_rng(7)
    triples = [
        (
            int(rng.integers(0, 20)),
            int(20 + rng.integers(0, 3)),
            int(rng.integers(0, 20)),
        )
        for _ in range(120)
    ]
    return GraphData(triples)


@pytest.fixture(scope="session")
def small_points() -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.normal(size=(20, 2))


@pytest.fixture(scope="session")
def small_knn(small_points) -> KnnGraph:
    return build_knn_graph(small_points, K=5)


@pytest.fixture(scope="session")
def small_db(small_graph, small_knn) -> GraphDatabase:
    return GraphDatabase(small_graph, small_knn)


@pytest.fixture(scope="session")
def bench():
    """A tiny synthetic Wikimedia-like benchmark."""
    return generate_benchmark(
        WikimediaConfig(
            n_entities=120,
            n_images=60,
            n_misc_triples=700,
            K=8,
            seed=5,
        )
    )


@pytest.fixture(scope="session")
def bench_db(bench) -> GraphDatabase:
    return GraphDatabase(bench.graph, bench.knn_graph)


# ----------------------------------------------------------------------
# the golden Figure-2 setup, built once
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure2:
    """The golden Figure-2 database, its workload and serial answers.

    Read-only: a test that changes the database builds its own with
    ``figure2_setup``.
    """

    db: GraphDatabase
    workload: dict[str, list[ExtendedBGP]]
    families: list[str]
    """Per query of :attr:`queries`, its workload family."""
    queries: list[ExtendedBGP]
    """The families in sorted order, each in workload order."""
    index_path: str
    """:attr:`db` saved with ``repro.store.save``."""
    auto: list[QueryResult]
    """The serial ``auto`` engine's result per query."""
    ring: list[QueryResult]
    """The serial traced ``ring-knn`` result per query."""
    traces: list[dict]
    """``_comparable`` of each ``ring-knn`` trace document."""


@pytest.fixture(scope="session")
def figure2(tmp_path_factory) -> Figure2:
    from repro.experiments.registry import figure2_setup
    from tests.test_golden_opcounts import GOLDEN_DATA, GOLDEN_WORKLOAD

    _bench, db, workload = figure2_setup(GOLDEN_DATA, GOLDEN_WORKLOAD)
    pairs = [
        (family, query)
        for family, queries in sorted(workload.items())
        for query in queries
    ]
    auto, ring = AutoEngine(db), RingKnnEngine(db)
    ring_results, traces = [], []
    for _family, query in pairs:
        trace = QueryTrace(query=_query_text(query))
        ring_results.append(ring.evaluate(query, trace=trace))
        traces.append(_comparable(trace.to_dict()))
    index_path = str(tmp_path_factory.mktemp("figure2") / "figure2.idx")
    save(db, index_path)
    return Figure2(
        db=db,
        workload=workload,
        families=[family for family, _query in pairs],
        queries=[query for _family, query in pairs],
        index_path=index_path,
        auto=[auto.evaluate(query) for _family, query in pairs],
        ring=ring_results,
        traces=traces,
    )


# ----------------------------------------------------------------------
# comparing answers
# ----------------------------------------------------------------------
def _counts(stats: EvaluationStats) -> EvaluationStats:
    """Everything a result's stats say but its wall time: the counters,
    the timeout flag, the first descent and the similarity variables."""
    return stats.replace(elapsed=0.0)


def _size(closed_range):
    """Entries in a closed ``(lo, hi)`` range; empty when ``lo > hi``."""
    lo, hi = closed_range
    return max(0, hi - lo + 1)


#: Trace-document keys that legitimately differ between two runs of one
#: query (wall times, phase breakdown, execution metadata, the label).
_EXCLUDED = frozenset({"elapsed", "phases", "meta", "engine"})


def _comparable(document: dict) -> dict:
    """A trace document, schema-checked, without the keys that differ
    between two runs of one query."""
    validate_trace(document)
    return {key: document[key] for key in document if key not in _EXCLUDED}


def _rename(query: ExtendedBGP, mapping: dict[Var, Var]) -> ExtendedBGP:
    """Apply a variable renaming, keeping atoms in their written order."""

    def ren(term):
        return mapping.get(term, term) if isinstance(term, Var) else term

    return ExtendedBGP(
        [TriplePattern(ren(t.s), ren(t.p), ren(t.o)) for t in query.triples],
        [
            SimClause(ren(c.x), c.k, ren(c.y), c.relation)
            for c in query.clauses
        ],
        [DistClause(ren(c.x), c.d, ren(c.y)) for c in query.dist_clauses],
    )


def _term_text(term) -> str:
    return f"?{term.name}" if is_var(term) else str(int(term))


def _query_text(query: ExtendedBGP) -> str:
    """``query`` in the textual grammar; it parses back to ``query``."""
    atoms = [
        f"({_term_text(t.s)}, {_term_text(t.p)}, {_term_text(t.o)})"
        for t in query.triples
    ]
    for clause in query.clauses:
        tag = (
            ""
            if clause.relation == DEFAULT_RELATION
            else f":{clause.relation}"
        )
        atoms.append(
            f"knn{tag}({_term_text(clause.x)}, {_term_text(clause.y)}, "
            f"{clause.k})"
        )
    for dist in query.dist_clauses:
        atoms.append(
            f"dist({_term_text(dist.x)}, {_term_text(dist.y)}, {dist.d})"
        )
    text = " . ".join(atoms)
    assert parse_query(text) == query, text
    return text


def _knn_fan(clauses: int) -> str:
    """``(?a, 1, ?b)`` and ``clauses`` unsafe ``knn(?u_i, ?b, 5)``: only
    its ``Dom`` weight covers each ``?u_i``, so ``rho*`` grows by
    ``log2 D`` a clause and passes 1024, where ``2**rho`` stops being a
    finite float, at 200 clauses on any graph with ``D >= 64``."""
    knns = [f"knn(?u{i}, ?b, 5)" for i in range(clauses)]
    return " . ".join(["(?a, 1, ?b)", *knns])


# ----------------------------------------------------------------------
# killing a pool worker
# ----------------------------------------------------------------------
#: Four open hops on the Figure-2 graph: a worker is still busy with it
#: (it runs to its timeout) when a test kills one.
LONG_QUERY = "(?a, ?p, ?b) . (?b, ?q, ?c) . (?c, ?r, ?d) . (?d, ?s, ?e)"


def _within(call, seconds=10.0):
    """Run ``call()`` on a daemon thread and return what it returned or
    raised; fails, rather than hangs, if it is still running after
    ``seconds``."""
    outcome: list = []

    def run():
        try:
            outcome.append(call())
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"still running after {seconds} s"
    return outcome[0]


def _under_killed_workers(pool, call, victims=1, after=0.2, within=10.0):
    """:func:`_within` for ``call()``, with the first ``victims`` of
    ``pool``'s running workers SIGKILLed ``after`` seconds in; fails if
    ``call`` is still running ``within`` seconds after the kill."""
    pids = [process.pid for process in pool.processes[:victims]]
    threading.Timer(
        after, lambda: [os.kill(pid, signal.SIGKILL) for pid in pids]
    ).start()
    return _within(call, after + within)


# ----------------------------------------------------------------------
# talking to a test server
# ----------------------------------------------------------------------
def _request(host: str, port: int, method: str, path: str, payload=None,
             *, raw_body: bool = False, timeout: float = 120):
    """One HTTP exchange; returns ``(status, headers, decoded body)`` —
    or the body's bytes as they came, with ``raw_body``."""
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if raw_body:
            return response.status, dict(response.headers), raw
        content_type = response.headers.get("Content-Type", "")
        decoded = (
            json.loads(raw)
            if content_type.startswith("application/json")
            else raw.decode("utf-8")
        )
        return response.status, dict(response.headers), decoded
    finally:
        conn.close()


def _post(handle, path: str, payload, timeout: float = 120):
    return _request(handle.host, handle.port, "POST", path, payload,
                    timeout=timeout)


def _get(handle, path: str):
    return _request(handle.host, handle.port, "GET", path)
