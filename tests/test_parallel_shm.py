"""Pool-size-sweep battery for the shared-memory zero-copy transport.

Two layers of acceptance for :mod:`repro.parallel.shm` (the per-structure
flatten → attach round trips live in ``tests/test_layout.py``, one
battery over both carriers):

* **Golden sweep** — on the Figure-2 workload, solutions and merged
  traced op counts are byte-identical to serial for pool sizes 1, 2, 4
  under *both* fork and spawn start methods (spawn proves the transport
  carries everything — nothing rides copy-on-write inheritance).
* **Lifecycle** — every created segment is unlinked after an engine
  closes, after a worker raises mid-shard, and after a ``serve-batch``
  run finishes; a subprocess asserts a full create/evaluate/exit cycle
  emits no ``resource_tracker`` warnings.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import _build
from repro.engines.parallel_knn import ParallelRingKnnEngine
from repro.engines.ring_knn import RingKnnEngine
from repro.obs import QueryTrace, validate_trace
from repro.parallel.executor import (
    ENV_START_METHOD,
    close_pools_for,
    pool_for,
    shutdown_pools,
)
from repro.parallel.scheduler import QueryScheduler
from repro.parallel.shm import ScratchBuffer, active_segments
from repro.parallel.worker import ShardTask
from repro.query.model import ExtendedBGP, TriplePattern, Var
from tests.test_golden_opcounts import CONFIG

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")

#: Trace-document keys that legitimately differ between serial and
#: sharded runs (wall times, phase breakdown, execution metadata, and
#: the engine label itself).
_EXCLUDED = frozenset({"elapsed", "phases", "meta", "engine"})


def _comparable(trace: QueryTrace) -> dict:
    doc = trace.to_dict()
    validate_trace(doc)
    return {key: doc[key] for key in doc if key not in _EXCLUDED}


def test_scratch_buffer_publish_grow_and_reuse():
    scratch = ScratchBuffer()
    try:
        name1, n1 = scratch.publish(list(range(100)))
        assert n1 == 100
        assert name1 in active_segments()
        # Re-publishing within capacity reuses the same segment.
        name2, n2 = scratch.publish([7, 8, 9])
        assert (name2, n2) == (name1, 3)
        # Growing past capacity re-registers under a new name and
        # unlinks the old segment.
        name3, n3 = scratch.publish(list(range(10_000)))
        assert name3 != name1
        assert n3 == 10_000
        assert name1 not in active_segments()
        assert name3 in active_segments()
    finally:
        scratch.close()
    assert scratch.name is None


# ----------------------------------------------------------------------
# golden Figure-2 sweep: workers x start methods, byte-identical
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure2():
    db, workload = _build(CONFIG)
    queries = [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]
    serial = RingKnnEngine(db)
    expected = []
    for query in queries:
        trace = QueryTrace()
        result = serial.evaluate(query, trace=trace)
        expected.append((result.solutions, _comparable(trace)))
    # The scheduler routes through the auto engine, whose per-query
    # strategy choice (ring-knn vs ring-knn-s) fixes the solution order.
    from repro.engines.auto import AutoEngine

    auto = AutoEngine(db)
    auto_expected = [auto.evaluate(query).solutions for query in queries]
    return db, queries, expected, auto_expected


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sweep_byte_identical_to_serial(
    figure2, monkeypatch, workers, start_method
):
    db, queries, expected, _auto_expected = figure2
    monkeypatch.setenv(ENV_START_METHOD, start_method)
    shutdown_pools()  # force a fresh pool under this start method
    try:
        parallel = ParallelRingKnnEngine(db, workers=workers)
        for query, (expected_solutions, expected_doc) in zip(
            queries, expected
        ):
            trace = QueryTrace()
            got = parallel.evaluate(query, trace=trace)
            assert got.solutions == expected_solutions, (
                workers,
                start_method,
                query,
            )
            assert _comparable(trace) == expected_doc, (
                workers,
                start_method,
                query,
            )
        if workers >= 2:
            assert pool_for(db, workers).start_method == start_method
    finally:
        shutdown_pools()


@pytest.mark.parametrize("start_method", START_METHODS)
def test_scheduler_batch_byte_identical_both_methods(
    figure2, monkeypatch, start_method
):
    db, queries, _expected, auto_expected = figure2
    monkeypatch.setenv(ENV_START_METHOD, start_method)
    shutdown_pools()
    scheduler = QueryScheduler(db, workers=2)
    try:
        scheduler.warmup()
        results = scheduler.run_batch(queries)
        assert len(results) == len(queries)
        for result, expected_solutions in zip(results, auto_expected):
            assert result.solutions == expected_solutions
    finally:
        scheduler.close()
    assert active_segments() == ()


# ----------------------------------------------------------------------
# shm lifecycle: nothing leaks
# ----------------------------------------------------------------------
def test_segments_unlinked_after_engine_close(figure2):
    db, queries, _expected, _auto_expected = figure2
    engine = ParallelRingKnnEngine(db, workers=2)
    engine.evaluate(queries[0])
    assert active_segments(), "a warm pool must hold shared segments"
    engine.close()
    assert active_segments() == ()
    # The engine transparently restarts a pool on the next evaluation.
    result = engine.evaluate(queries[0])
    assert result.engine == "parallel-knn"
    engine.close()
    assert active_segments() == ()


def test_segments_unlinked_after_worker_raises_mid_shard(small_db):
    pool = pool_for(small_db, 2)
    segment = pool.publish_candidates([1, 2, 3, 4])
    bad = ShardTask(
        uid=pool.next_uid(),
        index=0,
        query=ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))]),
        engine="no-such-engine",
        exact_estimates=False,
        variable="x",
        span=(segment, 0, 4),
        candidates=None,
        budget=None,
        limit=None,
        traced=False,
    )
    with pytest.raises(KeyError):
        pool.map_shards([bad])
    # The pool survives a task exception and still answers correctly...
    expected = RingKnnEngine(small_db).evaluate(
        ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))])
    )
    got = ParallelRingKnnEngine(small_db, workers=2).evaluate(
        ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))])
    )
    assert got.solutions == expected.solutions
    # ...and closing it unlinks every segment it created.
    close_pools_for(small_db)
    assert active_segments() == ()


def test_segments_unlinked_after_serve_batch(tmp_path, small_db, small_graph, small_knn, small_points):
    from repro.cli import main as cli_main
    from repro.graph.io import save_bundle

    bundle = tmp_path / "small.npz"
    save_bundle(str(bundle), small_graph, small_knn, small_points)
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "(?x, 20, ?y)\n"
        "(?x, 20, ?y) . (?y, 21, ?z)\n"
        "# comment\n"
        "(?x, 22, ?x)\n"
    )
    rc = cli_main(
        [
            "serve-batch",
            "--data",
            str(bundle),
            "--queries",
            str(queries),
            "--workers",
            "2",
        ]
    )
    assert rc == 0
    assert active_segments() == ()


_EXIT_SCRIPT = """
import numpy as np
from repro.engines.database import GraphDatabase
from repro.engines.parallel_knn import ParallelRingKnnEngine
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP, TriplePattern, Var

rng = np.random.default_rng(7)
triples = [
    (int(rng.integers(0, 20)), int(20 + rng.integers(0, 3)),
     int(rng.integers(0, 20)))
    for _ in range(120)
]
points = np.random.default_rng(11).normal(size=(20, 2))
db = GraphDatabase(GraphData(triples), build_knn_graph_bruteforce(points, K=5))
query = ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))])
engine = ParallelRingKnnEngine(db, workers=2)
engine.evaluate(query)
scheduler = QueryScheduler(db, workers=2)
scheduler.run_batch([query, query])
# Deliberately no close(): the atexit pool shutdown must unlink all
# segments, leaving nothing for the resource tracker to complain about.
print("OK")
"""


@pytest.mark.parametrize("start_method", START_METHODS)
def test_no_resource_tracker_warnings_on_exit(start_method):
    repo_src = Path(__file__).parents[1] / "src"
    env = {
        "PYTHONPATH": str(repo_src),
        "PATH": "/usr/bin:/bin",
        ENV_START_METHOD: start_method,
    }
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked shared_memory" not in proc.stderr, proc.stderr
