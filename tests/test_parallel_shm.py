"""Pool-size-sweep battery for the shared-memory zero-copy transport.

Two layers of acceptance for :mod:`repro.parallel.shm` (the per-structure
flatten → attach round trips live in ``tests/test_layout.py``, one
battery over both carriers):

* **Golden sweep** — on the Figure-2 workload, ``QueryScheduler.run_batch``
  returns the serial engine's solutions in the serial order, with the
  serial counters, for pool sizes 1, 2, 4 under *both* fork and spawn
  start methods (spawn proves the transport carries everything — nothing
  rides copy-on-write inheritance).
* **Lifecycle** — every created segment is unlinked after a pool closes
  and after a worker raises mid-batch; a subprocess asserts a full create/evaluate/exit cycle —
  over a built database and over a store-backed one — emits no
  ``resource_tracker`` warnings.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engines.auto import AutoEngine
from repro.experiments.registry import figure2_setup
from repro.parallel.executor import (
    ENV_START_METHOD,
    close_pools_for,
    pool_for,
    shutdown_pools,
)
from repro.parallel.scheduler import QueryScheduler
from repro.parallel.shm import active_segments
from repro.parallel.worker import QueryBatchTask, QueryTask
from repro.query.model import ExtendedBGP, TriplePattern, Var
from tests.test_golden_opcounts import GOLDEN_DATA, GOLDEN_WORKLOAD

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")


def _counts(stats):
    """Everything a result's stats say but its wall time: the counters,
    the timeout flag, the first descent and the similarity variables."""
    return dataclasses.replace(stats, elapsed=0.0)


# ----------------------------------------------------------------------
# golden Figure-2 sweep: workers x start methods, byte-identical
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure2():
    _bench, db, workload = figure2_setup(GOLDEN_DATA, GOLDEN_WORKLOAD)
    queries = [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]
    # The scheduler routes through the auto engine, whose per-query
    # strategy choice (ring-knn vs ring-knn-s) fixes the solution order.
    auto = AutoEngine(db)
    return db, queries, [auto.evaluate(query) for query in queries]


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sweep_byte_identical_to_serial(
    figure2, monkeypatch, workers, start_method
):
    db, queries, expected = figure2
    monkeypatch.setenv(ENV_START_METHOD, start_method)
    shutdown_pools()  # force a fresh pool under this start method
    scheduler = QueryScheduler(db, workers=workers)
    try:
        results = scheduler.run_batch(queries)
        assert len(results) == len(queries)
        for query, got, want in zip(queries, results, expected):
            where = (workers, start_method, query)
            assert got.solutions == want.solutions, where
            assert got.engine == want.engine, where
            assert _counts(got.stats) == _counts(want.stats), where
        if workers >= 2:
            assert pool_for(db, workers).start_method == start_method
    finally:
        shutdown_pools()


@pytest.mark.parametrize("start_method", START_METHODS)
def test_scheduler_batch_byte_identical_both_methods(
    figure2, monkeypatch, start_method
):
    db, queries, expected = figure2
    monkeypatch.setenv(ENV_START_METHOD, start_method)
    shutdown_pools()
    scheduler = QueryScheduler(db, workers=2)
    try:
        scheduler.warmup()
        results = scheduler.run_batch(queries)
        assert len(results) == len(queries)
        for got, want in zip(results, expected):
            assert got.solutions == want.solutions
    finally:
        scheduler.close()
    assert active_segments() == ()


# ----------------------------------------------------------------------
# shm lifecycle: nothing leaks
# ----------------------------------------------------------------------
def test_segments_unlinked_after_pool_close(figure2):
    db, queries, expected = figure2
    scheduler = QueryScheduler(db, workers=2)
    scheduler.run_batch(queries[:1])
    assert active_segments(), "a warm pool must hold its shared segment"
    scheduler.close()
    assert active_segments() == ()
    # The scheduler transparently restarts a pool on the next batch.
    (result,) = scheduler.run_batch(queries[:1])
    assert result.solutions == expected[0].solutions
    scheduler.close()
    assert active_segments() == ()


def test_segments_unlinked_after_worker_raises_mid_batch(small_db):
    query = ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))])
    pool = pool_for(small_db, 2)
    bad = QueryBatchTask(
        tasks=(
            QueryTask(
                uid=pool.next_uid(),
                index=0,
                query=query,
                engine="no-such-engine",
                timeout=None,
                limit=None,
            ),
        )
    )
    with pytest.raises(KeyError):
        pool.submit_batch(bad).get()
    # The pool survives a task exception and still answers correctly...
    (got,) = QueryScheduler(small_db, workers=2).run_batch([query])
    assert got.solutions == AutoEngine(small_db).evaluate(query).solutions
    # ...and closing it unlinks every segment it created.
    close_pools_for(small_db)
    assert active_segments() == ()


_EXIT_SCRIPT = """
import sys
import numpy as np
from repro.engines.database import GraphDatabase
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.parallel.scheduler import QueryScheduler
from repro.parallel.shm import active_segments
from repro.query.model import ExtendedBGP, TriplePattern, Var
from repro.store import save

rng = np.random.default_rng(7)
triples = [
    (int(rng.integers(0, 20)), int(20 + rng.integers(0, 3)),
     int(rng.integers(0, 20)))
    for _ in range(120)
]
points = np.random.default_rng(11).normal(size=(20, 2))
db = GraphDatabase(GraphData(triples), build_knn_graph_bruteforce(points, K=5))
query = ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))])
built = QueryScheduler(db, workers=2).run_batch([query, query])
assert active_segments(), "a built database rides a shared segment"
save(db, sys.argv[1])
mapped_db = GraphDatabase.from_index(sys.argv[1])
mapped = QueryScheduler(mapped_db, workers=2).run_batch([query, query])
assert len(active_segments()) == 1, "a store-backed pool creates none"
assert [r.solutions for r in mapped] == [r.solutions for r in built]
# Deliberately no close(): the atexit pool shutdown must unlink all
# segments, leaving nothing for the resource tracker to complain about.
print("OK")
"""


@pytest.mark.parametrize("start_method", START_METHODS)
def test_no_resource_tracker_warnings_on_exit(start_method, tmp_path):
    repo_src = Path(__file__).parents[1] / "src"
    env = {
        "PYTHONPATH": str(repo_src),
        "PATH": "/usr/bin:/bin",
        ENV_START_METHOD: start_method,
    }
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_SCRIPT, str(tmp_path / "exit.idx")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked shared_memory" not in proc.stderr, proc.stderr
