"""Lifecycle battery for the worker pool's index-file transport.

What :mod:`repro.parallel.executor` answers is held with every other
door in ``tests/test_matrix.py`` (2 and 4 workers under fork and spawn);
the per-structure save → load round trips live in
``tests/test_layout.py``. Here:

* **Lifecycle** — a pool over a built database unlinks its scratch index
  file after it closes and after a worker raises mid-batch; a subprocess
  asserts a full create/evaluate/exit cycle — over a built database and
  over a store-backed one — leaves no scratch file and emits no
  ``resource_tracker`` output.
* **A broken index is a typed error, not a hang** — workers whose index
  file was replaced or deleted since the database was opened fail every
  batch with a :class:`StoreFormatError`.
* **A dead worker is a typed error, not a hang** — a worker killed
  mid-batch fails the batch with :class:`WorkerLost` within seconds,
  and the next batch runs on a fresh pool; one killed between batches
  fails none.

Each of these runs under fork and spawn, since a pool's processes,
scratch file and index load differ between the two, with two
exceptions on the default method: the transport-size check (the pickles
it measures are the tasks the parent sends, the same under either) and
the worker killed between batches (a death is seen the same way under
either).
"""

from __future__ import annotations

import glob
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import LONG_QUERY, _under_killed_workers, _within
from repro.engines.auto import AutoEngine
from repro.parallel.executor import (
    ENV_START_METHOD,
    close_pools_for,
    pool_for,
    shutdown_pools,
)
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP, TriplePattern, Var
from repro.query.parser import parse_query
from repro.utils.errors import WorkerLost

START_METHODS = ("fork", "spawn")


# ----------------------------------------------------------------------
# lifecycle: the scratch file goes with the pool
# ----------------------------------------------------------------------
def _warm_scratch(db, workers=2):
    """The scratch file of ``db``'s warm pool, which must exist."""
    scratch = pool_for(db, workers)._scratch
    assert scratch is not None and os.path.exists(scratch), (
        "a warm pool over a built database holds its scratch file"
    )
    assert os.path.basename(scratch).startswith("repro-pool-")
    return scratch


def test_segments_unlinked_after_pool_close(figure2, start_method):
    db, queries = figure2.db, figure2.queries
    scheduler = QueryScheduler(db, workers=2)
    scheduler.run_batch(queries[:1])
    scratch = _warm_scratch(db)
    scheduler.close()
    assert not os.path.exists(scratch)
    # The scheduler transparently restarts a pool on the next batch.
    (result,) = scheduler.run_batch(queries[:1])
    assert result.solutions == figure2.auto[0].solutions
    scratch = _warm_scratch(db)
    scheduler.close()
    assert not os.path.exists(scratch)


def test_segments_unlinked_after_worker_raises_mid_batch(
    small_db, start_method
):
    query = ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))])
    pool = pool_for(small_db, 2)
    with pytest.raises(RuntimeError, match="injected worker fault"):
        pool.run_fault_probe()
    # The pool survives a task exception and still answers correctly...
    (got,) = QueryScheduler(small_db, workers=2).run_batch([query])
    assert got.solutions == AutoEngine(small_db).evaluate(query).solutions
    # ...and closing it unlinks its scratch file.
    scratch = _warm_scratch(small_db)
    close_pools_for(small_db)
    assert not os.path.exists(scratch)


def test_pool_ships_a_path_not_an_index(figure2, monkeypatch):
    """Workers load the index file: the initializer's arguments and every
    task the parent pickles into the pool are descriptors, a fraction of
    the file (a pickled database is four times its size)."""
    from multiprocessing import reduction

    import repro.parallel.executor as executor

    db, queries = figure2.db, figure2.queries
    initargs, sent = [], []
    dumps = reduction.ForkingPickler.dumps

    class RecordingExecutor(executor.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            initargs.extend(kwargs["initargs"])
            super().__init__(*args, **kwargs)

    def recording_dumps(cls, obj, protocol=None):
        sent.append(len(data := dumps(obj, protocol)))
        return data

    monkeypatch.setattr(executor, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(
        reduction.ForkingPickler, "dumps", classmethod(recording_dumps)
    )
    shutdown_pools()  # a fresh pool, so its executor starts here
    scheduler = QueryScheduler(db, workers=2)
    try:
        scheduler.run_batch(queries)
        file_bytes = os.path.getsize(_warm_scratch(db))
    finally:
        scheduler.close()
    assert initargs and sent
    assert len(pickle.dumps(initargs)) < file_bytes / 100
    assert max(sent) < file_bytes / 4, (max(sent), file_bytes)


def test_killed_worker_fails_the_batch_typed(figure2, start_method):
    """A worker SIGKILLed mid-batch loses its task; the batch fails with
    a typed error within seconds instead of waiting for it forever, and
    the next batch runs on a fresh pool."""
    db = figure2.db
    scheduler = QueryScheduler(db, workers=2)
    try:
        scheduler.warmup()
        pool = pool_for(db, 2)
        error = _under_killed_workers(
            pool,
            lambda: scheduler.run_batch([parse_query(LONG_QUERY)] * 4,
                                        timeout=20),
        )
        assert isinstance(error, WorkerLost), error
        assert pool.processes == [], "the pool that lost a worker is closed"
        (result,) = scheduler.run_batch(figure2.queries[:1])
        assert result.solutions == figure2.auto[0].solutions
        assert pool.start_method == start_method
    finally:
        scheduler.close()


def test_worker_killed_between_batches_fails_no_batch(figure2):
    """A worker that dies idle loses no task: the next batch gets a
    fresh pool and the right answers, not a WorkerLost. A death is seen
    the same way under either start method, so this runs on the
    default."""
    db = figure2.db
    scheduler = QueryScheduler(db, workers=2)
    scheduler.warmup()
    pool = pool_for(db, 2)
    victim = pool.processes[0]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while victim.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.05)
    results = _within(lambda: scheduler.run_batch(figure2.queries[:1]))
    assert not isinstance(results, Exception), results
    assert results[0].solutions == figure2.auto[0].solutions
    assert victim not in pool.processes, "the pool was restarted"
    scheduler.close()


#: A small database and one query, for the subprocess scripts below.
_SCRIPT_DB = """
import glob, os, sys, tempfile
import numpy as np
from repro.engines.database import GraphDatabase
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP, TriplePattern, Var
from repro.query.parser import parse_query
from repro.utils.errors import WorkerLost
from repro.store import save

def small_db(seed):
    rng = np.random.default_rng(seed)
    triples = [
        (int(rng.integers(0, 20)), int(20 + rng.integers(0, 3)),
         int(rng.integers(0, 20)))
        for _ in range(120)
    ]
    points = np.random.default_rng(11).normal(size=(20, 2))
    return GraphDatabase(
        GraphData(triples), build_knn_graph(points, K=5)
    )

query = ExtendedBGP([TriplePattern(Var("x"), 20, Var("y"))])
"""

_EXIT_SCRIPT = _SCRIPT_DB + """
scratch = os.path.join(tempfile.gettempdir(), "repro-pool-*")
db = small_db(7)
built = QueryScheduler(db, workers=2).run_batch([query, query])
assert len(glob.glob(scratch)) == 1, "a built database rides a scratch file"
save(db, sys.argv[1])
mapped_db = GraphDatabase.from_index(sys.argv[1])
mapped = QueryScheduler(mapped_db, workers=2).run_batch([query, query])
assert len(glob.glob(scratch)) == 1, "a store-backed pool creates none"
assert [r.solutions for r in mapped] == [r.solutions for r in built]
# Deliberately no close(): the atexit pool shutdown must unlink the
# scratch file and leave nothing for the resource tracker to report.
print("OK")
"""


def _run_script(script, start_method, tmp_path, *args, timeout=120):
    """Run ``script`` in a fresh interpreter whose temp dir is
    ``tmp_path/tmp``; returns the finished process."""
    repo_src = Path(__file__).parents[1] / "src"
    (tmp_path / "tmp").mkdir(exist_ok=True)
    env = {
        "PYTHONPATH": str(repo_src),
        "PATH": "/usr/bin:/bin",
        "TMPDIR": str(tmp_path / "tmp"),
        ENV_START_METHOD: start_method,
    }
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.mark.parametrize("start_method", START_METHODS)
def test_no_resource_tracker_warnings_on_exit(start_method, tmp_path):
    proc = _run_script(
        _EXIT_SCRIPT, start_method, tmp_path, tmp_path / "exit.idx"
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert glob.glob(str(tmp_path / "tmp" / "repro-pool-*")) == []


_BROKEN_INDEX_SCRIPT = _SCRIPT_DB + """
from repro.utils.errors import StoreFormatError

path, how = sys.argv[1], sys.argv[2]
save(small_db(7), path)
db = GraphDatabase.from_index(path)
if how == "replaced":
    save(small_db(8), path)  # `repro build` over the same path
else:
    os.unlink(path)
try:
    QueryScheduler(db, workers=2).run_batch([query])
except StoreFormatError as exc:
    print("StoreFormatError:", exc)
"""


@pytest.mark.parametrize("how", ("replaced", "deleted"))
@pytest.mark.parametrize("start_method", START_METHODS)
def test_broken_index_fails_the_batch_typed(start_method, how, tmp_path):
    """Workers that cannot open the index the parent meant keep the
    error and fail each batch with it. A raising initializer would make
    the pool respawn its workers without end, and the batch would never
    return."""
    proc = _run_script(
        _BROKEN_INDEX_SCRIPT, start_method, tmp_path,
        tmp_path / "db.idx", how, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    expected = "was replaced" if how == "replaced" else "cannot read"
    assert "StoreFormatError:" in proc.stdout, proc.stdout
    assert expected in proc.stdout, proc.stdout
