"""Fault-injection battery for the ``repro serve`` query server.

Every failure mode the server must absorb, exercised under **both**
multiprocessing start methods (the forced-start-method escape hatch the
parallel suite uses):

* a query that outlives its deadline gets a typed 504 and the worker
  pool keeps serving — the next request succeeds;
* a full admission window sheds with 429 + ``Retry-After`` and recovers
  once the in-flight query finishes;
* an injected worker fault (a *real* exception inside a pool process)
  costs that request a typed 500, never the server; so does a pool
  worker SIGKILLed mid-query, within seconds;
* a slow query holds the dispatch thread, not the event loop:
  ``/healthz`` and ``/metrics`` keep answering meanwhile;
* a draining server refuses new queries with a typed 503 while letting
  the in-flight one finish;
* a real ``repro serve --from-index`` subprocess boots and answers
  (``/healthz``, a canonical-JSON ``/query`` reply, ``/metrics``), and
  SIGTERM drains its in-flight query, prints ``drained, exiting`` and
  exits 0.

The in-process tests run the servers with ``debug_faults=True`` — the
only mode in which the ``debug`` request field is honoured; the last
test pins that the CLI flag wires it through end to end.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from queue import Empty, Queue

import numpy as np
import pytest

from conftest import (
    LONG_QUERY,
    _post,
    _query_text,
    _request,
    _under_killed_workers,
)
from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.ltj.stats import EvaluationStats
from repro.obs.spans import Spans
from repro.parallel.executor import ENV_START_METHOD, pool_for, shutdown_pools
from repro.query.model import Var
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.app import ReproServer, ServeConfig, ServerThread, _Pending
from repro.store import save
from repro.utils.errors import AdmissionRejected

START_METHODS = ("fork", "spawn")

#: Matches the 20-node conftest graph: predicates 20..22, K=5 K-NN.
QUERY = "(?x, 20, ?y) . knn(?x, ?y, 3)"


def _make_db() -> GraphDatabase:
    rng = np.random.default_rng(7)
    triples = [
        (
            int(rng.integers(0, 20)),
            int(20 + rng.integers(0, 3)),
            int(rng.integers(0, 20)),
        )
        for _ in range(120)
    ]
    points = np.random.default_rng(11).normal(size=(20, 2))
    return GraphDatabase(
        GraphData(triples), build_knn_graph_bruteforce(points, K=5)
    )


@pytest.fixture
def faulty_server(start_method):
    """A debug-faults server over a fresh tiny database."""
    handle = ServerThread(
        _make_db(),
        ServeConfig(
            workers=2, capacity=4, default_timeout=30.0, debug_faults=True
        ),
    ).start()
    yield handle
    handle.shutdown()


class TestDeadlines:
    def test_timeout_is_typed_504_and_pool_survives(self, faulty_server):
        """Slow query blows its deadline -> 504 TimeoutExceeded; the
        very next query must succeed on the same (unpoisoned) pool."""
        status, headers, body = _post(
            faulty_server,
            "/query",
            {"query": QUERY, "debug": "sleep:2", "timeout": 0.2},
        )
        assert status == 504, body
        timed_out_id = int(headers["X-Request-Id"])
        assert body["status"] == "error"
        assert body["error"]["type"] == "TimeoutExceeded"
        assert body["error"]["elapsed"] >= 0.2

        status, headers, body = _post(faulty_server, "/query", {"query": QUERY})
        assert status == 200, body
        assert int(headers["X-Request-Id"]) > timed_out_id
        assert body["timed_out"] is False
        assert len(body["solutions"]) > 0

        _, _, metrics = _request(
            faulty_server.host, faulty_server.port, "GET",
            "/metrics?format=json",
        )
        assert metrics["queries"]["timeout"] >= 1
        assert metrics["queries"]["ok"] >= 1

    def test_already_expired_deadline_rejected_before_evaluation(
        self, faulty_server
    ):
        """A deadline that expires while queued never reaches an
        engine."""
        # Occupy the dispatch thread so the victim sits in the queue
        # past its tiny budget.
        blocker = threading.Thread(
            target=_post,
            args=(faulty_server, "/query",
                  {"query": QUERY, "debug": "sleep:0.8"}),
        )
        blocker.start()
        time.sleep(0.2)
        status, _, body = _post(
            faulty_server,
            "/query",
            {"query": QUERY, "timeout": 0.05},
        )
        blocker.join()
        assert status == 504, body
        assert body["error"]["type"] == "TimeoutExceeded"

    def test_timed_out_result_is_504_and_its_rows_are_not_encoded(
        self, monkeypatch
    ):
        """A flagged-timeout result carries partial rows; the 504 holds
        none of them, so no reply body is built for it."""
        server = ReproServer(_make_db(), ServeConfig(workers=1))
        monkeypatch.setattr(
            protocol, "query_response",
            lambda *args, **kwargs: pytest.fail("encoded a timed-out result"),
        )
        result = QueryResult(
            engine="ring-knn",
            solutions=[{Var("x"): 1}, {Var("x"): 2}],
            stats=EvaluationStats(solutions=2, elapsed=0.3, timed_out=True),
        )
        loop = asyncio.new_event_loop()
        spans = Spans(1)
        item = _Pending(
            kind="query", request=None, query=None, spans=spans,
            root=spans.open("request"), deadline_at=None,
            future=loop.create_future(),
        )
        server._loop = loop
        try:
            server._finish_result(item, result, "direct", None)
            response = loop.run_until_complete(item.future)
        finally:
            loop.close()
            server._dispatch_pool.shutdown()
        assert response.code == 504
        protocol.validate_error_response(response.body)
        assert response.body["error"]["type"] == "TimeoutExceeded"
        totals = server.metrics.as_dict()
        assert totals["queries"]["timeout"] == 1
        assert totals["engine_stats"]["solutions"] == 2
        assert totals["response_bytes_total"] == 0
        assert "encode" not in totals["spans"]
        assert totals["spans"]["request"]["direct"]["count"] == 1


def _retry_after(metrics):
    """Retry-After from a ``/metrics?format=json`` document: the mean
    ``request`` span over every route x queries in flight / workers,
    rounded up into [1, 60]; 1 before any request completed."""
    requests = metrics["spans"].get("request", {}).values()
    count = sum(histogram["count"] for histogram in requests)
    if not count:
        return 1
    mean = sum(histogram["sum"] for histogram in requests) / count
    gauges = metrics["gauges"]
    ahead = mean * gauges["inflight"] / gauges["pool_workers"]
    return max(1, min(60, math.ceil(ahead)))


class TestAdmission:
    def test_retry_after_is_mean_service_time_times_queue(self):
        admission = AdmissionController(capacity=2, parallelism=1)
        admission.admit()
        admission.admit(3.0)
        with pytest.raises(AdmissionRejected) as measured:
            admission.admit(3.0)
        assert measured.value.retry_after == 6  # 3 s x 2 ahead / 1
        with pytest.raises(AdmissionRejected) as unmeasured:
            admission.admit()
        assert unmeasured.value.retry_after == 1
        assert admission.shed_total == 2

    def test_shed_reads_the_request_histogram(self):
        """The server passes the ``request`` span mean to admission."""
        server = ReproServer(_make_db(), ServeConfig(workers=1, capacity=1))
        try:
            server.metrics.observe("direct", 200, {"request": 5.0})
            server.metrics.observe("batched", 200, {"request": 1.0})
            server.admission.admit()
            response = asyncio.run(server._handle(
                "query", json.dumps({"query": QUERY}).encode(), Spans(1)
            ))
        finally:
            server._dispatch_pool.shutdown()
        assert response.code == 429
        assert response.headers["Retry-After"] == "3"  # 3 s x 1 ahead / 1

    def test_full_window_sheds_429_with_retry_after(self, start_method):
        handle = ServerThread(
            _make_db(),
            ServeConfig(workers=2, capacity=1, debug_faults=True),
        ).start()
        try:
            # One measured request, so the hint comes from the histogram.
            assert _post(handle, "/query", {"query": QUERY})[0] == 200
            results: Queue = Queue()
            slow = threading.Thread(
                target=lambda: results.put(
                    _post(handle, "/query",
                          {"query": QUERY, "debug": "sleep:1.2"})
                ),
            )
            slow.start()
            time.sleep(0.3)  # let the slow query occupy the window

            _, _, scraped = _request(
                handle.host, handle.port, "GET", "/metrics?format=json"
            )
            status, headers, body = _post(
                handle, "/query", {"query": QUERY}
            )
            assert status == 429, body
            assert body["error"]["type"] == "AdmissionRejected"
            retry_after = int(headers["Retry-After"])
            assert retry_after == _retry_after(scraped)
            assert body["error"]["retry_after"] == retry_after

            slow.join()
            slow_status, _, slow_body = results.get(timeout=30)
            assert slow_status == 200, slow_body

            # Window released: the retried request is admitted.
            status, _, body = _post(handle, "/query", {"query": QUERY})
            assert status == 200, body

            _, _, metrics = _request(
                handle.host, handle.port, "GET", "/metrics?format=json"
            )
            assert metrics["queries"]["shed"] >= 1
            assert metrics["gauges"]["shed_total"] >= 1.0
        finally:
            handle.shutdown()


class TestWorkerFaults:
    def test_worker_crash_is_typed_500_then_recovery(self, faulty_server):
        """A real exception inside a pool worker costs one 500; the
        recycled pool serves the next request."""
        status, _, body = _post(
            faulty_server,
            "/query",
            {"query": QUERY, "debug": "worker-raise"},
        )
        assert status == 500, body
        assert body["status"] == "error"
        assert body["error"]["type"] == "RuntimeError"
        assert "injected worker fault" in body["error"]["message"]

        status, _, body = _post(faulty_server, "/query", {"query": QUERY})
        assert status == 200, body
        assert len(body["solutions"]) > 0

        _, _, metrics = _request(
            faulty_server.host, faulty_server.port, "GET",
            "/metrics?format=json",
        )
        assert metrics["queries"]["error"] >= 1

    def test_killed_worker_is_typed_500_then_recovery(
        self, figure2, start_method
    ):
        """Both pool workers SIGKILLed under a batched query cost that
        request a typed 500 within seconds; the next request is
        answered by a fresh pool. One worker held the query, the other
        waited for a task: it dies holding the task queue's read lock,
        which the pool's teardown must release before it terminates."""
        handle = ServerThread(
            figure2.db, ServeConfig(workers=2, drain_grace=5.0)
        ).start()
        try:
            status, _, body = _under_killed_workers(
                pool_for(figure2.db, 2),
                lambda: _post(handle, "/query",
                              {"query": LONG_QUERY, "timeout": 20}),
                victims=2,
            )
            assert status == 500, body
            protocol.validate_error_response(body)
            assert body["error"]["type"] == "WorkerLost"

            query = figure2.queries[0]
            status, _, body = _post(
                handle, "/query", {"query": _query_text(query)}
            )
            assert status == 200, body
            assert body["solutions"] == protocol.encode_solutions(
                figure2.auto[0].solutions
            )
        finally:
            handle.shutdown()

    def test_inline_fault_does_not_leak_traceback(self, faulty_server):
        status, _, body = _post(
            faulty_server, "/query", {"query": QUERY, "debug": "raise"}
        )
        assert status == 500, body
        assert body["error"]["type"] == "RuntimeError"
        assert "Traceback" not in json.dumps(body)


class TestEventLoop:
    def test_health_and_metrics_answer_while_dispatch_is_busy(self):
        """Evaluation runs on the dispatch thread, never on the event
        loop: while a slow query holds that thread, /healthz and
        /metrics still answer at once."""
        handle = ServerThread(
            _make_db(), ServeConfig(workers=1, debug_faults=True)
        ).start()
        replies: Queue = Queue()
        try:
            slow = threading.Thread(
                target=lambda: replies.put(
                    _post(handle, "/query",
                          {"query": QUERY, "debug": "sleep:1.5"})
                ),
            )
            slow.start()
            time.sleep(0.3)  # the slow query now holds the dispatch thread
            for path in ("/healthz", "/metrics"):
                started = time.monotonic()
                status, _, body = _request(
                    handle.host, handle.port, "GET", path, timeout=10
                )
                elapsed = time.monotonic() - started
                assert status == 200, body
                assert elapsed < 0.5, f"GET {path} took {elapsed:.2f} s"
                assert replies.empty(), f"GET {path} waited for the query"
                if path == "/healthz":
                    assert body["inflight"] == 1
            slow.join(timeout=30)
            assert not slow.is_alive()
            status, _, body = replies.get(timeout=30)
            assert status == 200, body
        finally:
            handle.shutdown()


class TestDrain:
    def test_draining_rejects_new_queries_but_finishes_inflight(self):
        shutdown_pools()
        handle = ServerThread(
            _make_db(),
            ServeConfig(workers=1, capacity=4, drain_grace=30.0,
                        debug_faults=True),
        ).start()
        results: Queue = Queue()
        try:
            # Hold one keep-alive connection open before the listener
            # closes: drain semantics apply to it.
            held = HTTPConnection(handle.host, handle.port, timeout=60)
            held.request("GET", "/healthz")
            held.getresponse().read()

            slow = threading.Thread(
                target=lambda: results.put(
                    _post(handle, "/query",
                          {"query": QUERY, "debug": "sleep:1.5"})
                ),
            )
            slow.start()
            time.sleep(0.3)
            assert handle.server is not None
            handle.server.request_shutdown()
            time.sleep(0.2)

            held.request(
                "POST", "/query",
                body=json.dumps({"query": QUERY}).encode("utf-8"),
            )
            response = held.getresponse()
            body = json.loads(response.read())
            assert response.status == 503, body
            assert body["error"]["type"] == "ServerDraining"
            held.close()

            slow.join()
            slow_status, _, slow_body = results.get(timeout=30)
            assert slow_status == 200, (
                "in-flight query must complete during drain", slow_body
            )
        finally:
            handle.shutdown()
            shutdown_pools()


def _read_until(lines: Queue, needle: str, timeout: float) -> str:
    deadline = time.monotonic() + timeout
    seen: list[str] = []
    while time.monotonic() < deadline:
        try:
            line = lines.get(timeout=0.2)
        except Empty:
            continue
        if line is None:
            break
        seen.append(line)
        if needle in line:
            return line
    raise AssertionError(
        f"never saw {needle!r} in server output; got: {seen}"
    )


class TestSigterm:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_sigterm_drains_then_exits_zero(self, method, tmp_path):
        """The real thing: ``repro serve --from-index`` in a subprocess
        boots, answers ``/healthz``, a query and ``/metrics``; then
        SIGTERM mid-query, in-flight answer delivered, exit code 0."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        index = tmp_path / "faults.idx"
        save(_make_db(), str(index))

        repo_root = Path(__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        env[ENV_START_METHOD] = method
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--from-index", str(index),
                "--port", "0", "--workers", "2", "--debug-faults",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines: Queue = Queue()

        def _pump():
            assert proc.stdout is not None
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        pump = threading.Thread(target=_pump, daemon=True)
        pump.start()
        try:
            banner = _read_until(lines, "serving on http://", timeout=120)
            port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])

            # Booted: healthy, answering, and counting what it answers.
            status, _, health = _request("127.0.0.1", port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok", health
            status, _, raw = _request(
                "127.0.0.1", port, "POST", "/query", {"query": QUERY},
                raw_body=True,
            )
            assert status == 200, raw
            # The reply's bytes are hand-formatted: they must be the
            # canonical JSON of what they decode to.
            assert raw == (
                json.dumps(json.loads(raw), sort_keys=True) + "\n"
            ).encode()
            assert json.loads(raw)["solutions"]
            status, _, text = _request("127.0.0.1", port, "GET", "/metrics")
            assert status == 200 and "repro_queries_total" in text, text

            results: Queue = Queue()
            slow = threading.Thread(
                target=lambda: results.put(
                    _request(
                        "127.0.0.1", port, "POST", "/query",
                        {"query": QUERY, "debug": "sleep:1.5"},
                    )
                ),
            )
            slow.start()
            time.sleep(0.4)
            proc.send_signal(signal.SIGTERM)

            slow.join(timeout=60)
            assert not slow.is_alive(), "in-flight query never returned"
            status, _, body = results.get(timeout=10)
            assert status == 200, (
                "SIGTERM must drain the in-flight query", body
            )
            assert body["status"] == "ok"

            assert proc.wait(timeout=60) == 0
            _read_until(lines, "drained, exiting", timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
