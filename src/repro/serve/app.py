"""The long-running query server behind ``repro serve``.

Architecture — one asyncio event loop, one dispatch thread, one worker
pool:

* The **event loop** (stdlib ``asyncio`` streams, no third-party HTTP
  stack) accepts connections, parses requests, and makes the
  control-plane decisions: admission (:mod:`repro.serve.admission`),
  deadline assignment, shedding, drain. It never evaluates a query.
* Admitted queries go onto an in-loop queue that a single **dispatcher**
  consumes. Each wakeup it drains whatever is queued, micro-batches the
  compatible requests (``auto`` engine, no trace) and hands each batch
  to :meth:`repro.parallel.scheduler.QueryScheduler.run_batch` — the
  LPT-grouped, feedback-costed batched executor — on a one-thread
  executor. Traced, engine-pinned, or ``/explain`` requests run on the
  same thread individually. The scheduler and the shared
  :class:`~repro.parallel.executor.WorkerPool` are not thread-safe;
  funnelling every evaluation through this one thread is what makes the
  warm pool shareable across concurrent HTTP clients. The same thread
  builds a ``/query`` reply's body bytes
  (:func:`repro.serve.protocol.query_response`); the loop only writes
  them, so a large reply does not stall ``/healthz`` or another
  connection while it is encoded.
* **Deadlines are end-to-end**: a request's budget starts at admission,
  so time spent queued counts against it. At dispatch the remaining
  budget becomes the engine ``timeout``, which the existing timeout
  machinery honours cooperatively — the engine returns a
  ``timed_out``-flagged result instead of raising, the server maps it
  to a typed 504, and the pool is never poisoned by a cancelled query.
* **Drain** (SIGTERM/SIGINT or :meth:`ReproServer.request_shutdown`):
  stop accepting, reject new queries with a typed 503, let in-flight
  queries finish (bounded by ``drain_grace``), then tear down the
  dispatcher, the pool, and — when the database was ``--from-index``
  loaded — the mmap store, and exit 0.

Fault injection (``debug_faults=True`` only) drives the test battery:
``{"debug": "raise"}`` raises in the dispatch thread, ``"worker-raise"``
raises inside a real pool worker
(:meth:`~repro.parallel.executor.WorkerPool.run_fault_probe`), and
``"sleep:<seconds>"`` stalls dispatch to force deadline/drain overlap.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.cache import CacheConfig, DEFAULT_MAX_BYTES, QueryCache
from repro.engines import INDEX_ENGINES, AutoEngine
from repro.engines.database import GraphDatabase
from repro.explain import explain as explain_plan
from repro.obs import QueryTrace, validate_trace
from repro.obs.spans import Span, Spans, now
from repro.parallel.executor import close_pools_for, pool_for
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import ExtendedBGP
from repro.query.parser import parse_query
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.metrics import ENDPOINTS, ServerMetrics, render_text
from repro.utils.errors import (
    AdmissionRejected,
    ReproError,
    ServerDraining,
    TimeoutExceeded,
    ValidationError,
)

#: Longest ``sleep:<s>`` fault a debug request may inject.
MAX_DEBUG_SLEEP = 30.0

#: Hard ceiling (seconds) on any requested deadline.
MAX_TIMEOUT = 600.0

#: Most queries per scheduler round trip (one dispatcher wakeup may
#: issue several).
MICROBATCH = 8

#: Largest request body accepted, in bytes (beyond it: a typed 400).
MAX_BODY = 1 << 20

#: Request ids of this process: each ``/query`` and ``/explain`` takes
#: the next one, and its reply carries it as ``X-Request-Id``.
_REQUEST_IDS = itertools.count(1)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server process: each is a ``repro serve`` flag."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 = ephemeral: the kernel picks, :attr:`ReproServer.port` tells."""

    workers: int = 2
    """Worker-pool size; 1 disables the pool (serial evaluation)."""

    capacity: int = 16
    """Admission window: queued-plus-evaluating queries beyond this shed
    with 429."""

    default_timeout: float | None = 60.0
    """Per-query deadline when the request does not set one."""

    drain_grace: float = 30.0
    """Seconds a drain waits for in-flight queries before giving up."""

    debug_faults: bool = False
    """Allow the ``debug`` request field (fault-injection battery)."""

    cache: bool = True
    """Share a cross-query result cache (:mod:`repro.cache`) between
    the scheduler's batched route and the direct route; ``repro serve
    --no-cache`` disables it."""

    cache_bytes: int = DEFAULT_MAX_BYTES
    """Byte budget of the shared cache's packed solution matrices."""


@dataclass(frozen=True)
class _HttpResponse:
    code: int
    body: Any
    """dict → JSON; str → preformatted text; bytes → a finished body."""

    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


@dataclass
class _Pending:
    """One admitted request travelling loop → dispatcher → loop."""

    kind: str
    """``"query"`` or ``"explain"``."""

    request: Any
    query: ExtendedBGP
    spans: Spans
    root: Span  # the open `request` span; it starts at admission
    deadline_at: float | None
    future: "asyncio.Future[_HttpResponse]"


#: Queue sentinel ending the dispatcher loop.
_STOP = object()

#: Body parser of each dispatched endpoint, by :attr:`_Pending.kind`.
_REQUEST_PARSERS = {
    "query": protocol.parse_query_request,
    "explain": protocol.parse_explain_request,
}


def _remaining(item: _Pending, now: float) -> float | None:
    """The engine ``timeout`` for ``item`` dispatched at ``now``: what is
    left of its end-to-end budget (time queued counts against it).
    ``None`` is no deadline; ``0.0`` is expired — answer 504, do not
    dispatch; a live budget is never handed on as less than 1 ms."""
    if item.deadline_at is None:
        return None
    left = item.deadline_at - now
    return max(1e-3, left) if left > 0 else 0.0


class ReproServer:
    """One server instance bound to one database."""

    def __init__(self, db: GraphDatabase, config: ServeConfig) -> None:
        self._db = db
        self.config = config
        self.metrics = ServerMetrics()
        self.admission = AdmissionController(
            config.capacity, parallelism=max(1, config.workers)
        )
        # One cache for every route: the scheduler (whose `auto` engine
        # the direct route also evaluates with) and /explain --analyze
        # probe and fill the same table. QueryCache is internally
        # locked, so the /metrics scrape from the event loop is safe
        # against fills on the dispatch thread.
        self.cache: QueryCache | None = (
            QueryCache(CacheConfig(max_bytes=config.cache_bytes))
            if config.cache
            else None
        )
        self._scheduler = QueryScheduler(
            db,
            workers=config.workers,
            cache=self.cache,
        )
        self._dispatch_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        # Frozen after start(): bound before any work reaches the
        # dispatch thread and never rebound. Off the loop it is read
        # only to call call_soon_threadsafe (_resolve, request_shutdown),
        # asyncio's thread-safe entry point, so it needs no lock.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher_task: asyncio.Task | None = None
        self._shutdown_task: asyncio.Task | None = None
        self._closed_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.host = config.host
        self.port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the pool, start the dispatcher, bind the socket."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._closed_event = asyncio.Event()
        if self.config.workers >= 2:
            # Ready means *warm*: flatten/attach happens before the
            # first client can connect, not under it.
            await self._loop.run_in_executor(
                self._dispatch_pool, self._scheduler.warmup
            )
        self._dispatcher_task = self._loop.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe from signal handlers and other
        threads, idempotent."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._begin_shutdown)

    def _begin_shutdown(self) -> None:
        if self._shutdown_task is None and self._loop is not None:
            self._shutdown_task = self._loop.create_task(self.shutdown())

    async def shutdown(self) -> None:
        """Drain then tear down: the SIGTERM path."""
        assert self._queue is not None and self._closed_event is not None
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_grace
        while self.admission.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        # Let just-resolved responses flush before connections close.
        await asyncio.sleep(0.05)
        await self._queue.put(_STOP)
        clean = True
        if self._dispatcher_task is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._dispatcher_task),
                    timeout=self.config.drain_grace,
                )
            except (asyncio.TimeoutError, Exception):
                clean = False
                self._dispatcher_task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if clean:
            # The dispatcher has exited and the queue is empty, so the
            # one dispatch thread is idle: this join does not block.
            self._dispatch_pool.shutdown(wait=True)
        else:  # pragma: no cover - a query outlived the drain grace
            self._dispatch_pool.shutdown(wait=False, cancel_futures=True)
        self._scheduler.close()
        self._closed_event.set()

    async def wait_closed(self) -> None:
        """Block until a drain has fully completed."""
        assert self._closed_event is not None
        await self._closed_event.wait()

    # ------------------------------------------------------------------
    # dispatcher (the only code that touches the scheduler / pool)
    # ------------------------------------------------------------------
    @staticmethod
    def _batchable(item: _Pending) -> bool:
        return (
            item.kind == "query"
            and item.request.engine == AutoEngine.name
            and not item.request.trace
            and item.request.debug is None
        )

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None and self._queue is not None
        while True:
            first = await self._queue.get()
            entries = [first]
            while True:
                try:
                    entries.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            stop = any(entry is _STOP for entry in entries)
            work = [entry for entry in entries if entry is not _STOP]
            groups: dict[Any, list[_Pending]] = {}
            direct: list[_Pending] = []
            for entry in work:
                if self._batchable(entry):
                    # Micro-batches share one `limit`: run_batch applies
                    # a single limit to the whole batch.
                    groups.setdefault(entry.request.limit, []).append(entry)
                else:
                    direct.append(entry)
            for group in groups.values():
                for start in range(0, len(group), MICROBATCH):
                    await self._loop.run_in_executor(
                        self._dispatch_pool,
                        self._run_batched,
                        group[start:start + MICROBATCH],
                    )
            for entry in direct:
                await self._loop.run_in_executor(
                    self._dispatch_pool, self._run_direct, entry
                )
            if stop:
                return

    def _resolve(
        self,
        item: _Pending,
        route: str,
        response: _HttpResponse,
        stats: Mapping[str, int] | None = None,
        cached: bool = False,
    ) -> None:
        """End the request's spans, observe it — every dispatched outcome
        ends here, once — and hand its response back (thread-safe)."""
        assert self._loop is not None
        item.root.end = now()
        seconds = {"request": item.root.seconds,
                   **item.spans.totals(item.root.id)}
        body = response.body
        self.metrics.observe(route, response.code, seconds, stats, cached,
                             len(body) if isinstance(body, bytes) else 0)

        def _set() -> None:
            if not item.future.done():
                item.future.set_result(response)

        self._loop.call_soon_threadsafe(_set)

    def _recycle_pools(self) -> None:
        """Drop the cached worker pools after an unexpected failure.

        Pools are created lazily, so the next request transparently gets
        a fresh one — a crashed worker costs one 500, not the server.
        """
        close_pools_for(self._db)

    @staticmethod
    def _dispatched(item: _Pending) -> float:
        """Close the request's ``queue`` span; the dispatch time."""
        at = now()
        item.spans.add("queue", item.root.start, at, parent=item.root.id)
        return at

    @staticmethod
    def _deadline_response(item: _Pending, at: float) -> _HttpResponse:
        elapsed = max(0.0, at - item.root.start)
        return _HttpResponse(
            504,
            protocol.error_response(
                "TimeoutExceeded",
                f"query deadline expired after {elapsed:.3f}s "
                "(before evaluation finished starting)",
                elapsed=elapsed,
            ),
        )

    @staticmethod
    def _failure_response(exc: BaseException) -> _HttpResponse:
        return _HttpResponse(
            500,
            protocol.error_response(
                type(exc).__name__, f"internal error: {exc}"
            ),
        )

    def _finish_result(
        self,
        item: _Pending,
        result: Any,
        route: str,
        trace_document: Mapping[str, Any] | None,
    ) -> None:
        """Map a QueryResult to HTTP: flagged timeout → typed 504 (its
        partial rows are never encoded); otherwise the reply's bytes,
        built here on the dispatch thread so the loop only writes."""
        stats = protocol.query_stats(result.stats)
        cached = bool(getattr(result, "cached", False))
        if result.timed_out:
            reason = TimeoutExceeded(result.elapsed, len(result.solutions))
            response = _HttpResponse(
                504,
                protocol.error_response(
                    "TimeoutExceeded",
                    str(reason),
                    elapsed=max(0.0, float(result.elapsed)),
                ),
            )
        else:
            with item.spans.span("encode", parent=item.root.id):
                body = protocol.query_response(
                    result, route, trace=trace_document
                )
            response = _HttpResponse(200, body)
        self._resolve(item, route, response, stats=stats, cached=cached)

    def _run_batched(self, chunk: list[_Pending]) -> None:
        """Evaluate one micro-batch through the scheduler (dispatch
        thread)."""
        live: list[_Pending] = []
        budgets: list[float | None] = []
        for item in chunk:
            dispatched = self._dispatched(item)
            remaining = _remaining(item, dispatched)
            if remaining == 0.0:
                self._resolve(
                    item, "batched", self._deadline_response(item, dispatched)
                )
            else:
                live.append(item)
                budgets.append(remaining)
        if not live:
            return
        started = now()
        try:
            results: list[Any] = self._scheduler.run_batch(
                [item.query for item in live],
                limit=live[0].request.limit,
                timeouts=budgets,
            )
        except Exception as exc:
            self._recycle_pools()
            results = [self._failure_response(exc) for _ in live]
        ended = now()
        for item, result in zip(live, results):
            # The batch's bounds: a request shows the batch it waited for.
            item.spans.add("evaluate", started, ended, parent=item.root.id)
            if isinstance(result, _HttpResponse):
                self._resolve(item, "batched", result)
            else:
                self._finish_result(item, result, "batched", None)

    def _run_direct(self, item: _Pending) -> None:
        """Evaluate one traced / pinned / debug / explain request
        (dispatch thread)."""
        route = "explain" if item.kind == "explain" else "direct"
        request = item.request
        try:
            at = self._dispatched(item)
            remaining = _remaining(item, at)
            debug = getattr(request, "debug", None)  # /query only
            if remaining != 0.0 and debug is not None:
                self._apply_debug(debug)
                at = now()
                remaining = _remaining(item, at)
            if remaining == 0.0:
                self._resolve(item, route, self._deadline_response(item, at))
                return
            evaluate = item.spans.span("evaluate", parent=item.root.id)
            if item.kind == "explain":
                with evaluate:
                    report = explain_plan(
                        self._db,
                        item.query,
                        engine=request.engine,
                        analyze=request.analyze,
                        timeout=remaining,
                        cache=self.cache,
                    )
                body = protocol.explain_response(
                    report.engine,
                    report.format(),
                    trace=self._trace_document(report.analysis),
                )
                self._resolve(item, route, _HttpResponse(200, body))
                return
            # `auto` is the scheduler's own engine — the one that holds
            # the cache; a pinned strategy evaluates cold, uncached.
            engine = (
                self._scheduler.auto
                if request.engine == AutoEngine.name
                else INDEX_ENGINES[request.engine](self._db)
            )
            with evaluate:
                # Opened inside `evaluate`, the trace's spans nest in it.
                query_trace = (
                    QueryTrace(query=request.query, spans=item.spans)
                    if request.trace else None
                )
                result = engine.evaluate(
                    item.query,
                    timeout=remaining,
                    limit=request.limit,
                    trace=query_trace,
                )
            self._finish_result(
                item, result, route, self._trace_document(query_trace)
            )
        except Exception as exc:
            self._recycle_pools()
            self._resolve(item, route, self._failure_response(exc))

    def _trace_document(
        self, trace: QueryTrace | None
    ) -> dict[str, Any] | None:
        """Export, schema-check and count a finished trace."""
        if trace is None:
            return None
        document = trace.to_dict()
        validate_trace(document)
        self.metrics.observe_trace_document(document)
        return document

    def _apply_debug(self, directive: str) -> None:
        """Execute a fault-injection directive (``debug_faults`` only)."""
        if directive == "raise":
            raise RuntimeError("injected inline fault (debug=raise)")
        if directive == "worker-raise":
            if self.config.workers >= 2:
                pool_for(self._db, self.config.workers).run_fault_probe()
                raise AssertionError(  # pragma: no cover - probe raises
                    "fault probe returned without raising"
                )
            raise RuntimeError(
                "injected worker fault (serial mode, no pool to probe)"
            )
        if directive.startswith("sleep:"):
            try:
                seconds = float(directive.partition(":")[2])
            except ValueError as exc:
                raise ValidationError(
                    f"malformed debug directive {directive!r}"
                ) from exc
            time.sleep(max(0.0, min(seconds, MAX_DEBUG_SLEEP)))
            return
        raise ValidationError(
            f"unknown debug directive {directive!r} "
            "(known: raise, worker-raise, sleep:<seconds>)"
        )

    # ------------------------------------------------------------------
    # endpoints (event loop)
    # ------------------------------------------------------------------
    def _gauges(self) -> dict[str, float]:
        assert self._queue is not None
        gauges = {
            "inflight": float(self.admission.inflight),
            "admission_capacity": float(self.admission.capacity),
            "admitted_total": float(self.admission.admitted_total),
            "shed_total": float(self.admission.shed_total),
            "rejected_draining_total": float(
                self.admission.rejected_draining_total
            ),
            "draining": 1.0 if self.admission.draining else 0.0,
            "queue_depth": float(self._queue.qsize()),
            "pool_workers": float(self.config.workers),
        }
        ewma = self.admission.service_seconds()
        if ewma is not None:
            gauges["service_seconds_ewma"] = float(ewma)
        return gauges

    def _health_doc(self) -> dict[str, Any]:
        backing = self._db.store
        return {
            "status": "draining" if self.admission.draining else "ok",
            "inflight": self.admission.inflight,
            "capacity": self.admission.capacity,
            "workers": self.config.workers,
            "engines": sorted(INDEX_ENGINES),
            "store": None if backing is None else backing.describe(),
            "cache": self.cache is not None,
        }

    async def _handle(
        self, kind: str, body: bytes, spans: Spans
    ) -> _HttpResponse:
        """``/query`` and ``/explain``: parse, admit, set the deadline,
        enqueue for the dispatcher, await its response."""
        root = spans.open("request")
        t0 = root.start
        try:
            request = _REQUEST_PARSERS[kind](body)
            if (
                getattr(request, "debug", None) is not None
                and not self.config.debug_faults
            ):
                raise ValidationError(
                    "debug directives require --debug-faults"
                )
            query = parse_query(request.query)
        except ReproError as exc:
            return _HttpResponse(
                400, protocol.error_response(type(exc).__name__, str(exc))
            )
        try:
            self.admission.admit()
        except AdmissionRejected as exc:
            self.metrics.observe_shed()
            return _HttpResponse(
                429,
                protocol.error_response(
                    "AdmissionRejected", str(exc), retry_after=exc.retry_after
                ),
                headers={"Retry-After": str(exc.retry_after)},
            )
        except ServerDraining as exc:
            return _HttpResponse(
                503, protocol.error_response("ServerDraining", str(exc))
            )
        budget = (
            request.timeout
            if request.timeout is not None
            else self.config.default_timeout
        )
        if budget is not None:
            budget = min(float(budget), MAX_TIMEOUT)
        assert self._loop is not None and self._queue is not None
        item = _Pending(
            kind=kind,
            request=request,
            query=query,
            spans=spans,
            root=root,
            deadline_at=None if budget is None else t0 + budget,
            future=self._loop.create_future(),
        )
        try:
            await self._queue.put(item)
            return await item.future
        finally:
            self.admission.release(now() - t0)

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> _HttpResponse:
        path, _, query_string = target.partition("?")
        if path[1:] in _REQUEST_PARSERS:
            if method != "POST":
                return _method_not_allowed("POST")
            spans = Spans(next(_REQUEST_IDS))
            response = await self._handle(path[1:], body, spans)
            response.headers["X-Request-Id"] = str(spans.request)
            return response
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            return _HttpResponse(200, self._health_doc())
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed("GET")
            document = self.metrics.as_dict(
                self._gauges(),
                cache=None if self.cache is None else self.cache.stats(),
            )
            if "format=json" in query_string:
                return _HttpResponse(200, document)
            return _HttpResponse(
                200,
                render_text(document),
                content_type="text/plain; version=0.0.4",
            )
        return _HttpResponse(
            404,
            protocol.error_response(
                "NotFound",
                f"no endpoint {path!r} (have: {', '.join(ENDPOINTS)})",
            ),
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ValidationError as exc:
                    await _write_response(
                        writer,
                        _HttpResponse(
                            400,
                            protocol.error_response(
                                "ValidationError", str(exc)
                            ),
                        ),
                        close=True,
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    ValueError,
                ):
                    break
                if request is None:
                    break
                method, target, headers, body = request
                response = await self._route(method, target, body)
                self.metrics.observe_request(target.partition("?")[0],
                                             response.code)
                close = (
                    headers.get("connection", "").lower() == "close"
                    or self.admission.draining
                )
                try:
                    await _write_response(writer, response, close=close)
                except ConnectionError:
                    break
                if close:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass


def _method_not_allowed(allowed: str) -> _HttpResponse:
    return _HttpResponse(
        405,
        protocol.error_response(
            "MethodNotAllowed", f"method not allowed (use {allowed})"
        ),
        headers={"Allow": allowed},
    )


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; None at clean EOF.

    Raises :class:`ValidationError` on malformed framing (mapped to a
    400 and connection close by the caller).
    """
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValidationError(f"malformed request line {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ValidationError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as exc:
        raise ValidationError("malformed Content-Length") from exc
    if length < 0 or length > MAX_BODY:
        raise ValidationError(
            f"request body of {length} bytes exceeds the {MAX_BODY} limit"
        )
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _write_response(
    writer: asyncio.StreamWriter, response: _HttpResponse, close: bool
) -> None:
    if isinstance(response.body, bytes):
        payload = response.body
    elif isinstance(response.body, str):
        payload = response.body.encode("utf-8")
    else:
        payload = (
            json.dumps(response.body, sort_keys=True) + "\n"
        ).encode("utf-8")
    reason = _REASONS.get(response.code, "Unknown")
    head = [
        f"HTTP/1.1 {response.code} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in response.headers.items():
        head.append(f"{name}: {value}")
    # Two writes, not `head + payload`: that is a second copy of a body
    # that can be a megabyte (and 3.11's `writelines` joins too).
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(payload)
    await writer.drain()


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_server(
    db: GraphDatabase,
    config: ServeConfig,
    announce: Callable[[str], None] | None = None,
) -> int:
    """Blocking entry point of ``repro serve``.

    Installs SIGTERM/SIGINT handlers (main thread only) that trigger a
    graceful drain, prints the bound address (``serving on http://...``,
    which scripts parse to learn an ephemeral port), and returns 0 once
    the drain completes.
    """

    def _announce(message: str) -> None:
        if announce is not None:
            announce(message)
        else:
            print(message, flush=True)

    async def _amain() -> None:
        server = ReproServer(db, config)
        await server.start()
        loop = asyncio.get_running_loop()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum, server.request_shutdown
                    )
                except (NotImplementedError, RuntimeError):
                    break  # pragma: no cover - non-unix event loop
        _announce(
            f"serving on http://{server.host}:{server.port} "
            f"(workers={config.workers}, capacity={config.capacity}, "
            f"pid={os.getpid()})"
        )
        await server.wait_closed()
        _announce("drained, exiting")

    asyncio.run(_amain())
    return 0


class ServerThread:
    """A :class:`ReproServer` on a background thread (tests, embedding).

    ``start()`` blocks until the socket is bound (and the pool warm) and
    returns ``self``; ``shutdown()`` runs the same graceful drain the
    SIGTERM path uses and joins the thread.
    """

    def __init__(self, db: GraphDatabase, config: ServeConfig) -> None:
        self._db = db
        self._config = config
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self.server: ReproServer | None = None
        self.host = config.host
        self.port: int | None = None

    def start(self, timeout: float = 180.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not become ready in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            server = ReproServer(self._db, self._config)
            await server.start()
        except BaseException as exc:  # startup failed: surface in start()
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self.port = server.port
        self._ready.set()
        await server.wait_closed()

    def shutdown(self, timeout: float = 120.0) -> None:
        server = self.server
        if server is not None:
            server.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - wedged drain
            raise RuntimeError("server thread did not drain in time")
