"""Long-running query server: ``repro serve``.

One warm worker pool, many concurrent HTTP clients:

* :mod:`repro.serve.app` — the asyncio server (admission → deadline →
  single-threaded dispatch through the batched
  :class:`~repro.parallel.scheduler.QueryScheduler` → typed responses),
  plus the CLI entry point :func:`run_server` and the in-process
  :class:`ServerThread` the tests drive.
* :mod:`repro.serve.protocol` — the JSON wire protocol and its schemas
  (same dialect and validator as the trace schema).
* :mod:`repro.serve.admission` — the bounded admission window (429 +
  ``Retry-After`` shedding, drain support).
* :mod:`repro.serve.metrics` — process-lifetime counters built on the
  ``repro.obs`` :class:`~repro.obs.trace.OpCounters` and span
  histograms (:mod:`repro.obs.spans`), exported at ``/metrics`` as one
  JSON document or its Prometheus text.

``tests/test_serve.py`` drives the surface in process;
``tests/test_serve_faults.py`` boots a real ``repro serve
--from-index`` under fork and spawn, queries it and drains it with
SIGTERM.

See ``docs/serving.md`` for endpoint and semantics documentation.
"""

from repro.serve.app import ReproServer, ServeConfig, ServerThread, run_server

__all__ = ["ReproServer", "ServeConfig", "ServerThread", "run_server"]
