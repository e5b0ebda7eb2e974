"""Server metrics built directly on the ``repro.obs`` counters.

:class:`ServerMetrics` is the cumulative, process-lifetime counterpart
of a per-query :class:`~repro.obs.trace.QueryTrace`: request/outcome
counters for the HTTP surface, evaluation-stat totals, and — for every
traced query — the per-structure wavelet-tree operation counts merged
into the *same* :class:`~repro.obs.trace.OpCounters` dataclass the
trace recorder uses. ``/metrics`` renders them in the Prometheus text
exposition format (the shape of openGauss-DBMind's exporters), and
``as_dict`` returns the identical numbers as JSON for programmatic
scrapes.

Thread safety: query outcomes are observed from the dispatcher's
executor thread while scrapes run on the event loop, so every mutation
and snapshot holds one lock. Metrics never touch a live trace object —
only finished trace *documents* — so the zero-overhead-when-disabled
contract of the recorder is untouched.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from repro.obs.trace import OpCounters

#: The server's endpoints. Requests are counted under these labels and
#: every other path under ``other``: the path is the client's text, and
#: a label per distinct path would let a client grow the table forever.
ENDPOINTS = ("/query", "/explain", "/metrics", "/healthz")

#: OpCounters fields accumulated from trace documents ("total" is
#: derived, never stored).
_OP_FIELDS = ("rank", "select", "access", "range_next", "range_count",
              "quantile")

#: Evaluation-stat totals accumulated from query results.
_STAT_FIELDS = ("solutions", "bindings", "attempts", "leap_calls")

#: Lifetime-event fields of a :meth:`repro.cache.QueryCache.stats`
#: snapshot (rendered as Prometheus counters).
_CACHE_EVENT_FIELDS = (
    "hits", "misses", "fills", "evictions", "invalidations",
    "inadmissible",
)

#: Occupancy fields of the same snapshot (rendered as gauges).
_CACHE_GAUGE_FIELDS = ("entries", "bytes", "max_bytes")


def _escape_label(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


class ServerMetrics:
    """Cumulative counters of one server process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        #: (endpoint, status code) -> count.
        self._requests: dict[tuple[str, int], int] = {}
        #: route ("batched" | "direct" | ...) -> completed queries.
        self._queries_by_route: dict[str, int] = {}
        self._queries_ok = 0
        self._queries_timeout = 0
        self._queries_error = 0
        self._queries_shed = 0
        self._queries_cached = 0
        self._stat_totals: dict[str, int] = {f: 0 for f in _STAT_FIELDS}
        self._query_seconds_total = 0.0
        self._query_seconds_max = 0.0
        #: 200 ``/query`` bodies: their bytes, the seconds building them.
        self._response_bytes_total = 0
        self._encode_seconds_total = 0.0
        self._traced_queries = 0
        #: structure label -> merged OpCounters (the repro.obs dataclass).
        self._wavelets: dict[str, OpCounters] = {}

    # ------------------------------------------------------------------
    # observation (called by the app / dispatcher)
    # ------------------------------------------------------------------
    def observe_request(self, path: str, code: int) -> None:
        key = (path if path in ENDPOINTS else "other", int(code))
        with self._lock:
            self._requests[key] = self._requests.get(key, 0) + 1

    def observe_shed(self) -> None:
        with self._lock:
            self._queries_shed += 1

    def observe_error(self) -> None:
        with self._lock:
            self._queries_error += 1

    def observe_query(
        self,
        route: str,
        elapsed: float,
        stats: Mapping[str, int],
        timed_out: bool,
        cached: bool = False,
        response_bytes: int = 0,
        encode_seconds: float = 0.0,
    ) -> None:
        """Fold one completed evaluation into the totals, with the size
        of its reply body and the time spent encoding it (a timed-out
        evaluation has neither: its rows are not encoded)."""
        elapsed = max(0.0, float(elapsed))
        with self._lock:
            self._queries_by_route[route] = (
                self._queries_by_route.get(route, 0) + 1
            )
            if timed_out:
                self._queries_timeout += 1
            else:
                self._queries_ok += 1
            if cached:
                self._queries_cached += 1
            for field in _STAT_FIELDS:
                self._stat_totals[field] += int(stats.get(field, 0))
            self._query_seconds_total += elapsed
            if elapsed > self._query_seconds_max:
                self._query_seconds_max = elapsed
            self._response_bytes_total += response_bytes
            self._encode_seconds_total += encode_seconds

    def observe_trace_document(self, document: Mapping[str, Any]) -> None:
        """Merge a finished trace document's wavelet op counts.

        Accepts the JSON form (:meth:`QueryTrace.to_dict`) so it works
        identically for serial traces and the merged documents the
        parallel executor produces.
        """
        wavelets = document.get("wavelets") or {}
        with self._lock:
            self._traced_queries += 1
            for label, op_counts in wavelets.items():
                counters = self._wavelets.get(label)
                if counters is None:
                    counters = self._wavelets[label] = OpCounters()
                for field in _OP_FIELDS:
                    setattr(
                        counters,
                        field,
                        getattr(counters, field) + int(op_counts.get(field, 0)),
                    )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def as_dict(
        self,
        gauges: Mapping[str, float] | None = None,
        cache: Mapping[str, int] | None = None,
    ) -> dict:
        """JSON snapshot (the same numbers the text exposition renders).

        ``cache`` is a :meth:`repro.cache.QueryCache.stats` snapshot;
        None means the server runs without a cache and the section is
        omitted entirely.
        """
        with self._lock:
            document: dict[str, Any] = {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": {
                    f"{endpoint} {code}": count
                    for (endpoint, code), count in sorted(
                        self._requests.items()
                    )
                },
                "queries": {
                    "ok": self._queries_ok,
                    "timeout": self._queries_timeout,
                    "error": self._queries_error,
                    "shed": self._queries_shed,
                    "cached": self._queries_cached,
                    "by_route": dict(sorted(self._queries_by_route.items())),
                    "traced": self._traced_queries,
                },
                "engine_stats": dict(self._stat_totals),
                "query_seconds": {
                    "total": self._query_seconds_total,
                    "max": self._query_seconds_max,
                },
                "response_bytes_total": self._response_bytes_total,
                "encode_seconds_total": self._encode_seconds_total,
                "wavelet_ops": {
                    label: counters.as_dict()
                    for label, counters in sorted(self._wavelets.items())
                },
            }
        if gauges:
            document["gauges"] = {k: gauges[k] for k in sorted(gauges)}
        if cache is not None:
            document["cache"] = {k: int(cache[k]) for k in sorted(cache)}
        return document

    def render_text(
        self,
        gauges: Mapping[str, float] | None = None,
        cache: Mapping[str, int] | None = None,
    ) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        lines: list[str] = []

        def metric(name: str, help_text: str, kind: str,
                   samples: list[tuple[str, float]]) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                rendered = (
                    value if value % 1 else int(value)
                )
                lines.append(f"{name}{labels} {rendered}")

        with self._lock:
            metric(
                "repro_requests_total",
                "HTTP requests served, by endpoint and status code.",
                "counter",
                [
                    (
                        f'{{endpoint="{_escape_label(endpoint)}",'
                        f'code="{code}"}}',
                        float(count),
                    )
                    for (endpoint, code), count in sorted(
                        self._requests.items()
                    )
                ],
            )
            metric(
                "repro_queries_total",
                "Completed query evaluations by outcome.",
                "counter",
                [
                    ('{outcome="ok"}', float(self._queries_ok)),
                    ('{outcome="timeout"}', float(self._queries_timeout)),
                    ('{outcome="error"}', float(self._queries_error)),
                    ('{outcome="shed"}', float(self._queries_shed)),
                ],
            )
            metric(
                "repro_queries_cached_total",
                "Completed query evaluations answered from the "
                "cross-query cache.",
                "counter",
                [("", float(self._queries_cached))],
            )
            metric(
                "repro_queries_by_route_total",
                "Completed query evaluations by scheduler route.",
                "counter",
                [
                    (f'{{route="{_escape_label(route)}"}}', float(count))
                    for route, count in sorted(
                        self._queries_by_route.items()
                    )
                ],
            )
            metric(
                "repro_engine_stat_total",
                "Evaluation-stat totals (repro.ltj.stats fields).",
                "counter",
                [
                    (f'{{stat="{field}"}}', float(self._stat_totals[field]))
                    for field in _STAT_FIELDS
                ],
            )
            metric(
                "repro_query_seconds_total",
                "Total evaluation wall seconds.",
                "counter",
                [("", self._query_seconds_total)],
            )
            metric(
                "repro_query_seconds_max",
                "Largest single evaluation wall time.",
                "gauge",
                [("", self._query_seconds_max)],
            )
            metric(
                "repro_response_bytes_total",
                "Bytes of the 200 /query reply bodies built.",
                "counter",
                [("", float(self._response_bytes_total))],
            )
            metric(
                "repro_encode_seconds_total",
                "Wall seconds spent encoding those bodies (dispatch "
                "thread).",
                "counter",
                [("", self._encode_seconds_total)],
            )
            metric(
                "repro_traced_queries_total",
                "Queries evaluated under a repro.obs trace.",
                "counter",
                [("", float(self._traced_queries))],
            )
            wavelet_samples: list[tuple[str, float]] = []
            for label, counters in sorted(self._wavelets.items()):
                for field in _OP_FIELDS:
                    wavelet_samples.append(
                        (
                            f'{{structure="{_escape_label(label)}",'
                            f'op="{field}"}}',
                            float(getattr(counters, field)),
                        )
                    )
            metric(
                "repro_wavelet_ops_total",
                "Succinct-structure operation counts merged from traced "
                "queries (repro.obs OpCounters).",
                "counter",
                wavelet_samples,
            )
            uptime = time.monotonic() - self._started
        metric(
            "repro_uptime_seconds",
            "Seconds since the server process started.",
            "gauge",
            [("", uptime)],
        )
        for name in sorted(gauges or {}):
            metric(
                f"repro_{name}",
                f"Server gauge: {name.replace('_', ' ')}.",
                "gauge",
                [("", float(gauges[name]))],  # type: ignore[index]
            )
        if cache is not None:
            metric(
                "repro_cache_events_total",
                "Cross-query cache lifetime events "
                "(repro.cache.QueryCache.stats).",
                "counter",
                [
                    (f'{{event="{field}"}}', float(cache.get(field, 0)))
                    for field in _CACHE_EVENT_FIELDS
                ],
            )
            for field in _CACHE_GAUGE_FIELDS:
                metric(
                    f"repro_cache_{field}",
                    f"Cross-query cache occupancy: "
                    f"{field.replace('_', ' ')}.",
                    "gauge",
                    [("", float(cache.get(field, 0)))],
                )
        return "\n".join(lines) + "\n"
