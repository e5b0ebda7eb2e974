"""Server metrics built directly on the ``repro.obs`` counters.

:class:`ServerMetrics` is the cumulative, process-lifetime counterpart
of a per-query :class:`~repro.obs.trace.QueryTrace`: request/outcome
counters for the HTTP surface, evaluation-stat totals, latency
histograms of the server's request spans (:mod:`repro.obs.spans`), and
— for every traced query — the per-structure wavelet-tree operation
counts merged into the *same* :class:`~repro.obs.trace.OpCounters`
dataclass the trace recorder uses. :meth:`ServerMetrics.as_dict` is the
one document; :func:`render_text` writes it in the Prometheus text
exposition format (the shape of openGauss-DBMind's exporters) through
the declared :data:`EXPOSITION` table, so both forms hold the same
numbers by construction.

Thread safety: query outcomes are observed from the dispatcher's
executor thread while scrapes run on the event loop, so every mutation
and snapshot holds one lock. Metrics never touch a live trace object —
only finished trace *documents* — so the zero-overhead-when-disabled
contract of the recorder is untouched.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator, Mapping

from repro.obs.spans import Histogram
from repro.obs.trace import OpCounters

#: The server's endpoints. Requests are counted under these labels and
#: every other path under ``other``: the path is the client's text, and
#: a label per distinct path would let a client grow the table forever.
ENDPOINTS = ("/query", "/explain", "/metrics", "/healthz")

#: The server spans of one dispatched request and the routes it can
#: take: the two fixed label sets of the latency histogram table.
SPANS = ("request", "queue", "evaluate", "encode")
ROUTES = ("batched", "direct", "explain")

#: OpCounters fields accumulated from trace documents ("total" is
#: derived, never stored).
_OP_FIELDS = ("rank", "select", "access", "range_next", "range_count",
              "quantile")

#: Evaluation-stat totals accumulated from query results.
_STAT_FIELDS = ("solutions", "bindings", "attempts", "leap_calls")

#: The text exposition, declared once over the :meth:`as_dict` document:
#: (name, kind, path, help). A ``{label}`` path segment iterates the
#: keys there as the values of ``label`` (``{a b}`` splits a key
#: ``"x y"`` over two labels); ``{label:k1,k2}`` takes only those keys,
#: in that order; a ``{}`` segment puts the key into the name and help
#: instead. A histogram's path ends at its ``{count, sum, buckets}``.
EXPOSITION = (
    ("repro_requests_total", "counter", "requests.{endpoint code}",
     "HTTP requests served, by endpoint and status code."),
    ("repro_queries_total", "counter",
     "queries.{outcome:ok,timeout,error,shed}",
     "Completed query evaluations by outcome."),
    ("repro_queries_cached_total", "counter", "queries.cached",
     "Completed query evaluations answered from the cross-query cache."),
    ("repro_queries_by_route_total", "counter", "queries.by_route.{route}",
     "Completed query evaluations by scheduler route."),
    ("repro_engine_stat_total", "counter", "engine_stats.{stat}",
     "Evaluation-stat totals (repro.ltj.stats fields)."),
    ("repro_span_seconds", "histogram", "spans.{span}.{route}",
     "Wall seconds of a dispatched request's server spans, by route."),
    ("repro_response_bytes_total", "counter", "response_bytes_total",
     "Bytes of the 200 /query reply bodies built."),
    ("repro_traced_queries_total", "counter", "queries.traced",
     "Queries evaluated under a repro.obs trace."),
    ("repro_wavelet_ops_total", "counter",
     f"wavelet_ops.{{structure}}.{{op:{','.join(_OP_FIELDS)}}}",
     "Succinct-structure operation counts merged from traced queries "
     "(repro.obs OpCounters)."),
    ("repro_uptime_seconds", "gauge", "uptime_seconds",
     "Seconds since the server process started."),
    ("repro_{}", "gauge", "gauges.{}", "Server gauge: {}."),
    ("repro_cache_events_total", "counter",
     "cache.{event:hits,misses,fills,evictions,invalidations,inadmissible}",
     "Cross-query cache lifetime events (repro.cache.QueryCache.stats)."),
    ("repro_cache_{}", "gauge", "cache.{:entries,bytes,max_bytes}",
     "Cross-query cache occupancy: {}."),
)


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
        #: route ("batched" | "direct" | "explain") -> dispatched requests.
        self._queries_by_route: dict[str, int] = {}
        self._queries_ok = 0
        self._queries_timeout = 0
        self._queries_error = 0
        self._queries_shed = 0
        self._queries_cached = 0
        self._stat_totals: dict[str, int] = {f: 0 for f in _STAT_FIELDS}
        #: span -> route -> latency histogram; both labels are fixed.
        self._spans: dict[str, dict[str, Histogram]] = {}
        #: Bytes of the 200 ``/query`` bodies.
        self._response_bytes_total = 0
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

    def observe(
        self,
        route: str,
        code: int,
        seconds: Mapping[str, float],
        stats: Mapping[str, int] | None = None,
        cached: bool = False,
        response_bytes: int = 0,
    ) -> None:
        """Fold in one dispatched request, once, whatever its outcome:
        ``code`` 200 is ok, 504 a timeout, anything else an error.
        ``seconds`` holds its server spans' durations by name."""
        with self._lock:
            self._queries_by_route[route] = (
                self._queries_by_route.get(route, 0) + 1
            )
            if code == 200:
                self._queries_ok += 1
            elif code == 504:
                self._queries_timeout += 1
            else:
                self._queries_error += 1
            if cached:
                self._queries_cached += 1
            for field in _STAT_FIELDS:
                self._stat_totals[field] += int((stats or {}).get(field, 0))
            for name, elapsed in seconds.items():
                if name in SPANS and route in ROUTES:
                    by_route = self._spans.setdefault(name, {})
                    if route not in by_route:
                        by_route[route] = Histogram()
                    by_route[route].observe(max(0.0, elapsed))
            self._response_bytes_total += response_bytes

    def observe_trace_document(self, document: Mapping[str, Any]) -> None:
        """Merge a finished trace document's wavelet op counts.

        Accepts the JSON form (:meth:`QueryTrace.to_dict`), the form the
        ``/query`` and ``/explain`` replies embed.
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
        """The metrics document (:func:`render_text` writes it as text).

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
                "spans": {
                    name: {route: h.as_dict() for route, h in by_route.items()}
                    for name, by_route in self._spans.items()
                },
                "response_bytes_total": self._response_bytes_total,
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


def _leaves(
    node: Any, segments: list[str], labels: tuple = (), key: str = ""
) -> Iterator[tuple[tuple, str, Any]]:
    """(labels, name key, value) of every leaf an EXPOSITION path
    selects."""
    if not segments:
        yield labels, key, node
        return
    head, rest = segments[0], segments[1:]
    if not isinstance(node, Mapping):
        return
    if not head.startswith("{"):
        if head in node:
            yield from _leaves(node[head], rest, labels, key)
        return
    names, _, only = head[1:-1].partition(":")
    for k in only.split(",") if only else node:
        if k in node:
            pairs = tuple(zip(names.split(), k.split(" ")))
            yield from _leaves(node[k], rest, labels + pairs,
                               key if names else k)


def render_text(document: Mapping[str, Any]) -> str:
    """Prometheus text exposition (format 0.0.4) of an :meth:`as_dict`
    document, one family per :data:`EXPOSITION` row (and per key of a
    ``{}`` row); a family with no samples is left out."""
    lines: list[str] = []
    for name, kind, path, help_text in EXPOSITION:
        families: dict[str, tuple[str, list[str]]] = {}
        for labels, key, leaf in _leaves(document, path.split(".")):
            family = name.format(key)
            samples = families.setdefault(family, (key, []))[1]
            series = [("", (), leaf)] if kind != "histogram" else [
                *(("_bucket", (("le", le),), n)
                  for le, n in leaf["buckets"].items()),
                ("_sum", (), leaf["sum"]), ("_count", (), leaf["count"]),
            ]
            for suffix, extra, value in series:
                rendered = ",".join(
                    f'{label}="{_escape_label(str(v))}"'
                    for label, v in labels + extra
                )
                number = value if value % 1 else int(value)
                samples.append(
                    f"{family}{suffix}{{{rendered}}} {number}" if rendered
                    else f"{family}{suffix} {number}"
                )
        for family, (key, samples) in families.items():
            lines.append(
                f"# HELP {family} {help_text.format(key.replace('_', ' '))}"
            )
            lines.append(f"# TYPE {family} {kind}")
            lines.extend(samples)
    return "\n".join(lines) + "\n"
