"""Client-side smoke battery for a running ``repro serve`` instance.

Stdlib-only HTTP client (``http.client``) so the CI serve job can run
it in any environment the server runs in. Exercises the whole surface:

1. ``GET /healthz`` — server is up, reports its store and pool shape;
2. ``POST /query`` — solutions come back, response body validates
   against :data:`repro.serve.protocol.QUERY_RESPONSE_SCHEMA`, and the
   reply carries an ``X-Request-Id``;
3. ``POST /query`` with ``trace`` — the embedded trace document
   validates against the trace schema;
4. ``POST /explain`` with ``analyze`` — plan text plus validated trace;
5. malformed request — typed 400, never a traceback;
6. ``GET /metrics`` — Prometheus text scrape (optionally written to
   ``--out`` as the CI artifact) counts the batched query in its
   ``request`` span histogram, and the JSON form agrees on the query
   counter and counts each route's requests once: ``queries.by_route``
   equals the ``request`` histogram counts.

Exit code 0 when every step passes::

    python -m repro.serve.smoke --port 8080 [--out metrics.txt]
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
from typing import Any

from repro.obs import validate_trace
from repro.serve.protocol import (
    validate_error_response,
    validate_explain_response,
    validate_query_response,
)

DEFAULT_QUERY = "(?e, 0, ?img) . knn(?img, ?other, 5)"


class SmokeFailure(AssertionError):
    """One smoke step did not behave as required."""


def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
    timeout: float = 120.0,
) -> tuple[int, dict[str, str], bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            raw,
        )
    finally:
        connection.close()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_smoke(
    host: str,
    port: int,
    query: str = DEFAULT_QUERY,
    out: str | None = None,
    log=print,
) -> None:
    """Run every smoke step against ``host:port``; raises on failure."""
    # 1. health
    code, _headers, raw = _request(host, port, "GET", "/healthz")
    _check(code == 200, f"/healthz returned {code}")
    health = json.loads(raw)
    _check(health["status"] == "ok", f"health status {health['status']!r}")
    log(f"healthz ok: workers={health['workers']}, store={health['store']}")

    # 2. plain query
    code, headers, raw = _request(
        host, port, "POST", "/query", {"query": query}
    )
    _check(code == 200, f"/query returned {code}: {raw[:200]!r}")
    _check("x-request-id" in headers, "/query reply has no X-Request-Id")
    plain = json.loads(raw)
    validate_query_response(plain)
    log(
        f"query ok: {len(plain['solutions'])} solutions via "
        f"{plain['engine']} [{plain['route']}]"
    )

    # 3. traced query: identical solutions plus a schema-valid trace
    code, _headers, raw = _request(
        host, port, "POST", "/query", {"query": query, "trace": True}
    )
    _check(code == 200, f"traced /query returned {code}: {raw[:200]!r}")
    traced = json.loads(raw)
    validate_query_response(traced)
    _check(
        traced["solutions"] == plain["solutions"],
        "traced run returned different solutions",
    )
    _check(traced.get("trace") is not None, "trace requested but absent")
    validate_trace(traced["trace"])
    log(f"traced query ok: {sum(w['total'] for w in traced['trace']['wavelets'].values())} wavelet ops")

    # 4. explain analyze
    code, _headers, raw = _request(
        host, port, "POST", "/explain", {"query": query, "analyze": True}
    )
    _check(code == 200, f"/explain returned {code}: {raw[:200]!r}")
    explained = json.loads(raw)
    validate_explain_response(explained)
    _check(explained.get("trace") is not None, "analyze trace absent")
    validate_trace(explained["trace"])
    log(f"explain ok: engine {explained['engine']}")

    # 5. malformed request: typed error, not a traceback
    code, _headers, raw = _request(
        host, port, "POST", "/query", {"query": "(?x"}
    )
    _check(code == 400, f"malformed query returned {code}, wanted 400")
    error = json.loads(raw)
    validate_error_response(error)
    log(f"malformed query rejected: {error['error']['type']}")

    # 6. metrics: text scrape (the CI artifact) + JSON agreement
    code, _headers, raw = _request(host, port, "GET", "/metrics")
    _check(code == 200, f"/metrics returned {code}")
    text = raw.decode("utf-8")
    _check(
        "repro_queries_total" in text and "repro_wavelet_ops_total" in text,
        "metrics exposition is missing expected families",
    )
    batched = 'repro_span_seconds_count{span="request",route="batched"} '
    counted = [int(line[len(batched):]) for line in text.splitlines()
               if line.startswith(batched)]
    _check(counted[:1] >= [1], f"{counted} batched requests counted, sent 1")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        log(f"wrote metrics scrape to {out}")
    code, _headers, raw = _request(
        host, port, "GET", "/metrics?format=json"
    )
    _check(code == 200, f"/metrics?format=json returned {code}")
    doc = json.loads(raw)
    _check(
        doc["queries"]["ok"] >= 2,
        f"expected >= 2 completed queries, metrics say {doc['queries']}",
    )
    requests = {route: histogram["count"] for route, histogram
                in doc["spans"]["request"].items()}
    _check(
        doc["queries"]["by_route"] == requests,
        f"queries by route {doc['queries']['by_route']} disagree with "
        f"the request span counts {requests}",
    )
    log(f"metrics ok: {doc['queries']['ok']} queries served")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="smoke-test a running repro serve instance"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--query", default=DEFAULT_QUERY)
    parser.add_argument(
        "--out", default=None, help="write the /metrics text scrape here"
    )
    args = parser.parse_args(argv)
    try:
        run_smoke(args.host, args.port, query=args.query, out=args.out)
    except (SmokeFailure, OSError, json.JSONDecodeError) as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI job
    sys.exit(main())
