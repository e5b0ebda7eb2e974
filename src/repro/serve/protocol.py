"""The JSON wire protocol of the ``repro serve`` query server.

Requests and responses are JSON documents validated against the
schemas below — defined in the same self-contained dialect as the
query-trace schema (:mod:`repro.obs.schema`) and checked through the
same validator (:func:`repro.obs.schema.validate_document`), so the
server's whole JSON surface shares one schema language.

The contract mirrors the CLI: a ``/query`` request carries the query
text plus the knobs ``repro query`` exposes (engine pin, per-query
deadline, solution limit, optional tracing); a ``/query`` response
carries the solutions in the exact order the serial engine would emit
them (the byte-identical contract the test battery pins), the selected
engine, timing, the evaluation stats, and — when tracing was requested
— the full schema-validated trace document. Errors are typed: the
``error.type`` field names the library exception class
(``QueryError``, ``StoreFormatError``, ``TimeoutExceeded``,
``AdmissionRejected``...), never a bare traceback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.engines import INDEX_ENGINES, RING_ENGINES
from repro.obs.schema import TRACE_SCHEMA, TraceSchemaError, validate_document
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ltj.solutions import Solutions

_COUNTER = {"type": "integer", "minimum": 0}

#: ``POST /query`` request body.
QUERY_REQUEST_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["query"],
    "properties": {
        "query": {"type": "string"},
        # ``auto`` (the default) routes through the scheduler's strategy
        # selection; a Ring engine forces that one strategy.
        "engine": {"type": "string", "enum": list(INDEX_ENGINES)},
        "timeout": {"type": ["number", "null"], "minimum": 0},
        "limit": {"type": ["integer", "null"], "minimum": 0},
        "trace": {"type": "boolean"},
        "debug": {"type": ["string", "null"]},
    },
}

#: ``POST /explain`` request body.
EXPLAIN_REQUEST_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["query"],
    "properties": {
        "query": {"type": "string"},
        "engine": {"type": "string", "enum": list(RING_ENGINES)},
        "analyze": {"type": "boolean"},
        "timeout": {"type": ["number", "null"], "minimum": 0},
    },
}

#: One solution: variable name -> bound constant.
_SOLUTION_SCHEMA = {"type": "object", "values": {"type": "integer"}}

#: Successful ``POST /query`` response body.
QUERY_RESPONSE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["status", "engine", "route", "solutions", "elapsed",
                 "timed_out", "cached", "stats"],
    "properties": {
        "status": {"type": "string", "enum": ["ok"]},
        "engine": {"type": "string"},
        "route": {"type": "string"},
        "solutions": {"type": "array", "items": _SOLUTION_SCHEMA},
        "elapsed": {"type": "number", "minimum": 0},
        "timed_out": {"type": "boolean"},
        "cached": {"type": "boolean"},
        "stats": {"type": "object", "values": _COUNTER},
        "trace": dict(TRACE_SCHEMA, type=["object", "null"]),
    },
}

#: Successful ``POST /explain`` response body.
EXPLAIN_RESPONSE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["status", "engine", "report"],
    "properties": {
        "status": {"type": "string", "enum": ["ok"]},
        "engine": {"type": "string"},
        "report": {"type": "string"},
        "trace": dict(TRACE_SCHEMA, type=["object", "null"]),
    },
}

#: Error response body (any endpoint, any non-2xx status).
ERROR_RESPONSE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["status", "error"],
    "properties": {
        "status": {"type": "string", "enum": ["error"]},
        "error": {
            "type": "object",
            "required": ["type", "message"],
            "properties": {
                "type": {"type": "string"},
                "message": {"type": "string"},
                "retry_after": {"type": "integer", "minimum": 1},
                "elapsed": {"type": "number", "minimum": 0},
            },
        },
    },
}


@dataclass(frozen=True)
class QueryRequest:
    """Parsed, validated ``/query`` request."""

    query: str
    engine: str = "auto"
    timeout: float | None = None
    limit: int | None = None
    trace: bool = False
    debug: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form (every field present, defaults included)."""
        return {
            "query": self.query,
            "engine": self.engine,
            "timeout": self.timeout,
            "limit": self.limit,
            "trace": self.trace,
            "debug": self.debug,
        }


@dataclass(frozen=True)
class ExplainRequest:
    """Parsed, validated ``/explain`` request."""

    query: str
    engine: str = "ring-knn"
    analyze: bool = False
    timeout: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "engine": self.engine,
            "analyze": self.analyze,
            "timeout": self.timeout,
        }


def _decode_body(body: bytes | str) -> dict[str, Any]:
    if isinstance(body, bytes):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"request body is not UTF-8: {exc}") from exc
    try:
        document = json.loads(body or "null")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"request body is not JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValidationError(
            f"request body must be a JSON object, got "
            f"{type(document).__name__}"
        )
    return document


def _checked(document: Mapping[str, Any], schema: dict[str, Any]) -> None:
    """Schema-validate and reject unknown top-level keys."""
    unknown = sorted(set(document) - set(schema["properties"]))
    if unknown:
        raise ValidationError(
            f"unknown request field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(schema['properties']))})"
        )
    try:
        validate_document(dict(document), schema, "$")
    except TraceSchemaError as exc:
        raise ValidationError(f"malformed request: {exc}") from exc


def parse_query_request(body: bytes | str | Mapping[str, Any]) -> QueryRequest:
    """Decode + validate a ``/query`` body; raises ValidationError."""
    document = body if isinstance(body, Mapping) else _decode_body(body)
    _checked(document, QUERY_REQUEST_SCHEMA)
    timeout = document.get("timeout")
    return QueryRequest(
        query=document["query"],
        engine=document.get("engine", "auto"),
        timeout=None if timeout is None else float(timeout),
        limit=document.get("limit"),
        trace=bool(document.get("trace", False)),
        debug=document.get("debug"),
    )


def parse_explain_request(
    body: bytes | str | Mapping[str, Any],
) -> ExplainRequest:
    """Decode + validate an ``/explain`` body; raises ValidationError."""
    document = body if isinstance(body, Mapping) else _decode_body(body)
    _checked(document, EXPLAIN_REQUEST_SCHEMA)
    timeout = document.get("timeout")
    return ExplainRequest(
        query=document["query"],
        engine=document.get("engine", "ring-knn"),
        analyze=bool(document.get("analyze", False)),
        timeout=None if timeout is None else float(timeout),
    )


def encode_solutions(solutions: Solutions) -> list[dict[str, int]]:
    """Solutions as JSON rows, variable names sorted within each row.

    The *list* order is preserved exactly — it is the serial engine's
    enumeration order, which the byte-identical contract compares. This
    is the decoded form clients and tests compare with; the server
    writes the same rows as bytes (:func:`query_response`).
    """
    ordered = sorted(solutions.variables, key=lambda var: var.name)
    names = [var.name for var in ordered]
    return [dict(zip(names, row)) for row in solutions.columns(ordered).tolist()]


def _solution_rows(solutions: Solutions) -> bytes:
    """The inside of a reply's ``solutions`` array, byte for byte what
    ``json.dumps(encode_solutions(solutions), sort_keys=True)`` puts
    between its brackets, formatted from the int64 block in one ``%``
    over one template — no dict per row. A variable name is JSON-escaped
    and then ``%``-escaped, so no name can act as a conversion."""
    ordered = sorted(solutions.variables, key=lambda var: var.name)
    row = "{%s}" % ", ".join(
        json.dumps(var.name).replace("%", "%%") + ": %d" for var in ordered
    )
    values = solutions.columns(ordered)
    return b", ".join([row.encode("ascii")] * len(values)) % tuple(
        values.ravel().tolist()
    )


def query_stats(stats: Any) -> dict[str, int]:
    """The four evaluation counters a ``/query`` reply and ``/metrics``
    report."""
    return {
        "solutions": int(stats.solutions),
        "bindings": int(stats.bindings),
        "attempts": int(stats.attempts),
        "leap_calls": int(stats.leap_calls),
    }


def query_response(
    result: Any,
    route: str,
    trace: Mapping[str, Any] | None = None,
) -> bytes:
    """The finished body of a 200 ``/query`` reply for a ``QueryResult``:
    ``json.dumps(document, sort_keys=True) + "\\n"`` as bytes, where
    ``document["solutions"]`` is ``encode_solutions(result.solutions)``.

    ``json`` writes the small envelope in two halves — the keys that
    sort before ``"solutions"`` and those that sort after — and the rows
    go between them, so nothing is searched for and no text a request
    echoes (a trace document carries the query) can move the seam.
    """
    before = {
        "cached": bool(getattr(result, "cached", False)),
        "elapsed": max(0.0, float(result.elapsed)),
        "engine": result.engine,
        "route": route,
    }
    after: dict[str, Any] = {
        "stats": query_stats(result.stats),
        "status": "ok",
        "timed_out": bool(result.timed_out),
    }
    if trace is not None:
        after["trace"] = dict(trace)
    return b'%s, "solutions": [%s], %s\n' % (
        json.dumps(before, sort_keys=True).encode("ascii")[:-1],
        _solution_rows(result.solutions),
        json.dumps(after, sort_keys=True).encode("ascii")[1:],
    )


def explain_response(
    engine: str, report: str, trace: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Build the ``/explain`` success body."""
    document: dict[str, Any] = {
        "status": "ok",
        "engine": engine,
        "report": report,
    }
    if trace is not None:
        document["trace"] = dict(trace)
    return document


def error_response(
    error_type: str, message: str, **extra: int | float
) -> dict[str, Any]:
    """Build a typed error body (``error.type`` names the exception)."""
    error: dict[str, Any] = {"type": error_type, "message": message}
    error.update(extra)
    return {"status": "error", "error": error}


def validate_query_response(document: Mapping[str, Any]) -> None:
    """Schema-check a ``/query`` success body (tests, smoke clients)."""
    validate_document(dict(document), QUERY_RESPONSE_SCHEMA, "$")


def validate_explain_response(document: Mapping[str, Any]) -> None:
    """Schema-check an ``/explain`` success body."""
    validate_document(dict(document), EXPLAIN_RESPONSE_SCHEMA, "$")


def validate_error_response(document: Mapping[str, Any]) -> None:
    """Schema-check an error body."""
    validate_document(dict(document), ERROR_RESPONSE_SCHEMA, "$")
