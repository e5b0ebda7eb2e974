"""Machine-readable schema of the JSON query trace.

``TRACE_SCHEMA`` is a JSON-Schema-style document describing the output
of :meth:`repro.obs.trace.QueryTrace.to_dict`; :func:`validate_trace`
checks a trace against it with a small self-contained validator (no
third-party dependency), raising :class:`TraceSchemaError` with the
offending path. The benchmarks and the tests validate every emitted
trace so the schema stays in sync with the recorder.

Run as a module to validate a trace file::

    python -m repro.obs.schema trace.json
"""

from __future__ import annotations

import json
import sys

_COUNTER = {"type": "integer", "minimum": 0}

_OPS_SCHEMA = {
    "type": "object",
    "required": ["rank", "select", "access", "range_next", "range_count",
                 "quantile", "total"],
    "properties": {
        "rank": _COUNTER,
        "select": _COUNTER,
        "access": _COUNTER,
        "range_next": _COUNTER,
        "range_count": _COUNTER,
        "quantile": _COUNTER,
        "total": _COUNTER,
    },
}

_VARIABLE_SCHEMA = {
    "type": "object",
    "required": ["leaps", "candidates", "bindings", "failed_bindings",
                 "times_chosen", "fanout"],
    "properties": {
        "leaps": _COUNTER,
        "candidates": _COUNTER,
        "bindings": _COUNTER,
        "failed_bindings": _COUNTER,
        "times_chosen": _COUNTER,
        "fanout": _COUNTER,
    },
}

_RELATION_SCHEMA = {
    "type": "object",
    "required": ["label", "kind", "leaps", "binds", "unbinds",
                 "failed_binds", "estimates", "detail"],
    "properties": {
        "label": {"type": "string"},
        "kind": {"type": "string", "enum": ["triple", "knn", "dist"]},
        "leaps": _COUNTER,
        "binds": _COUNTER,
        "unbinds": _COUNTER,
        "failed_binds": _COUNTER,
        "estimates": _COUNTER,
        "detail": {"type": "object", "values": _COUNTER},
    },
}

_DECISION_SCHEMA = {
    "type": "object",
    "required": ["depth", "variable", "estimates", "reason"],
    "properties": {
        "depth": _COUNTER,
        "variable": {"type": "string"},
        "estimates": {"type": "object", "values": _COUNTER},
        "reason": {"type": "string"},
    },
}

TRACE_SCHEMA = {
    "type": "object",
    "required": ["version", "engine", "query", "solutions", "elapsed",
                 "timed_out", "stats", "phases", "variables", "ordering",
                 "ordering_dropped", "relations", "wavelets", "meta"],
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "engine": {"type": ["string", "null"]},
        "query": {"type": ["string", "null"]},
        "solutions": _COUNTER,
        "elapsed": {"type": "number", "minimum": 0},
        "timed_out": {"type": "boolean"},
        "stats": {"type": "object", "values": _COUNTER},
        "phases": {"type": "object", "values": {"type": "number", "minimum": 0}},
        "variables": {"type": "object", "values": _VARIABLE_SCHEMA},
        "ordering": {"type": "array", "items": _DECISION_SCHEMA},
        "ordering_dropped": _COUNTER,
        "relations": {"type": "array", "items": _RELATION_SCHEMA},
        "wavelets": {"type": "object", "values": _OPS_SCHEMA},
        "meta": {"type": "object"},
    },
}


class TraceSchemaError(ValueError):
    """A trace document violates :data:`TRACE_SCHEMA`."""


def _type_ok(value: object, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        )
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "null":
        return value is None
    raise ValueError(f"unknown schema type {expected!r}")


def _validate(value: object, schema: dict, path: str) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(value, t) for t in types):
            raise TraceSchemaError(
                f"{path}: expected {'/'.join(types)}, "
                f"got {type(value).__name__}"
            )
        if value is None:
            return
    if "enum" in schema and value not in schema["enum"]:
        raise TraceSchemaError(
            f"{path}: {value!r} not in {schema['enum']!r}"
        )
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        raise TraceSchemaError(
            f"{path}: {value!r} below minimum {schema['minimum']}"
        )
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise TraceSchemaError(f"{path}: missing key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}")
        # `values` constrains every entry of a map-like object (the
        # patternProperties-for-everything case).
        values_schema = schema.get("values")
        if values_schema is not None:
            for key, entry in value.items():
                if not isinstance(key, str):
                    raise TraceSchemaError(f"{path}: non-string key {key!r}")
                _validate(entry, values_schema, f"{path}[{key!r}]")
    if isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for index, entry in enumerate(value):
                _validate(entry, items, f"{path}[{index}]")


def validate_trace(trace: dict) -> None:
    """Raise :class:`TraceSchemaError` unless ``trace`` fits the schema."""
    _validate(trace, TRACE_SCHEMA, "$")


def validate_document(document: object, schema: dict, path: str = "$") -> None:
    """Validate any JSON document against a schema in this dialect.

    The serve wire protocol (:mod:`repro.serve.protocol`) defines its
    request/response schemas next to this trace schema and validates
    them through the same self-contained validator, so the whole JSON
    surface of the system shares one dialect and one error type
    (:class:`TraceSchemaError`).
    """
    _validate(document, schema, path)


def main(argv: list[str] | None = None) -> int:
    """Validate trace JSON files given as arguments (or stdin)."""
    args = sys.argv[1:] if argv is None else argv
    documents: list[tuple[str, dict]] = []
    if not args:
        documents.append(("<stdin>", json.load(sys.stdin)))
    else:
        for name in args:
            with open(name, "r", encoding="utf-8") as handle:
                documents.append((name, json.load(handle)))
    for name, doc in documents:
        try:
            validate_trace(doc)
        except TraceSchemaError as err:
            print(f"{name}: INVALID: {err}", file=sys.stderr)
            return 1
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - main() is tested directly
    sys.exit(main())
