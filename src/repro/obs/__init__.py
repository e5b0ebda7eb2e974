"""Query observability: tracing and the trace schema.

See :mod:`repro.obs.trace` for the recorder design (a traced run
searches as an untraced one does) and :mod:`repro.obs.schema` for
the machine-readable trace format.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.schema import (
        TRACE_SCHEMA, TraceSchemaError, validate_document, validate_trace,
    )
    from repro.obs.trace import (
        OpCounters, OrderingDecision, QueryTrace, RelationCounters, VarCounters,
        attach_wavelets, wavelet_targets,
    )

__all__ = [
    "OpCounters", "OrderingDecision", "QueryTrace", "RelationCounters",
    "TRACE_SCHEMA", "TraceSchemaError", "VarCounters", "attach_wavelets",
    "validate_document", "validate_trace", "wavelet_targets",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "schema": (
        "TRACE_SCHEMA", "TraceSchemaError", "validate_document", "validate_trace",
    ),
    "trace": (
        "OpCounters", "OrderingDecision", "QueryTrace", "RelationCounters",
        "VarCounters", "attach_wavelets", "wavelet_targets",
    ),
})
