"""Query observability: tracing, trace schema, and trace diffing.

See :mod:`repro.obs.trace` for the recorder design (and its
zero-overhead-when-disabled contract), :mod:`repro.obs.schema` for the
machine-readable trace format, and :mod:`repro.obs.diff` for comparing
traces across runs.
"""

from repro.obs.diff import CounterDelta, diff_traces, flatten_counters, format_diff
from repro.obs.schema import (
    TRACE_SCHEMA,
    TraceSchemaError,
    validate_document,
    validate_trace,
)
from repro.obs.trace import (
    OpCounters,
    OrderingDecision,
    QueryTrace,
    RelationCounters,
    VarCounters,
    attach_wavelets,
    instrument_relations,
    wavelet_targets,
)

__all__ = [
    "CounterDelta",
    "OpCounters",
    "OrderingDecision",
    "QueryTrace",
    "RelationCounters",
    "TRACE_SCHEMA",
    "TraceSchemaError",
    "VarCounters",
    "attach_wavelets",
    "diff_traces",
    "flatten_counters",
    "format_diff",
    "instrument_relations",
    "validate_document",
    "validate_trace",
    "wavelet_targets",
]
