"""The query-trace recorder: where an evaluation spends its work.

The paper's evaluation (Sec. 6) reasons about *operation counts*, not
just wall-clock time: how many leapfrog ``leap`` calls each variable
costs, how large the intersections are, how many ranges are opened on
the Ring versus the K-NN wavelet trees. :class:`QueryTrace` collects
exactly those quantities during one evaluation, grouped by

* **variable** — seek/leap calls, intersection members emitted,
  successful and failed bindings, how often the ordering picked it;
* **relation (atom)** — leaps/binds/unbinds plus backend-specific
  detail (which Ring primitive answered a leap, forward vs backward
  K-NN ranges, distance-prefix searches);
* **succinct structure** — wavelet-tree ``rank``/``select``/``access``/
  ``range_next_value`` operation counts per structure (the Ring
  columns, each K-NN relation's ``S``/``S'``, the distance sequence
  ``D``);
* **phase** — wall-clock per engine phase (evaluate and, inside it,
  compile/leapfrog; bgp/postprocess; materialize/query; a cache's
  cache_probe): the per-name sums of the engine's spans at any depth
  (:mod:`repro.obs.spans`).

Zero overhead when disabled: tracing is off unless a ``QueryTrace`` is
passed to an engine, and every producer guards its recording with a
single ``is not None`` test (there is no always-on recorder object in
any hot path). The repo benchmark reports what enabling it costs as
``obs.trace_overhead_ratio``.

The JSON form (:meth:`QueryTrace.to_dict`) follows the machine-readable
schema in :mod:`repro.obs.schema`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.spans import Spans
from repro.query.model import Var

TRACE_VERSION = 1

# Detailed ordering decisions recorded before aggregation-only mode
# kicks in (per-variable `times_chosen` keeps counting past the cap).
MAX_DECISIONS = 128


@dataclass
class OpCounters:
    """Operation counts of one succinct structure (a wavelet tree)."""

    rank: int = 0
    select: int = 0
    access: int = 0
    range_next: int = 0
    range_count: int = 0
    quantile: int = 0

    @property
    def total(self) -> int:
        return (
            self.rank + self.select + self.access
            + self.range_next + self.range_count + self.quantile
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "rank": self.rank,
            "select": self.select,
            "access": self.access,
            "range_next": self.range_next,
            "range_count": self.range_count,
            "quantile": self.quantile,
            "total": self.total,
        }


@dataclass
class VarCounters:
    """Leapfrog work attributed to one query variable."""

    leaps: int = 0
    """Seek (``leap``) calls issued while intersecting this variable."""

    candidates: int = 0
    """Intersection members emitted (candidate values tried)."""

    bindings: int = 0
    """Candidates that bound successfully in every atom."""

    failed_bindings: int = 0
    """Candidates rejected by some atom's ``bind``."""

    times_chosen: int = 0
    """How many times the ordering strategy picked this variable."""

    fanout: int = 0
    """Number of atoms intersected for this variable (candidate-stream
    fanout of the leapfrog intersection)."""

    def as_dict(self) -> dict[str, int]:
        return {
            "leaps": self.leaps,
            "candidates": self.candidates,
            "bindings": self.bindings,
            "failed_bindings": self.failed_bindings,
            "times_chosen": self.times_chosen,
            "fanout": self.fanout,
        }


@dataclass
class RelationCounters:
    """Work performed by one atom (triple pattern or clause)."""

    label: str
    kind: str
    """``triple`` | ``knn`` | ``dist``."""

    leaps: int = 0
    binds: int = 0
    unbinds: int = 0
    failed_binds: int = 0
    estimates: int = 0
    detail: dict[str, int] = field(default_factory=dict)
    """Backend-specific counters, e.g. ``leap_stored`` (Ring),
    ``leap_forward_S`` (K-NN), ``leap_within`` (distance)."""

    def bump(self, key: str, n: int = 1) -> None:
        self.detail[key] = self.detail.get(key, 0) + n

    def as_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "kind": self.kind,
            "leaps": self.leaps,
            "binds": self.binds,
            "unbinds": self.unbinds,
            "failed_binds": self.failed_binds,
            "estimates": self.estimates,
            "detail": dict(self.detail),
        }


@dataclass
class OrderingDecision:
    """One elimination-step choice made by the ordering strategy."""

    depth: int
    variable: str
    estimates: dict[str, int]
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {
            "depth": self.depth,
            "variable": self.variable,
            "estimates": dict(self.estimates),
            "reason": self.reason,
        }


class QueryTrace:
    """Mutable recorder threaded through one query evaluation.

    Create one, pass it as ``trace=`` to any engine's ``evaluate``, then
    read the counters (or :meth:`to_dict` for the JSON form). A trace
    accumulates; use a fresh instance per evaluation you want isolated.

    Engines record their phases into ``spans``. Pass a request's
    recorder to nest them under the span open at construction; the
    document's ``phases`` sum the spans below that one, at any depth.
    """

    def __init__(
        self,
        query: str | None = None,
        engine: str | None = None,
        spans: Spans | None = None,
    ) -> None:
        self.query = query
        self.engine = engine
        self.solutions = 0
        self.elapsed = 0.0
        self.timed_out = False
        self.stats: dict[str, int] = {}
        """Totals copied from :class:`~repro.ltj.stats.EvaluationStats`."""

        self.variables: dict[Var, VarCounters] = {}
        self.relations: list[RelationCounters] = []
        self.decisions: list[OrderingDecision] = []
        self.decisions_dropped = 0
        self.spans = Spans() if spans is None else spans
        self.root = self.spans.current
        """The span the engine's spans nest under (``None``: top level)."""
        self.wavelets: dict[str, OpCounters] = {}
        self.meta: dict[str, object] = {}
        """Free-form engine annotations (auto's selection, k* search...)."""

    # ------------------------------------------------------------------
    # recording API (called by engines/relations, always behind an
    # `is not None` guard on their side)
    # ------------------------------------------------------------------
    def var(self, v: Var) -> VarCounters:
        """Get-or-create the counters of one variable."""
        counters = self.variables.get(v)
        if counters is None:
            counters = self.variables[v] = VarCounters()
        return counters

    def relation(self, label: str, kind: str) -> RelationCounters:
        """Create (and register) counters for one atom."""
        counters = RelationCounters(label=label, kind=kind)
        self.relations.append(counters)
        return counters

    def wavelet(self, label: str) -> OpCounters:
        """Get-or-create the op counters of one succinct structure."""
        counters = self.wavelets.get(label)
        if counters is None:
            counters = self.wavelets[label] = OpCounters()
        return counters

    def record_decision(
        self,
        depth: int,
        variable: Var,
        estimates: dict[Var, int],
        reason: str,
    ) -> None:
        """Record one ordering choice (detailed up to ``MAX_DECISIONS``)."""
        self.var(variable).times_chosen += 1
        if len(self.decisions) >= MAX_DECISIONS:
            self.decisions_dropped += 1
            return
        self.decisions.append(
            OrderingDecision(
                depth=depth,
                variable=variable.name,
                estimates={v.name: e for v, e in estimates.items()},
                reason=reason,
            )
        )

    def finish(self, stats) -> None:
        """Copy an :class:`EvaluationStats` snapshot into the trace."""
        self.solutions = stats.solutions
        self.elapsed = stats.elapsed
        self.timed_out = bool(stats.timed_out)
        self.stats = {
            "solutions": stats.solutions,
            "bindings": stats.bindings,
            "attempts": stats.attempts,
            "leap_calls": stats.leap_calls,
        }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """The machine-readable form (see :mod:`repro.obs.schema`)."""
        return {
            "version": TRACE_VERSION,
            "engine": self.engine,
            "query": self.query,
            "solutions": self.solutions,
            "elapsed": self.elapsed,
            "timed_out": self.timed_out,
            "stats": dict(self.stats),
            "phases": self.spans.totals(self.root, nested=True),
            "variables": {
                v.name: c.as_dict() for v, c in self.variables.items()
            },
            "ordering": [d.as_dict() for d in self.decisions],
            "ordering_dropped": self.decisions_dropped,
            "relations": [r.as_dict() for r in self.relations],
            "wavelets": {
                label: ops.as_dict() for label, ops in self.wavelets.items()
            },
            "meta": dict(self.meta),
        }


# ----------------------------------------------------------------------
# wiring helpers used by the engines
# ----------------------------------------------------------------------
def instrument_relations(trace: QueryTrace, relations) -> None:
    """Attach per-atom counters to compiled leapfrog relations.

    Every relation adapter exposes an ``obs`` attribute (``None`` by
    default); attaching replaces it with a :class:`RelationCounters`
    registered on the trace.
    """
    for rel in relations:
        clause = getattr(rel, "clause", None)
        if clause is None:
            kind = "triple"
            label = repr(getattr(rel, "pattern", rel))
        elif hasattr(clause, "k"):
            kind = "knn"
            label = repr(clause)
        else:
            kind = "dist"
            label = repr(clause)
        rel.obs = trace.relation(label, kind)


def wavelet_targets(
    trace: QueryTrace,
    db,
    query,
    include_ring: bool = True,
) -> list[tuple[object, OpCounters]]:
    """(wavelet tree, counters) pairs for the structures a query touches.

    The three Ring columns share one ``"ring"`` counter group; each K-NN
    relation used by the query contributes ``knn:<name>.S`` and
    ``knn:<name>.S'``; a distance index contributes ``dist.D``.
    """
    pairs: list[tuple[object, OpCounters]] = []
    if include_ring:
        ring_ops = trace.wavelet("ring")
        for coord in "spo":
            pairs.append((db.ring.column(coord), ring_ops))
    for name in sorted({c.relation for c in query.clauses}):
        knn_ring = db.knn_rings.get(name)
        if knn_ring is None:
            continue
        pairs.append((knn_ring.S, trace.wavelet(f"knn:{name}.S")))
        pairs.append((knn_ring.Sprime, trace.wavelet(f"knn:{name}.S'")))
    if query.dist_clauses and db.distance_index is not None:
        pairs.append((db.distance_index.D, trace.wavelet("dist.D")))
    return pairs


@contextmanager
def attach_wavelets(pairs: list[tuple[object, OpCounters]]) -> Iterator[None]:
    """Temporarily attach op counters to wavelet trees.

    Detaches in a ``finally`` so shared index structures never keep a
    recorder past the traced evaluation.
    """
    for tree, ops in pairs:
        tree.ops = ops
    try:
        yield
    finally:
        for tree, _ops in pairs:
            tree.ops = None
