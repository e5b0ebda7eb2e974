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

A traced run searches as an untraced one does: the LTJ engine wraps each
atom in a :class:`CountingRelation`, which counts the calls of the
atom's own seekers, and :meth:`QueryTrace.observe` attaches op counters
to the wavelet trees for the calling thread only (threads sharing a
tree each count into their own trace, one without a trace into
nothing). Tracing is off unless a ``QueryTrace`` is passed to an
engine; with no trace alive, a count site costs one ``is not None``
test. The repo benchmark reports what enabling it costs as
``obs.trace_overhead_ratio``.

The JSON form (:meth:`QueryTrace.to_dict`) follows the machine-readable
schema in :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from repro.ltj.relation import LeapRelation, Resolved, Seeker
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

    def bump(self, key: str | None) -> None:
        """Count one call under ``key`` (``None``: none)."""
        if key is not None:
            self.detail[key] = self.detail.get(key, 0) + 1

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
    # recording API (called by engines, always behind an `is not None`
    # guard on their side)
    # ------------------------------------------------------------------
    def var(self, v: Var) -> VarCounters:
        """Get-or-create the counters of one variable."""
        counters = self.variables.get(v)
        if counters is None:
            counters = self.variables[v] = VarCounters()
        return counters

    def counting(self, relation: LeapRelation) -> CountingRelation:
        """``relation`` wrapped to count into new counters registered on
        this trace, labelled with its triple pattern or clause."""
        kind = relation.kind
        atom = relation.pattern if kind == "triple" else relation.clause
        counters = RelationCounters(repr(atom), kind)
        self.relations.append(counters)
        return CountingRelation(relation, counters)

    @contextmanager
    def observe(
        self,
        engine: str,
        query: object,
        wavelets: Iterable[tuple[object, str]],
    ) -> Iterator[None]:
        """Name the evaluation (``query`` unless one is named already)
        and, for its duration on this thread, count the ``(wavelet
        tree, label)`` pairs' operations into :meth:`wavelet`."""
        self.engine = engine
        if self.query is None:
            self.query = repr(query)
        pairs = [(tree, self.wavelet(label)) for tree, label in wavelets]
        with attach_wavelets(pairs):
            yield

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


class CountingRelation(LeapRelation):
    """An atom whose calls a traced evaluation counts.

    Answers as the wrapped relation does, through the callables the
    relation resolved (:meth:`resolve`, which the per-call methods go
    through too), so a traced search runs the seekers and binds an
    untraced one runs; :class:`RelationCounters` record one leap per
    seek and per ``values``, each bind (ok or failed), unbind and
    estimate, and in ``detail`` the backend keys the relation's
    :meth:`~repro.ltj.relation.LeapRelation.detail_keys` name for the
    binding the call was made under.
    """

    def __init__(
        self, relation: LeapRelation, counters: RelationCounters
    ) -> None:
        self._relation = relation
        self.counters = counters
        self.terms = relation.terms
        self.kind = relation.kind

    def is_empty(self) -> bool:
        return self._relation.is_empty()

    def resolve(self, pos: int) -> Resolved:
        seeker, bind, unbind, estimate = self._relation.resolve(pos)
        counters, keys = self.counters, self._relation.detail_keys

        def counted_seeker() -> Seeker:
            seek, key = seeker(), keys(pos)[0]

            def counted(lower: int) -> int | None:
                counters.leaps += 1
                counters.bump(key)
                return seek(lower)

            return counted

        def counted_bind(value: int) -> bool:
            counters.bump(keys(pos)[1])
            ok = bind(value)
            if ok:
                counters.binds += 1
            else:
                counters.failed_binds += 1
            return ok

        def counted_unbind() -> None:
            counters.unbinds += 1
            unbind()

        def counted_estimate() -> int:
            counters.estimates += 1
            return estimate()

        return counted_seeker, counted_bind, counted_unbind, counted_estimate

    def seeker(self, pos: int) -> Seeker:
        return self.resolve(pos)[0]()

    def values(self, pos: int) -> Sequence[int]:
        self.counters.leaps += 1
        self.counters.bump(self._relation.detail_keys(pos)[0])
        return self._relation.values(pos)

    def bind(self, pos: int, value: int) -> bool:
        return self.resolve(pos)[1](value)

    def unbind(self, pos: int) -> None:
        self.resolve(pos)[2]()

    def estimate(self, pos: int) -> int:
        return self.resolve(pos)[3]()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CountingRelation({self._relation!r})"


# ----------------------------------------------------------------------
# wavelet-tree counters, per thread
# ----------------------------------------------------------------------
_ATTACH = threading.Lock()


class _ThreadOps:
    """What a wavelet tree's ``ops`` holds while some thread traces it:
    each counter is a property that resolves to the calling thread's
    attached :class:`OpCounters`, or for a thread without a trace to a
    sink nobody reads, so the tree's count sites (``ops.rank += 1``)
    stay as they are."""

    __slots__ = ("by_thread", "sink")

    def __init__(self) -> None:
        self.by_thread: dict[int, OpCounters] = {}
        self.sink = OpCounters()


def _route(name: str) -> property:
    def get(routed: _ThreadOps) -> int:
        ops = routed.by_thread.get(threading.get_ident(), routed.sink)
        return getattr(ops, name)

    def put(routed: _ThreadOps, value: int) -> None:
        ops = routed.by_thread.get(threading.get_ident(), routed.sink)
        setattr(ops, name, value)

    return property(get, put)


for _field in fields(OpCounters):
    setattr(_ThreadOps, _field.name, _route(_field.name))


def wavelet_targets(
    db,
    query,
    include_ring: bool = True,
) -> list[tuple[object, str]]:
    """(wavelet tree, counter label) pairs for the structures a query
    touches.

    The three Ring columns share one ``"ring"`` counter group; each K-NN
    relation used by the query contributes ``knn:<name>.S`` and
    ``knn:<name>.S'``; a distance index contributes ``dist.D``.
    """
    pairs: list[tuple[object, str]] = []
    if include_ring:
        pairs.extend((db.ring.column(coord), "ring") for coord in "spo")
    for name in sorted({c.relation for c in query.clauses}):
        knn_ring = db.knn_rings.get(name)
        if knn_ring is None:
            continue
        pairs.append((knn_ring.S, f"knn:{name}.S"))
        pairs.append((knn_ring.Sprime, f"knn:{name}.S'"))
    if query.dist_clauses and db.distance_index is not None:
        pairs.append((db.distance_index.D, "dist.D"))
    return pairs


@contextmanager
def attach_wavelets(pairs: list[tuple[object, OpCounters]]) -> Iterator[None]:
    """Count the trees' operations into the paired counters, for the
    calling thread and the duration of the block.

    A tree traced by any thread holds a :class:`_ThreadOps` that routes
    each count to the calling thread's counters (a nested attach on the
    same thread wins until it ends); the last thread to detach sets its
    ``ops`` back to ``None``, in a ``finally``, so shared index
    structures never keep a recorder past the traced evaluations.
    """
    thread = threading.get_ident()
    saved = []
    with _ATTACH:
        for tree, ops in pairs:
            routed = tree.ops
            if routed is None:
                routed = tree.ops = _ThreadOps()
            saved.append(routed.by_thread.get(thread))
            routed.by_thread[thread] = ops
    try:
        yield
    finally:
        with _ATTACH:
            for (tree, _ops), previous in zip(pairs[::-1], saved[::-1]):
                routed = tree.ops
                if previous is not None:
                    routed.by_thread[thread] = previous
                    continue
                del routed.by_thread[thread]
                if not routed.by_thread:
                    tree.ops = None
