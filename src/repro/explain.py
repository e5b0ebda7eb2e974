"""Query-plan explanation: what the LTJ engine is going to do and why.

Lives at the package top level (not under :mod:`repro.ltj`) because it
consults both the LTJ layer and the engines layer.

LTJ's orderings are adaptive, so there is no complete static plan; but
most of what a user wants to know *is* static or cheaply probed:

* the atoms and their initial candidate estimates (the ``l_x`` values
  the ordering rules consult at the first step);
* the constraint-graph classification (acyclic / single 2-cyclic /
  general), which decides whether the ordering is provably wco
  (Thms. 2-3);
* safety of the query (whether program (1) applies);
* the LP output bound ``Q*``;
* the first root-to-leaf elimination order of an actual (answer-limited)
  probe run.

:func:`explain` gathers these into a :class:`PlanReport`, and
``PlanReport.format()`` renders a human-readable summary.

With ``analyze=True`` (EXPLAIN ANALYZE), the query is additionally
*executed* under a :class:`~repro.obs.trace.QueryTrace` and the report
carries — and renders — the observed counters: per-variable leaps,
intersection members, bindings; per-atom backend detail; wavelet-tree
operation counts; phase timings; the ordering decisions actually taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bounds.constraint_graph import ConstraintGraph
from repro.bounds.linear_program import solve_size_bound
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RING_ENGINES
from repro.ltj.engine import LTJEngine
from repro.obs.trace import QueryTrace
from repro.query.model import ExtendedBGP, Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import QueryCache


@dataclass
class PlanReport:
    """Everything :func:`explain` learns about a query."""

    query: ExtendedBGP
    engine: str
    variables: tuple[Var, ...]
    lonely: tuple[Var, ...]
    similarity_variables: tuple[Var, ...]
    initial_estimates: dict[Var, int]
    constraint_class: str
    """``acyclic`` | ``single-2-cyclic`` | ``general-cyclic``."""

    wco_guarantee: bool
    """Whether Thm. 2 or Thm. 3 applies to this query under Ring-KNN."""

    safe: bool
    q_star: float | None
    """LP output bound; None when the bound LP is not applicable."""

    probe_order: tuple[Var, ...] = ()
    """First-descent elimination order of a limit-1 probe run."""

    probe_solutions_found: int = 0
    notes: list[str] = field(default_factory=list)

    analysis: QueryTrace | None = None
    """Execution trace when :func:`explain` ran with ``analyze=True``."""

    def format(self) -> str:
        """Render as an indented text report."""
        lines = [f"plan for {self.query}"]
        lines.append(f"  engine: {self.engine}")
        lines.append(
            "  variables: "
            + ", ".join(repr(v) for v in self.variables)
            + (f"  (lonely: {', '.join(repr(v) for v in self.lonely)})"
               if self.lonely else "")
        )
        lines.append(
            "  initial candidate estimates: "
            + ", ".join(
                f"{v!r}={self.initial_estimates[v]}" for v in self.variables
            )
        )
        guarantee = "wco (Thm. 2/3)" if self.wco_guarantee else "heuristic"
        lines.append(
            f"  constraint graph: {self.constraint_class} -> {guarantee}"
        )
        lines.append(f"  safe query: {self.safe}")
        if self.q_star is not None:
            lines.append(f"  output bound Q*: {self.q_star:.4g}")
        if self.probe_order:
            lines.append(
                "  probe elimination order: "
                + " -> ".join(repr(v) for v in self.probe_order)
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.analysis is not None:
            lines.extend(_format_analysis(self.analysis))
        return "\n".join(lines)


def _format_analysis(trace: QueryTrace) -> list[str]:
    """Render an execution trace as EXPLAIN ANALYZE report lines."""
    status = " [TIMED OUT]" if trace.timed_out else ""
    lines = [
        f"  analyze ({trace.engine}): {trace.solutions} solutions "
        f"in {trace.elapsed:.4f}s{status}"
    ]
    stats = trace.stats
    if stats:
        lines.append(
            "    totals: "
            f"leaps={stats.get('leap_calls', 0)} "
            f"candidates={stats.get('attempts', 0)} "
            f"bindings={stats.get('bindings', 0)}"
        )
    for name, seconds in trace.spans.totals(trace.root, nested=True).items():
        lines.append(f"    phase {name}: {seconds:.4f}s")
    for v, c in trace.variables.items():
        lines.append(
            f"    var {v!r}: leaps={c.leaps} candidates={c.candidates} "
            f"bindings={c.bindings} failed={c.failed_bindings} "
            f"chosen={c.times_chosen} fanout={c.fanout}"
        )
    for rel in trace.relations:
        detail = ", ".join(
            f"{key}={count}" for key, count in sorted(rel.detail.items())
        )
        lines.append(
            f"    atom {rel.label} [{rel.kind}]: leaps={rel.leaps} "
            f"binds={rel.binds} failed={rel.failed_binds}"
            + (f" ({detail})" if detail else "")
        )
    for label, ops in trace.wavelets.items():
        lines.append(
            f"    wavelet {label}: total={ops.total} rank={ops.rank} "
            f"select={ops.select} access={ops.access} "
            f"range_next={ops.range_next} range_count={ops.range_count}"
        )
    for decision in trace.decisions:
        lines.append(
            f"    step {decision.depth}: chose ?{decision.variable} "
            f"[{decision.reason}]"
        )
    if trace.decisions_dropped:
        lines.append(
            f"    ... {trace.decisions_dropped} further ordering "
            "decisions not shown"
        )
    for key, value in trace.meta.items():
        if key == "cache":
            lines.append(_format_cache_meta(value))
            continue
        lines.append(f"    meta {key}: {value}")
    return lines


def _format_cache_meta(meta: dict) -> str:
    """Render ``trace.meta["cache"]`` as one report line.

    ``hit`` / ``miss`` / ``inadmissible`` plus the canonical signature
    (when the query canonicalized) and, after a miss, whether the cold
    result was admitted.
    """
    outcome = meta.get("outcome", "miss")
    line = f"    cache: {outcome}"
    if meta.get("reason"):
        line += f" ({meta['reason']})"
    if meta.get("signature"):
        line += f" signature={meta['signature']}"
    if meta.get("engine"):
        line += f" engine={meta['engine']}"
    if "stored" in meta:
        if meta["stored"]:
            line += " [stored]"
        else:
            line += f" [not stored: {meta.get('store_reason', '?')}]"
    return line


def explain(
    db: GraphDatabase,
    query: ExtendedBGP,
    engine: str = "ring-knn",
    probe: bool = True,
    analyze: bool = False,
    timeout: float | None = None,
    cache: QueryCache | None = None,
) -> PlanReport:
    """Analyze a query — statically, or (``analyze``) by executing it.

    Args:
        db: the indexed database.
        query: the extended BGP.
        engine: ``"ring-knn"`` or ``"ring-knn-s"``.
        probe: run a limit-1 evaluation to capture the actual first
            elimination order (cheap for non-pathological queries).
        analyze: EXPLAIN ANALYZE — run the query to completion under a
            :class:`QueryTrace` and attach the observed counters as
            ``report.analysis`` (rendered by ``format()``).
        timeout: time budget for the ``analyze`` run.
        cache: optional :class:`repro.cache.QueryCache`; the analyze
            run probes it before executing, fills it after, and the
            report renders the outcome (hit / miss / inadmissible plus
            the canonical signature) from ``trace.meta["cache"]``.
    """
    driver = RING_ENGINES[engine](db)
    relations = driver.compile(query)
    ltj = LTJEngine(relations, ordering=driver._ordering(query))

    constraint_class = ConstraintGraph(query).constraint_class()
    wco = engine == "ring-knn" and constraint_class != "general-cyclic"

    notes: list[str] = []
    q_star: float | None = None
    if query.dist_clauses:
        notes.append(
            "distance clauses present: LP bound not computed (the paper's "
            "programs cover <|_k only); their per-binding counts still "
            "steer the adaptive ordering"
        )
    else:
        # N and the domain come from the Ring, which exists for both
        # bundle-built and store-backed (`from_index`) databases; the
        # raw `db.graph` tables are absent in the latter.
        bound = solve_size_bound(
            query,
            max(db.ring.num_edges, 1),
            domain_size=max(db.ring.domain_size, 2),
        )
        q_star = bound.q_star
    if engine == "ring-knn-s" and constraint_class != "acyclic":
        notes.append(
            "Ring-KNN-S may bind constraint targets early; expect higher "
            "variance on cyclic constraint graphs (Sec. 6.2)"
        )

    report = PlanReport(
        query=query,
        engine=engine,
        variables=ltj.variables,
        lonely=tuple(query.lonely_variables()),
        similarity_variables=tuple(sorted(ltj.stats.sim_variables)),
        initial_estimates=ltj.initial_estimates(),
        constraint_class=constraint_class,
        wco_guarantee=wco,
        safe=query.is_safe(),
        q_star=q_star,
        notes=notes,
    )
    if probe:
        probe_engine = LTJEngine(
            driver.compile(query), ordering=driver._ordering(query), limit=1
        )
        solutions = probe_engine.evaluate()
        report.probe_order = tuple(probe_engine.stats.first_descent_order)
        report.probe_solutions_found = len(solutions)
    if analyze:
        trace = QueryTrace(query=repr(query))

        def run():
            return driver.evaluate(query, timeout=timeout, trace=trace)

        if cache is None:
            run()
        else:
            cache.evaluate(db, query, engine=engine, run=run, trace=trace)
        report.analysis = trace
    return report
