"""The paper's evaluation as one registry: the code behind
``repro experiments``.

* :func:`figure2_setup` — benchmark graph -> indexed database -> Q1-Q5
  workload, from the two config dataclasses of :mod:`repro.datasets`.
  The golden fixtures under ``tests/golden/`` and the experiments below
  all build their input through it.
* :data:`EXPERIMENTS` — experiment id (DESIGN.md's E1-E13) -> function
  returning a :class:`Report`: the paper-style tables it regenerates and
  one :class:`Claim` row per shape the paper states, with its threshold.
  E1-E5 and E9 read one Figure-2 run, so they share a function; E12 (the
  worked Examples 1-3) is exact-match tests, not a measurement — see
  ``tests/test_paper_examples.py``.

A default :class:`Context` is the one scale EXPERIMENTS.md is written from.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.classification import make_anuran_like, make_drybean_like
from repro.datasets.wikimedia import (
    WikimediaBenchmark,
    WikimediaConfig,
    generate_benchmark,
)
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.engines.baseline import BaselineEngine
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.experiments import bounds_ablation as bounds
from repro.experiments import figure2 as fig2
from repro.experiments import figure3 as fig3
from repro.experiments import materialization, orientation, space, tuple_cost
from repro.experiments.report import format_table
from repro.experiments.violin import render_family_violins
from repro.ltj.engine import LTJEngine
from repro.ltj.ordering import FixedOrdering
from repro.query.model import ExtendedBGP, Var
from repro.query.parser import parse_query
from repro.utils.errors import ValidationError

Setup = tuple[WikimediaBenchmark, GraphDatabase, dict[str, list[ExtendedBGP]]]


def figure2_setup(data: WikimediaConfig, workload: WorkloadConfig) -> Setup:
    """Generate the benchmark, index it, and derive its workload."""
    bench = generate_benchmark(data)
    db = GraphDatabase(bench.graph, bench.knn_graph)
    return bench, db, generate_workload(bench, workload)


@dataclass(frozen=True)
class Claim:
    """One statement of the paper checked against this run."""

    id: str
    claim: str
    measured: str
    holds: bool


@dataclass
class Report:
    """Tables (results-file stem -> text) and claim rows of a run."""

    tables: dict[str, str]
    claims: list[Claim]

    @property
    def ok(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def claims_table(self) -> str:
        headers = ["id", "claim (with its threshold)", "measured", "holds"]
        rows = [
            [c.id, c.claim, c.measured, "yes" if c.holds else "NO"]
            for c in self.claims
        ]
        return format_table(headers, rows, title="Paper claims vs this run")

    def write(self, out: Path) -> int:
        """Write every table and ``claims.txt`` under ``out``; the count."""
        out.mkdir(parents=True, exist_ok=True)
        files = {**self.tables, "claims": self.claims_table()}
        for name, text in files.items():
            (out / f"{name}.txt").write_text(text + "\n")
        return len(files)


@dataclass
class Context:
    """What the experiments of one run share: the scale — by default the
    one recorded scale, where EXPERIMENTS.md's numbers come from — and
    the Figure-2 setup built on first use (E7 and E8 bring their own
    data)."""

    data: WikimediaConfig = WikimediaConfig(
        n_entities=600, n_images=250, n_misc_triples=4000, K=16, seed=7
    )
    workload: WorkloadConfig = WorkloadConfig(
        k=10, n_q1=4, n_q2=2, n_q3=4, n_q4=3, n_q5=4, seed=2
    )
    timeout: float = 15.0
    """Per-query budget in seconds (the paper uses 600 s at its scale)."""

    @functools.cached_property
    def setup(self) -> Setup:
        return figure2_setup(self.data, self.workload)


# Sec. 6.2's decisive engine per family: Ring-KNN-S on the simple Q1
# families (~60% faster; Ring-KNN's ~10-15% lead is within noise at this
# sample size), Ring-KNN on the densely constrained ones.
_FIGURE2_WINNERS = (
    ("E1", ("Q1", "Q1b"), "ring-knn-s"),
    ("E2", ("Q2", "Q2b", "Q2t"), "ring-knn"),
    ("E3", ("Q3",), "ring-knn"),
    ("E4", ("Q4",), "ring-knn"),
    ("E5", ("Q5",), "ring-knn"),
)


def _figure2(ctx: Context) -> Report:
    _bench, db, workload = ctx.setup
    engines = [BaselineEngine(db), RingKnnEngine(db), RingKnnSEngine(db)]
    results = fig2.run_figure2(db, workload, engines, timeout=ctx.timeout)
    claims = []
    for exp_id, families, engine in _FIGURE2_WINNERS:
        for family in families:
            series = results[family].series
            mean, base = series[engine].mean, series["baseline"].mean
            claims.append(Claim(
                exp_id, f"{family}: {engine} mean time <= 1.25 x baseline's",
                f"{mean:.4g} s vs {base:.4g} s", mean <= base * 1.25,
            ))
    q1 = results["Q1"].speedup("ring-knn")
    q5 = results["Q5"].speedup("ring-knn")
    claims.append(Claim(
        "E5", "the gap grows with connectivity: ring-knn speedup on Q5 >= on Q1",
        f"{q5:.2f}x vs {q1:.2f}x", q5 >= q1,
    ))
    # E9 reads the same run: where in the elimination order each Ring
    # engine first binds a similarity variable on the symmetric family.
    q1b = results["Q1b"].series
    s_pos = q1b["ring-knn-s"].mean_sim_bind_fraction
    knn_pos = q1b["ring-knn"].mean_sim_bind_fraction
    claims.append(Claim(
        "E9", "Q1b: ring-knn-s binds its first similarity variable no later "
        "than ring-knn", f"{s_pos} vs {knn_pos}",
        s_pos is not None and knn_pos is not None and s_pos <= knn_pos,
    ))
    tables = {
        "figure2": format_table(
            fig2.FIGURE2_HEADERS, fig2.figure2_rows(results),
            title="Figure 2: query time distribution per family (seconds)",
        ),
        "figure2_violins": render_family_violins(results),
        "bind_position": format_table(
            ["engine", "mean first-sim-bind position (fraction of vars)"],
            [["ring-knn-s", s_pos], ["ring-knn", knn_pos]],
            title="Sec 6.2 (Q1b): position of first similarity-variable binding",
        ),
    }
    return Report(tables, claims)


def _space(ctx: Context) -> Report:
    report = space.run_space_comparison(ctx.setup[1])
    table = format_table(
        space.SPACE_HEADERS, report.rows(),
        title="Sec 6.2: index space (Ring variants vs baseline vs raw)",
    )
    return Report({"space": table}, [
        Claim(
            "E6", "the baseline (plain-form K-NN) is larger than the Ring",
            f"{report.baseline_bytes} B vs {report.ring_bytes} B",
            report.baseline_bytes > report.ring_bytes,
        ),
        Claim(
            "E6", "Ring + succinct K-NN stays near the raw data: ring/raw < 1.5",
            f"{report.ring_vs_raw:.3f}", report.ring_vs_raw < 1.5,
        ),
    ])


def _materialization(_ctx: Context) -> Report:
    # A K-NN-heavy instance: many images, so the O(k n) extraction is
    # large next to selective query work.
    bench = generate_benchmark(WikimediaConfig(
        n_entities=800, n_images=2500, n_misc_triples=3000, K=24, seed=19
    ))
    db = GraphDatabase(bench.graph, bench.knn_graph)
    k = 20
    # Constant-anchored queries: cheap for the integrated engine.
    images = np.random.default_rng(3).choice(bench.image_ids, size=5, replace=False)
    queries = [
        parse_query(
            f"(?e, {bench.depicts}, {img}) . knn({img}, ?y, {k}) "
            f". (?e2, {bench.depicts}, ?y)"
        )
        for img in map(int, images)
    ]
    report = materialization.run_materialization_comparison(
        db, queries, timeout=120
    )
    table = format_table(
        materialization.MATERIALIZATION_HEADERS, report.rows(),
        title="Sec 3.2: materialize-then-join strawman vs integrated index "
        f"(k={k}, n={bench.knn_graph.num_members} members)",
    )
    return Report({"materialization": table}, [Claim(
        "E7", "materialization setup alone costs > 2 x an integrated query",
        f"{report.setup_vs_integrated:.2f}x", report.setup_vs_integrated > 2.0,
    )])


def _figure3(_ctx: Context) -> Report:
    # Scaled-down datasets (same class-size profile) so the O(n K)
    # reverse computations stay laptop-friendly; K scales accordingly.
    K = 40
    ks = list(range(5, K + 1, 5))
    lo, hi = ks[0], ks[-1]
    merged = Report({}, [])
    for name, maker, seed in (
        ("anuran", make_anuran_like, 10),
        ("drybean", make_drybean_like, 11),
    ):
        points, labels = maker(seed=seed, scale=0.12)
        rows = fig3.run_figure3(points, labels, K=K, ks=ks)
        merged.tables[f"figure3_{name}"] = format_table(
            fig3.FIGURE3_HEADERS, fig3.figure3_rows(rows),
            title=f"Figure 3 ({name}-like): average Precision@k",
        )
        p = {(r.strategy, r.k): r.precision for r in rows}
        size = {(r.strategy, r.k): r.avg_result_size for r in rows}
        # Each per-k shape is reported at its worst k: (text, excess, bound).
        per_k = (
            ("intersection returns <= k results at every k",
             max(size["intersection", k] - k for k in ks), 1e-9),
            ("union returns >= k results at every k",
             max(k - size["union", k] for k in ks), 1e-9),
            ("reverse precision <= kNN's + 0.03 at every k",
             max(p["reverse", k] - p["knn", k] for k in ks), 0.03),
            ("union precision <= kNN's + 0.03 at every k",
             max(p["union", k] - p["knn", k] for k in ks), 0.03),
        )
        merged.claims += [
            Claim(
                "E8", f"{name}: kNN precision decreases from k={lo} to k={hi}",
                f"{p['knn', lo]:.4f} -> {p['knn', hi]:.4f}",
                p["knn", lo] >= p["knn", hi],
            ),
            *(
                Claim("E8", f"{name}: {text}", f"worst excess {excess:+.4f}",
                      excess <= bound)
                for text, excess, bound in per_k
            ),
            Claim(
                "E8", f"{name}: intersection precision >= kNN's - 0.05 at k={hi}",
                f"{p['intersection', hi]:.4f} vs {p['knn', hi]:.4f}",
                p["intersection", hi] >= p["knn", hi] - 0.05,
            ),
        ]
    return merged


def _bounds(ctx: Context) -> Report:
    bench, db, workload = ctx.setup
    queries = workload["Q1"][:2] + workload["Q1b"][:2] + workload["Q3"][:2]
    rows = bounds.run_bounds_ablation(db, queries, timeout=ctx.timeout)

    # Sec. 4.2 on Q = (x,R,y), (y,S,z2), y <|_k z: binding the k-NN
    # target z first costs more eliminations than the topological order.
    dep, attr = bench.depicts, bench.predicates["attr"]
    query = parse_query(f"(?x, {dep}, ?y) . (?y, {attr}, ?z2) . knn(?y, ?z, 8)")
    x, y, z, z2 = Var("x"), Var("y"), Var("z"), Var("z2")

    def attempts(order: list[Var]) -> int:
        relations = RingKnnEngine(db).compile(query)
        ltj = LTJEngine(relations, ordering=FixedOrdering(order), timeout=60)
        ltj.evaluate()
        return ltj.stats.attempts

    good, bad = attempts([y, x, z2, z]), attempts([z, y, x, z2])
    tables = {
        "bounds": format_table(
            bounds.BOUNDS_HEADERS, bounds.bounds_rows(rows),
            title="E10: LP bound Q* vs AGM vs measured elimination attempts",
        ),
        "ordering_contrast": format_table(
            ["order", "elimination attempts"],
            [["topological (y,x,_,z)", good], ["target-first (z,...)", bad]],
            title="Sec 4.2: elimination work under good vs bad variable orders",
        ),
    }
    over_q_star = max(row.solutions - row.q_star for row in rows)
    over_agm = max(row.q_star - row.agm for row in rows)
    return Report(tables, [
        Claim(
            "E10", "the output never exceeds the LP bound Q* (every query)",
            f"worst excess {over_q_star:+.4g}", over_q_star <= 1e-6,
        ),
        Claim(
            "E10", "the degree-aware Q* is never looser than AGM (every query)",
            f"worst excess {over_agm:+.4g}", over_agm <= 1e-6,
        ),
        Claim(
            "E10", "binding the k-NN target first costs >= the topological "
            "order's attempts",
            f"{bad} vs {good}", bad >= good,
        ),
    ])


def _orientation(ctx: Context) -> Report:
    _bench, db, workload = ctx.setup
    report = orientation.run_orientation_comparison(
        db, workload["Q1b"] + workload["Q2b"], timeout=ctx.timeout
    )
    table = format_table(
        orientation.ORIENTATION_HEADERS, report.rows(),
        title="Sec 7: symmetric queries vs system-oriented (acyclic) "
        "rewrites — seconds and answer precision",
    )
    # Recall is 1.0 by construction, and the rewrite delivers a superset
    # of the answers, so time is compared per delivered tuple.
    directed, symmetric = report.directed_ms_per_tuple, report.symmetric_ms_per_tuple
    return Report({"orientation": table}, [
        Claim(
            "E11", "the directed rewrite's answers stay meaningful: precision > 0.2",
            f"{report.mean_precision:.3f}", report.mean_precision > 0.2,
        ),
        Claim(
            "E11", "the rewrite's ms/tuple <= 1.25 x the symmetric query's",
            f"{directed:.4g} vs {symmetric:.4g}", directed <= symmetric * 1.25,
        ),
    ])


def _tuple_cost(ctx: Context) -> Report:
    _bench, db, workload = ctx.setup
    engines = [RingKnnEngine(db), RingKnnSEngine(db)]
    report = tuple_cost.run_tuple_cost(
        db, workload["Q1"], workload["Q1b"], engines, timeout=ctx.timeout
    )
    table = format_table(
        tuple_cost.TUPLE_COST_HEADERS, report.table_rows(),
        title="Sec 7: cost per delivered tuple, x <|_k y vs x ~_k y",
    )
    return Report({"tuple_cost": table}, [
        Claim(
            "E13", f"{engine.name}: symmetric costs more per delivered tuple: "
            "Q1b/Q1 ms-per-tuple > 1",
            f"{report.ratio(engine.name):.2f}x", report.ratio(engine.name) > 1.0,
        )
        for engine in engines
    ])


EXPERIMENTS: dict[str, Callable[[Context], Report]] = {
    **dict.fromkeys(("E1", "E2", "E3", "E4", "E5", "E9"), _figure2),
    "E6": _space,
    "E7": _materialization,
    "E8": _figure3,
    "E10": _bounds,
    "E11": _orientation,
    "E13": _tuple_cost,
}


def run_experiments(
    only: Iterable[str] | None = None, ctx: Context | None = None
) -> Report:
    """Run the experiments named by ``only`` (default: all) over ``ctx``
    (default: the recorded scale).

    Ids that share a function (E1-E5, E9) run it once. Unknown ids raise
    :class:`~repro.utils.errors.ValidationError` before anything runs.
    """
    ids = list(EXPERIMENTS) if only is None else list(only)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ValidationError(
            f"unknown experiment ids {unknown}; choose from {list(EXPERIMENTS)}"
        )
    ctx = ctx or Context()
    merged = Report({}, [])
    for run in dict.fromkeys(EXPERIMENTS[i] for i in ids):
        report = run(ctx)
        merged.tables.update(report.tables)
        merged.claims += report.claims
    return merged
