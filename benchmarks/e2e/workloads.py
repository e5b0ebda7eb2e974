"""The five workloads.

Each drives the system the way a user does — ``AutoEngine.evaluate`` in
process, a real ``repro serve`` child over HTTP, ``GraphDatabase``
construction / ``repro.store`` / a fresh ``repro query`` process — and
checks every answer against the oracle's digest. Why each exists is
recorded in BENCHMARK.json and README.md.

Untraced runs produce the end-to-end metrics. Traced runs repeat the
operations with spans recorded here, around the calls into each layer's
public functions, and then probe the layers on the workload's own
structures (:func:`layer_metrics`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import data
import oracle
import probes
import server as http
from common import (
    HostSpeed,
    Report,
    alive,
    child_env,
    descendants,
    median,
    peak_rss_mb,
    percentile,
    quartiles,
    reset_own_peak_rss,
    shm_entries,
    typical,
)
from repro.cache import QueryCache, canonicalize
from repro.engines.auto import AutoEngine
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.obs import QueryTrace
from repro.parallel.scheduler import QueryScheduler
from repro.query.parser import parse_query
from repro.serve import protocol
from repro.store import save
from spans import Recorder, format_table, layer_table

TIMEOUT_S = http.REQUEST_TIMEOUT_S


@dataclass
class Context:
    workload: str
    seed: int
    shape_seed: int
    seconds: float
    traced: bool
    quick: bool
    workdir: Path
    outdir: Path
    host: HostSpeed = field(default_factory=HostSpeed)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    @property
    def setups(self) -> int:
        """Builds per run (``setup_s`` is their median): the query graph
        builds and saves in ~9 ms, a third of it one ``fsync`` whose
        latency comes in two sizes, so it needs more repeats than the
        0.4 s cold graph."""
        if self.quick:
            return 1
        return 5 if self.workload == "cold-start" else 15

    def graph(self, name: str) -> data.Graph:
        return data.make_graph(f"quick-{name}" if self.quick else name,
                               self.seed, self.shape_seed)

    @property
    def pool(self) -> dict[str, int]:
        return data.QUICK_POOL if self.quick else data.POOL

    def spec(self, name: str) -> dict:
        """Selection quota ``name``; ``--quick`` overrides only counts
        and solution floors (the tiny graphs have no 5,000-solution
        queries)."""
        return SPECS[name] | (QUICK_SPECS[name] if self.quick else {})


@dataclass
class Item:
    """One distinct query of a workload."""

    candidate: data.Candidate
    text: str

    def check(self, solutions, timed_out: bool,
              rename: dict[str, str] | None = None) -> bool:
        names = self.candidate.names
        keys = [rename[n] for n in names] if rename else names
        if timed_out or (solutions and len(solutions[0]) != len(keys)):
            return False
        try:
            return oracle.digest_solutions(solutions, keys) == self.candidate.digest
        except KeyError:
            return False


def _items(candidates: list[data.Candidate]) -> list[Item]:
    return [Item(c, data.to_text(c.query)) for c in candidates]


def _describe(report: Report, ctx: Context, g: data.Graph, items: list[Item],
              bands: str) -> float:
    """Record what the workload consists of, and hold the oracle against
    the repo's naive oracle where that is affordable. Returns the
    seconds the cross-check took (harness time)."""
    families: dict[str, int] = {}
    for item in items:
        families[item.candidate.family] = families.get(item.candidate.family, 0) + 1
    scale = data.SCALES[g.scale]
    started = perf_counter()
    checked = data.cross_check(g, [item.candidate for item in items])
    elapsed = perf_counter() - started
    report.notes.append(
        f"graph {g.scale}: {scale['n_entities']} entities, {scale['n_images']} "
        f"images, {scale['n_misc_triples']} misc triples, K={scale['K']} -> "
        f"{g.graph.num_edges} triples + {g.edges - g.graph.num_edges} arcs; "
        f"clause k={ctx.pool['k']}; shape seed {g.shape_seed}"
    )
    report.notes.append(
        "queries: " + ", ".join(f"{f}={n}" for f, n in families.items())
        + f" ({bands}); solutions "
        + "/".join(str(i.candidate.solutions) for i in items[:12])
        + ("/..." if len(items) > 12 else "")
        + f"; oracle agrees with repro.graph.naive on {checked} of them"
    )
    return elapsed


# ----------------------------------------------------------------------
# in-process operations, plain and traced
# ----------------------------------------------------------------------
def plain_op(engine: AutoEngine, text: str):
    """What an embedding application does with a query text."""
    started = perf_counter()
    query = parse_query(text)
    parsed = perf_counter()
    result = engine.evaluate(query, timeout=TIMEOUT_S)
    return parsed - started, perf_counter() - parsed, result


def traced_op(rec: Recorder, request: str, root_name: str, engine: AutoEngine,
              drivers: dict, text: str, parent: int | None = None):
    """The same operation with a span at each layer boundary.

    ``engines.select`` and ``engines.compile`` are called once more on
    their own so they can be timed from outside (``evaluate`` repeats
    them inside); that extra work is part of the tracing overhead.
    """
    with rec.span(request, root_name, parent) as root:
        with rec.span(request, "query.parse", root["id"]):
            query = parse_query(text)
        with rec.span(request, "engines.select", root["id"]):
            selected = engine.select(query)
        with rec.span(request, "engines.compile", root["id"]):
            drivers[selected].compile(query)
        trace = QueryTrace()
        with rec.span(request, "engines.evaluate", root["id"]) as span:
            result = engine.evaluate(query, timeout=TIMEOUT_S, trace=trace)
            wavelets = {k: v.as_dict() for k, v in trace.wavelets.items()}
            span["attrs"].update(
                engine=result.engine, solutions=len(result.solutions),
                stats=dict(trace.stats), wavelets=wavelets,
            )
    return root, query, result, wavelets


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _drivers(db) -> dict:
    """The two serial strategies ``AutoEngine`` selects between, by name."""
    return {e.name: e for e in (RingKnnEngine(db), RingKnnSEngine(db))}


OPS = ("rank", "select", "access", "range_next", "range_count", "quantile")


def paired_pass(rec: Recorder, db, items: list[Item], rng: np.random.Generator,
                budget_s: float, root_name: str, report: Report):
    """Plain and traced operations, interleaved per query in alternating
    order, for whole rounds until ``budget_s`` is spent (at least one).

    Returns the query-driven metrics, the wavelet-tree operation counts,
    and per query the last traced ``(root span, query, result)``.
    """
    engine = AutoEngine(db)
    drivers = _drivers(db)
    n = len(items)
    parse = [[] for _ in range(n)]
    evaluate = [[] for _ in range(n)]
    ratios: list[float] = []
    plain_total = traced_total = 0.0
    last: dict[int, tuple] = {}
    began = perf_counter()
    rounds = 0
    while True:
        for position, i in enumerate(rng.permutation(n)):
            i = int(i)
            request = f"{root_name}-{rounds}-{i}"
            for traced in ((False, True) if (position + rounds) % 2 else (True, False)):
                if traced:
                    root, query, result, wavelets = traced_op(
                        rec, request, root_name, engine, drivers, items[i].text)
                    traced_wall = _duration(root)
                    last[i] = (root, query, result, wavelets)
                else:
                    p, e, result = plain_op(engine, items[i].text)
                    parse[i].append(p)
                    evaluate[i].append(e)
                    plain_wall = p + e
                report.attempted += 1
                report.failed += not items[i].check(result.solutions, result.timed_out)
            ratios.append(traced_wall / plain_wall)
            plain_total += plain_wall
            traced_total += traced_wall
        rounds += 1
        if perf_counter() - began >= budget_s:
            break

    # One traced evaluation per distinct query gives exact counts.
    stats = {k: 0 for k in ("leap_calls", "attempts", "bindings", "solutions")}
    ops = {k: 0 for k in OPS}
    child = {(s["parent"], s["name"]): s for s in rec.spans}
    compile_s = select_s = 0.0
    for root, _query, result, wavelets in last.values():
        for key in stats:
            stats[key] += int(getattr(result.stats, key))
        for counters in wavelets.values():
            for key in OPS:
                ops[key] += counters[key]
        compile_s += _duration(child[root["id"], "engines.compile"])
        select_s += _duration(child[root["id"], "engines.select"])
    evaluate_s = sum(median(samples) for samples in evaluate)
    search_s = evaluate_s - compile_s
    solutions = max(1, stats["solutions"])
    q1, q2, q3 = quartiles(ratios)
    report.notes.append(
        f"trace overhead: {len(ratios)} plain/traced pairs over {rounds} "
        f"round(s), per-pair ratio quartiles [{q1:.3f}, {q2:.3f}, {q3:.3f}]"
    )
    metrics = {
        "ltj.leap_calls": float(stats["leap_calls"]),
        "ltj.attempts": float(stats["attempts"]),
        "ltj.bindings": float(stats["bindings"]),
        "ltj.solutions": float(stats["solutions"]),
        "ltj.attempts_per_solution": stats["attempts"] / solutions,
        "ltj.search_s": search_s,
        "ltj.us_per_leap_call": search_s / max(1, stats["leap_calls"]) * 1e6,
        "ltj.us_per_solution": search_s / solutions * 1e6,
        "engines.select_us": select_s / n * 1e6,
        "engines.compile_ms": compile_s / n * 1e3,
        "engines.evaluate_s": evaluate_s,
        "query.parse_us": sum(median(s) for s in parse) / n * 1e6,
        "succinct.wt_ops": float(sum(ops.values())),
        "succinct.wt_ops_per_solution": sum(ops.values()) / solutions,
        "obs.trace_overhead_ratio": traced_total / plain_total,
    }
    return metrics, ops, last


def served_layers(rec: Recorder, db, items: list[Item], last: dict[int, tuple],
                  report: Report) -> dict[str, float]:
    """The layers a query crosses only when served — request parsing,
    the cache, response encoding, the scheduler's classifier — timed on
    the results :func:`paired_pass` just produced, each as a span under
    a ``layers`` root of the same request. Means over the queries."""
    engine = AutoEngine(db)
    cache = QueryCache()
    scheduler = QueryScheduler(db, workers=1)
    sums: dict[str, float] = {}
    solutions = 0
    for i, (root, query, result, _wavelets) in last.items():
        request = root["request"]
        solutions += len(result.solutions)
        body = json.dumps({"query": items[i].text, "timeout": TIMEOUT_S}).encode()
        calls = [  # (span name, call, repeats): order matters for the cache
            ("serve.parse_request", lambda: protocol.parse_query_request(body), 3),
            ("cache.canonicalize", lambda: canonicalize(query), 3),
            ("parallel.classify", lambda: scheduler.classify(query), 3),
            ("engines.first_solution",
             lambda: engine.evaluate(query, timeout=TIMEOUT_S, limit=1), 1),
            ("cache.probe_miss",
             lambda: cache.probe(db, query, engine=result.engine), 1),
            ("cache.fill",
             lambda: cache.fill(db, query, result, engine=result.engine), 1),
            ("cache.probe_hit",
             lambda: cache.probe(db, query, engine=result.engine), 3),
            ("serve.encode",
             lambda: json.dumps(protocol.encode_solutions(result.solutions)), 3),
        ]
        with rec.span(request, "layers") as top:
            for name, call, repeats in calls:
                samples = []
                for _ in range(repeats):
                    with rec.span(request, name, top["id"]) as span:
                        call()
                    samples.append(_duration(span))
                sums[name] = sums.get(name, 0.0) + median(samples)
    held = cache.stats()
    report.notes.append(
        f"private cache after one fill per query: {held['entries']} entries, "
        f"{held['bytes']} bytes, {held['inadmissible']} inadmissible"
    )
    n = len(last)
    return {
        "engines.first_solution_ms": sums["engines.first_solution"] / n * 1e3,
        "parallel.classify_us": sums["parallel.classify"] / n * 1e6,
        "cache.canonicalize_us": sums["cache.canonicalize"] / n * 1e6,
        "cache.probe_miss_us": sums["cache.probe_miss"] / n * 1e6,
        "cache.fill_us": sums["cache.fill"] / n * 1e6,
        "cache.probe_hit_us": sums["cache.probe_hit"] / n * 1e6,
        "serve.parse_request_us": sums["serve.parse_request"] / n * 1e6,
        "serve.encode_us_per_solution": sums["serve.encode"] / max(1, solutions) * 1e6,
    }


def layer_metrics(ctx: Context, report: Report, rec: Recorder, db, g: data.Graph,
                  items: list[Item], budget_s: float, root_name: str,
                  reference_s: float) -> None:
    """Fill ``report.per_layer``: the query passes plus the structure probes."""
    metrics, ops, last = paired_pass(
        rec, db, items, ctx.rng(5), budget_s, root_name, report)
    metrics.update(served_layers(rec, db, items, last, report))
    metrics.update(probes.kernels(db, g, ctx.rng(6)))
    metrics.update(probes.builds(db, g))
    metrics.update(probes.store(db, ctx.workdir))
    metrics["serve.import_s"] = probes.import_seconds(ctx.workdir)
    # Descents the traced evaluations made, priced at the probed cost of
    # one descent of that kind (range_count and quantile at the price of
    # range_next_value: all three are one top-down walk).
    priced = (
        ops["rank"] * metrics["succinct.wt_rank_ns"]
        + ops["select"] * metrics["succinct.wt_select_ns"]
        + ops["access"] * metrics["succinct.wt_access_ns"]
        + (ops["range_next"] + ops["range_count"] + ops["quantile"])
        * metrics["succinct.wt_range_next_value_ns"]
    )
    metrics["succinct.est_share"] = priced * 1e-9 / metrics["engines.evaluate_s"]
    metrics["harness.generate_s"] = g.generate_s
    metrics["harness.reference_s"] = reference_s
    report.per_layer.update(metrics)


def _finish_trace(ctx: Context, report: Report, rec: Recorder,
                  tables: list[tuple[str, str]]) -> None:
    path = ctx.outdir / f"spans-{ctx.workload}.jsonl"
    rec.write(path)
    report.notes.append(
        f"{len(rec.spans)} spans written to {os.path.relpath(path)}")
    for root_name, title in tables:
        report.notes.extend(format_table(layer_table(rec.spans, root_name), title))


def _harness_extras(g: data.Graph, reference_s: float, cpu: "CpuMeter") -> dict:
    """What the harness, not the system, spent (printed with every run)."""
    return {
        "harness.generate_s": (g.generate_s, "s"),
        "harness.reference_s": (reference_s, "s"),
        "harness.client_cpu_frac": (cpu.frac, "1"),
    }


class CpuMeter:
    """Share of one core this process used over a section, the host-speed
    samples taken inside it left out (they are all CPU and no load)."""

    def __init__(self, host: HostSpeed) -> None:
        self._host = host

    def __enter__(self) -> "CpuMeter":
        self._cpu, self._wall = time.process_time(), perf_counter()
        self._marks = self._host.spent_s
        return self

    def __exit__(self, *exc) -> None:
        marks = self._host.spent_s - self._marks
        wall = perf_counter() - self._wall - marks
        self.frac = (time.process_time() - self._cpu - marks) / wall if wall > 0 else 0.0


def _build_and_save(g: data.Graph, index: Path) -> tuple[GraphDatabase, float, float, int]:
    """The system's set-up from raw tables to an index file on disk."""
    started = perf_counter()
    db = GraphDatabase(g.graph, g.knn)
    built = perf_counter()
    nbytes = save(db, str(index))
    return db, built - started, perf_counter() - built, nbytes


# ----------------------------------------------------------------------
# join-search, join-output: AutoEngine in process
# ----------------------------------------------------------------------
SPECS = {
    "join-search": dict(families=("Q2", "Q2b", "Q2t"), lo=1, hi=200, per_family=2),
    "join-output": dict(families=("Q1", "Q1b", "Q3", "Q5"), lo=5000, hi=100000, total=8),
    # serve-*: the 40 distinct short queries, and serve-repeat's large replays
    "selective": dict(families=("Q1", "Q1b", "Q3", "Q4", "Q5"), lo=1, hi=2000, total=40),
    "large": dict(families=("Q1", "Q1b", "Q3", "Q5"), lo=5000, hi=30000, total=4),
}
QUICK_SPECS = {
    "join-search": dict(per_family=1),
    "join-output": dict(lo=100, total=3),
    "selective": dict(total=5),
    "large": dict(lo=100, total=1),
}


def run_join(ctx: Context) -> Report:
    report = Report(ctx.workload, ctx.seed, ctx.traced)
    spec = ctx.spec(ctx.workload)
    g = ctx.graph("query")
    pool = data.Pool(g, ctx.pool)
    items = _items(data.select(pool, **spec))
    pool.reference_s += _describe(
        report, ctx, g, items, f"{spec['lo']}..{spec['hi']} solutions")

    # In process the system's set-up is the index build alone; the one
    # save below only sizes the index (it is not timed: a third of a
    # 9 ms build+save was one fsync whose latency comes in two sizes).
    host = ctx.host
    host.mark()
    setups = []
    for _ in range(ctx.setups):
        started = perf_counter()
        db = GraphDatabase(g.graph, g.knn)
        elapsed = perf_counter() - started
        setups.append(elapsed * host.mark())
    index = ctx.workdir / "join.idx"
    nbytes = save(db, str(index))
    index.unlink()
    engine = AutoEngine(db)
    rss_reset = reset_own_peak_rss()
    for item in items:  # lazy per-structure caches, not the answers
        engine.evaluate(parse_query(item.text), timeout=TIMEOUT_S, limit=1)

    if ctx.traced:
        rec = Recorder()
        with CpuMeter(ctx.host) as cpu:
            layer_metrics(ctx, report, rec, db, g, items, ctx.seconds * 0.4,
                          "op", pool.reference_s)
        report.per_layer["harness.client_cpu_frac"] = cpu.frac
        _finish_trace(ctx, report, rec, [("op", "in-process operation")])
        return report

    rng = ctx.rng(2)
    rounds: list[float] = []
    samples: list[list[float]] = [[] for _ in items]
    began = perf_counter()
    with CpuMeter(ctx.host) as cpu:
        while True:
            wall = 0.0
            host.mark()
            for i in rng.permutation(len(items)):
                item = items[int(i)]
                parse_s, evaluate_s, result = plain_op(engine, item.text)
                elapsed = (parse_s + evaluate_s) * host.mark()
                report.attempted += 1
                report.failed += not item.check(result.solutions, result.timed_out)
                wall += elapsed
                samples[int(i)].append(elapsed)
            rounds.append(len(items) / wall)
            if ctx.quick or perf_counter() - began >= ctx.seconds:
                break
    # All three from the per-query lower quartiles (common.typical). With
    # 6-8 distinct queries p95 sits just under the slowest one's time.
    throughput, p50, p95 = typical(samples)
    slow = max(range(len(items)), key=lambda i: median(samples[i]))
    q1, q2, q3 = quartiles(rounds)
    report.notes.append(
        f"{len(rounds)} rounds of {len(items)} queries, so {len(rounds)} samples "
        f"a query; throughput, p50 and p95 are of one round with every query "
        f"at the lower quartile of its samples; rounds as they ran: quartiles [{q1:.3f}, {q2:.3f}, "
        f"{q3:.3f}] 1/s; slowest query {median(samples[slow]) * 1e3:.1f} ms "
        f"({items[slow].candidate.family} with "
        f"{items[slow].candidate.solutions} solutions); peak RSS "
        f"{'restarted after input generation' if rss_reset else 'includes input generation'}"
    )
    report.end_to_end = {
        "setup_s": median(setups),
        "throughput_qps": throughput,
        "latency_p50_ms": p50 * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
        "index_bytes_per_edge": nbytes / g.edges,
    }
    report.extras = _harness_extras(g, pool.reference_s, cpu)
    return report


# ----------------------------------------------------------------------
# serve-mixed, serve-repeat: a real server over HTTP
# ----------------------------------------------------------------------
ZIPF_EXPONENT = 1.1
REPEAT_PASS = 200


def _zipf_counts(n: int) -> np.ndarray:
    """Requests per popularity rank in one serve-repeat pass: exactly
    Zipf(1.1) over the ``n`` ranks (largest-remainder apportionment of
    REPEAT_PASS), so every pass at every seed carries the same mix."""
    weights = np.arange(1, n + 1, dtype=float) ** -ZIPF_EXPONENT
    shares = weights / weights.sum() * REPEAT_PASS
    counts = np.floor(shares).astype(int)
    remainder = np.argsort(-(shares - counts), kind="stable")
    counts[remainder[: REPEAT_PASS - counts.sum()]] += 1
    return counts


def _zipf_pass(counts: np.ndarray, large: set[int],
               rng: np.random.Generator) -> np.ndarray:
    """One pass in seeded order. The large replays arrive at a steady
    rate — evenly spaced through the pass, which of them where drawn by
    the seed — because the latency tail otherwise depends on how often
    two of them collide, which is the order's doing, not the program's
    (summed large-replay latency of identical passes: 1.43-1.68 s in
    random order, 1.31-1.40 s evenly spaced)."""
    requests = np.repeat(np.arange(len(counts)), counts)
    is_large = np.isin(requests, list(large))
    small = rng.permutation(requests[~is_large])
    big = rng.permutation(requests[is_large])
    if not len(big):
        return small
    gap = len(requests) / len(big)
    slots = (rng.uniform(0, gap) + gap * np.arange(len(big))).astype(int)
    order = np.empty(len(requests), dtype=int)
    order[slots] = big
    order[np.setdiff1d(np.arange(len(requests)), slots)] = small
    return order


def _spans_of(rec: Recorder, exchange: http.Exchange, request: str) -> None:
    """Client-side spans of one HTTP exchange, from its timestamps."""
    body = exchange.body or {}
    begin = exchange.connect[0] if exchange.connect else exchange.start
    root = rec.add(
        request, "op", None, begin, exchange.end, status=exchange.status,
        bytes=exchange.nbytes, route=body.get("route"), cached=body.get("cached"),
        elapsed=body.get("elapsed"), stats=body.get("stats"))["id"]
    if exchange.connect:
        rec.add(request, "client.connect", root, *exchange.connect)
    rec.add(request, "client.send", root, exchange.start, exchange.sent)
    wait = rec.add(request, "client.wait", root, exchange.sent, exchange.headers)["id"]
    elapsed = min(float(body.get("elapsed") or 0.0), exchange.headers - exchange.sent)
    # The server's own report of evaluation (or cache replay) time,
    # placed at the end of the wait: what remains of the wait is the
    # serve layer's parsing, admission, batching, IPC and encoding.
    rec.add(request, "server.elapsed", wait, exchange.headers - elapsed,
            exchange.headers)
    rec.add(request, "client.read", root, exchange.headers, exchange.read)
    rec.add(request, "client.decode", root, exchange.read, exchange.end)


def run_serve(ctx: Context) -> Report:
    report = Report(ctx.workload, ctx.seed, ctx.traced)
    repeat = ctx.workload == "serve-repeat"
    g = ctx.graph("query")
    pool = data.Pool(g, ctx.pool)
    selective = data.select(pool, **ctx.spec("selective"))
    large = data.select(pool, **ctx.spec("large")) if repeat else []
    # Popularity rank is a property of the workload, not of the seed:
    # every eighth rank is a large result, the rest are selective ones
    # in selection order. The seed draws from that fixed distribution.
    ranked = list(selective)
    for slot, candidate in enumerate(large):
        ranked.insert(min(len(ranked), 4 + slot * 8), candidate)
    items = _items(ranked)
    large_ranks = {i for i, c in enumerate(ranked) if any(c is x for x in large)}
    pool.reference_s += _describe(
        report, ctx, g, items,
        "1..2000 solutions" + (", large 5000..30000" if repeat else ""))

    shm_before = shm_entries()
    index = ctx.workdir / "serve.idx"
    setups, boots = [], []
    srv = None
    ctx.host.mark()
    for attempt in range(ctx.setups if ctx.quick else 3):
        if srv is not None:
            report.problems.extend(srv.stop())
        _db, build_s, save_s, nbytes = _build_and_save(g, index)
        srv = http.Server(index, ctx.workdir, cache=repeat)
        boot_s = srv.start()
        factor = ctx.host.mark()
        boots.append(boot_s * factor)
        setups.append((build_s + save_s + boot_s) * factor)
    del _db
    assert srv is not None
    try:
        return _drive_server(ctx, report, srv, g, pool, items, large_ranks, index,
                             nbytes, median(setups), median(boots))
    finally:
        report.problems.extend(srv.stop())
        left = shm_entries() - shm_before
        if left:
            report.problems.append(f"/dev/shm entries outlived the server: {sorted(left)}")
        index.unlink(missing_ok=True)


def _drive_server(ctx, report, srv, g, pool, items, large_ranks, index, nbytes,
                  setup_s, boot_s) -> Report:
    repeat = ctx.workload == "serve-repeat"
    health = srv.get("/healthz")
    if bool(health.get("cache")) != repeat:
        report.problems.append(f"server reports cache={health.get('cache')}")
    client = http.Client(srv.port)
    rng = ctx.rng(3)
    n = len(items)
    zipf_counts = _zipf_counts(n)
    exchanges: list[http.Exchange] = []

    def check(exchange: http.Exchange) -> None:
        body = exchange.body or {}
        ok = (exchange.status == 200 and body.get("status") == "ok"
              and items[exchange.index].check(
                  body.get("solutions", []), bool(body.get("timed_out")),
                  exchange.rename))
        report.attempted += 1
        report.failed += not ok
        # Keep the envelope, not the rows: thousands of retained answers
        # made this process's collector, and so the client, ever slower.
        body.pop("solutions", None)

    def requests_for(indices) -> list[tuple[bytes, http.Exchange]]:
        out = []
        for i in indices:
            i = int(i)
            rename = data.renaming(items[i].candidate.query, rng) if repeat else None
            text = data.to_text(items[i].candidate.query, rename) if repeat else items[i].text
            payload = json.dumps({"query": text, "timeout": TIMEOUT_S}).encode()
            out.append((payload, http.Exchange(i, rename)))
        return out

    # Every distinct query once: for serve-repeat this fills the cache
    # and is part of the system's set-up; for serve-mixed it only lets
    # lazy structures and the scheduler's cost model settle.
    first_pass_s = sum(http.run_pass(client, requests_for(range(n)), check, ctx.host))
    if repeat:
        setup_s += first_pass_s

    before = srv.metrics()
    passes: list[float] = []
    trips: list[float] = []
    samples: list[list[float]] = [[] for _ in items]
    budget = ctx.seconds * (0.4 if ctx.traced else 1.0)
    began = perf_counter()
    with CpuMeter(ctx.host) as cpu:
        while True:
            indices = (_zipf_pass(zipf_counts, large_ranks, rng) if repeat
                       else rng.permutation(n))
            batch = requests_for(indices)
            took = http.run_pass(client, batch, check, ctx.host)
            passes.append(len(batch) / sum(took))
            trips.extend(took)
            for i, trip in zip(indices, took):
                samples[int(i)].append(trip)
            exchanges.extend(e for _p, e in batch)
            if ctx.quick or perf_counter() - began >= budget:
                break
    after = srv.metrics()
    client.close()

    overhead = [
        (e.end - e.start) - float(e.body["elapsed"])
        for e in exchanges if e.status == 200 and e.body
    ]
    shed = after["queries"]["shed"] - before["queries"]["shed"]
    q1, q2, q3 = quartiles(passes)
    slow = max(exchanges, key=lambda e: e.end - e.start)
    if repeat:
        # Every request is a fresh renaming drawn from a fixed popularity
        # mix, and there are over a thousand of them: pool them.
        throughput = median(passes)
        p50, p95 = percentile(trips, 50), percentile(trips, 95)
        how = (f"throughput is the median pass, p50 and p95 are over the "
               f"{len(trips)} round trips of all passes pooled")
    else:
        throughput, p50, p95 = typical(samples)
        how = (f"throughput, p50 and p95 are of one pass with each of the {n} "
               f"queries at the lower quartile of its {len(passes)} round trips")
    report.notes.append(
        f"closed loop, one client on one keep-alive connection, waiting for "
        f"each reply; {len(passes)} passes of {len(exchanges) // len(passes)} "
        f"requests; requests per second of round-trip time, pass by pass: "
        f"quartiles [{q1:.2f}, {q2:.2f}, {q3:.2f}] 1/s; {how}; slowest single request "
        f"{(slow.end - slow.start) * 1e3:.1f} ms "
        f"({items[slow.index].candidate.family} with "
        f"{items[slow.index].candidate.solutions} solutions); first pass over "
        f"the {n} distinct queries {first_pass_s:.2f} s"
    )
    report.extras = {
        "serve.boot_s": (boot_s, "s"),
        "serve.overhead_ms": (median(overhead) * 1e3, "ms"),
        "serve.response_bytes": (float(np.mean([e.nbytes for e in exchanges])), "B"),
        "serve.shed": (float(shed), "count"),
        **_harness_extras(g, pool.reference_s, cpu),
    }
    if shed:
        report.problems.append(f"server shed {shed} requests")
    if repeat:
        c0, c1 = before["cache"], after["cache"]
        hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
        hit_rate = hits / max(1, hits + misses)
        report.extras.update({
            "cache.hit_rate": (hit_rate, "1"),
            "cache.bytes": (float(c1["bytes"]), "B"),
            "cache.evictions": (float(c1["evictions"]), "count"),
            "cache.inadmissible": (float(c1["inadmissible"]), "count"),
        })
        report.notes.append(
            f"cache holds {c1['entries']} entries, {c1['bytes']} of "
            f"{c1['max_bytes']} bytes; timed window {hits} hits, {misses} misses"
        )
        if hit_rate < 0.95:
            report.problems.append(f"cache hit rate {hit_rate:.3f} < 0.95")
    elif "cache" in after:
        report.problems.append("--no-cache server exposes cache counters")

    rss = srv.peak_rss_mb()
    if not ctx.traced:
        report.end_to_end = {
            "setup_s": setup_s,
            "throughput_qps": throughput,
            "latency_p50_ms": p50 * 1e3,
            "latency_p95_ms": p95 * 1e3,
            "peak_rss_mb": rss,
            "index_bytes_per_edge": nbytes / g.edges,
        }
        return report

    rec = Recorder()
    for number, exchange in enumerate(exchanges):
        _spans_of(rec, exchange, f"http-{number}")
    # The same requests through the same layers in this process, on a
    # database attached from the same index file: every fourth distinct
    # query (selection deals families round-robin, so all are covered).
    db = GraphDatabase.from_index(str(index))
    try:
        subset = items[::4] if len(items) > 8 else items
        layer_metrics(ctx, report, rec, db, g, subset, 0.0, "replay",
                      pool.reference_s)
        if not repeat and not ctx.quick:
            _batch_overhead(report, db, subset)
    finally:
        db.close()
    report.per_layer["harness.client_cpu_frac"] = cpu.frac
    _finish_trace(ctx, report, rec, [
        ("op", "HTTP exchange seen from the client"),
        ("replay", "the same queries replayed in process"),
    ])
    return report


def _batch_overhead(report: Report, db, items: list[Item]) -> None:
    """parallel.*: the batched scheduler against a serial loop."""
    queries = [parse_query(item.text) for item in items]
    engine = AutoEngine(db)
    started = perf_counter()
    for query in queries:
        engine.evaluate(query, timeout=TIMEOUT_S)
    serial_s = perf_counter() - started
    scheduler = QueryScheduler(db, workers=2)
    try:
        started = perf_counter()
        scheduler.warmup()
        warmup_s = perf_counter() - started
        scheduler.run_batch(queries, timeout=TIMEOUT_S)  # settle the cost model
        started = perf_counter()
        results = scheduler.run_batch(queries, timeout=TIMEOUT_S)
        batch_s = perf_counter() - started
    finally:
        scheduler.close()
    for item, result in zip(items, results):
        report.attempted += 1
        report.failed += not item.check(result.solutions, result.timed_out)
    report.extras["parallel.warmup_s"] = (warmup_s, "s")
    report.extras["parallel.batch_overhead_ratio"] = (batch_s / serial_s, "1")


# ----------------------------------------------------------------------
# cold-start: build, save, attach, first answer, fresh CLI process
# ----------------------------------------------------------------------
LOOKUPS = 40


def _lookups(g: data.Graph, rng: np.random.Generator, k: int) -> list[Item]:
    """``(E, depicts, ?img) . knn(?img, ?y, k)`` for ``LOOKUPS`` entities.

    Their answer sizes are those at evenly spaced ranks of the graph's
    own images-per-entity distribution (most entities have one image, a
    few have tens), smallest first; the seed draws which entity of a
    size. So every seed asks for the same amounts of work, and a
    percentile across the lookups says something about the program
    (across repeats of one lookup it would measure the host's bursts).
    """
    depicts = int(g.perm[g.shape.depicts])
    spo = g.graph.spo
    subjects, images = np.unique(spo[spo[:, 1] == depicts][:, 0], return_counts=True)
    ranks = ((np.arange(LOOKUPS) + 0.5) / LOOKUPS * len(images)).astype(int)
    items = []
    for size, count in zip(*np.unique(np.sort(images)[ranks], return_counts=True)):
        for entity in rng.choice(subjects[images == size], size=count, replace=False):
            query = parse_query(f"({int(entity)}, {depicts}, ?img) . knn(?img, ?y, {k})")
            solutions, digest = oracle.reference(query, spo, g.knn)
            items.append(Item(data.Candidate("lookup", query, solutions, digest),
                              data.to_text(query)))
    return items


#: ``python -m repro.cli`` with one addition: before the interpreter
#: exits it reports its own ``VmHWM`` on stderr. Only the child can say
#: how much memory it used: ``wait4``'s ``ru_maxrss`` also carries the
#: high-water mark of the process that started it across ``exec``
#: (measured: 410 MB for ``python -c pass`` under a 400 MB parent), and
#: this harness, holding the cold graph, is far larger than the child.
CLI_MAIN = """\
import runpy, sys
try:
    runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stdout.flush()
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(l for l in status if l.startswith("VmHWM:")))
"""


def _cli_query(ctx: Context, index: Path, item: Item):
    """One fresh ``repro query --from-index`` process: wall, the child's
    own peak RSS in MB, whether its answer was right, start time."""
    argv = [sys.executable, "-c", CLI_MAIN, "query", "--from-index", str(index),
            "--query", item.text, "--engine", "auto", "--print-limit", "1000000"]
    started = perf_counter()
    done = subprocess.run(argv, env=child_env(ctx.workdir), capture_output=True,
                          text=True, timeout=120)
    wall = perf_counter() - started
    hwm = [line for line in done.stderr.splitlines() if line.startswith("VmHWM:")]
    if not hwm:
        raise RuntimeError(f"CLI child reported no VmHWM: {done.stderr[-500:]!r}")
    solutions = [
        {pair.split("=")[0].strip().lstrip("?"): int(pair.split("=")[1])
         for pair in line.split(",")}
        for line in done.stdout.splitlines() if line.startswith("  ?")
    ]
    ok = done.returncode == 0 and item.check(solutions, "TIMED OUT" in done.stdout)
    return wall, int(hwm[-1].split()[1]) / 1024.0, ok, started


def run_cold(ctx: Context) -> Report:
    report = Report(ctx.workload, ctx.seed, ctx.traced)
    g = ctx.graph("cold")
    started = perf_counter()
    rng = ctx.rng(4)
    items = _lookups(g, rng, ctx.pool["k"])
    item = items[0]  # the fresh CLI processes ask for the smallest answer
    reference_s = perf_counter() - started
    reference_s += _describe(report, ctx, g, items, "point lookups")

    index = ctx.workdir / "cold.idx"
    host = ctx.host
    host.mark()
    setups, build_times = [], []
    for _ in range(ctx.setups):
        db, build_s, save_s, nbytes = _build_and_save(g, index)
        factor = host.mark()
        setups.append((build_s + save_s) * factor)
        build_times.append(build_s * factor)
    del db
    rec = Recorder() if ctx.traced else None

    # One untimed process and one untimed attach: "cold" means a fresh
    # process and a fresh mapping, not an interpreter the page cache has
    # not seen yet or memory the host has not backed yet.
    _cli_query(ctx, index, item)
    db = GraphDatabase.from_index(str(index))
    plain_op(AutoEngine(db), item.text)
    db.close()

    cli_walls, cli_rss = [], []
    samples: list[list[float]] = [[] for _ in items]
    budget = ctx.seconds * (0.4 if ctx.traced else 1.0)
    began = perf_counter()
    rounds = 0
    with CpuMeter(ctx.host) as cpu:
        while True:
            host.mark()
            wall, rss, ok, t0 = _cli_query(ctx, index, item)
            report.attempted += 1
            report.failed += not ok
            cli_walls.append(wall * host.mark())
            cli_rss.append(rss)
            if rec is not None:
                root = rec.add(f"cli-{rounds}", "op", None, t0, t0 + wall, kind="cli")
                rec.add(f"cli-{rounds}", "cli.process", root["id"], t0, t0 + wall)
            order = [int(i) for i in rng.permutation(len(items))]
            cycles = []
            for i in order:
                lookup = items[i]
                request = f"cycle-{rounds}-{i}"
                if rec is None:
                    t0 = perf_counter()
                    db = GraphDatabase.from_index(str(index))
                    _p, _e, result = plain_op(AutoEngine(db), lookup.text)
                    cycles.append(perf_counter() - t0)
                    db.close()
                else:
                    with rec.span(request, "op", kind="attach") as root:
                        with rec.span(request, "store.load", root["id"]):
                            db = GraphDatabase.from_index(str(index))
                        _r, _q, result, _w = traced_op(
                            rec, request, "first_answer", AutoEngine(db),
                            _drivers(db), lookup.text, root["id"])
                    cycles.append(_duration(root))
                    with rec.span(request, "store.close", None):
                        db.close()
                report.attempted += 1
                report.failed += not lookup.check(result.solutions, result.timed_out)
            factor = host.mark()
            for i, cycle in zip(order, cycles):
                samples[i].append(cycle * factor)
            rounds += 1
            if ctx.quick or perf_counter() - began >= budget:
                break

    # Attach to first answer, what an embedding application gets: each
    # lookup at the lower quartile of its cycles, then p50 and p95 across
    # lookups.
    _per_second, p50, p95 = typical(samples)
    report.notes.append(
        f"{ctx.setups} builds from raw tables (each saved); {rounds} rounds of "
        f"1 fresh CLI process + one in-process attach-to-first-answer cycle "
        f"for each of the {len(items)} lookups, so {rounds} samples a lookup"
    )
    report.extras = {
        "build_s": (median(build_times), "s"),
        "load_first_answer_ms": (p50 * 1e3, "ms"),
        "cli_query_s": (median(cli_walls), "s"),
        **_harness_extras(g, reference_s, cpu),
    }
    if rec is None:
        report.end_to_end = {
            "setup_s": median(setups),
            # what a shell user gets: answers per second of fresh processes
            "throughput_qps": 1.0 / median(cli_walls),
            "latency_p50_ms": p50 * 1e3,
            "latency_p95_ms": p95 * 1e3,
            "peak_rss_mb": median(cli_rss),
            "index_bytes_per_edge": nbytes / g.edges,
        }
    else:
        db = GraphDatabase.from_index(str(index))
        try:
            layer_metrics(ctx, report, rec, db, g, items, ctx.seconds * 0.1, "replay",
                          reference_s)
        finally:
            db.close()
        report.per_layer["harness.client_cpu_frac"] = cpu.frac
        _finish_trace(ctx, report, rec, [
            ("op", "fresh CLI process or in-process attach to first answer"),
            ("replay", "the lookups repeated on an attached database"),
        ])
    index.unlink(missing_ok=True)
    return report


RUNNERS = {
    "join-search": run_join,
    "join-output": run_join,
    "serve-mixed": run_serve,
    "serve-repeat": run_serve,
    "cold-start": run_cold,
}


def run(ctx: Context) -> Report:
    """Run one workload; any child it started is gone when this returns."""
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    children_before = set(descendants(os.getpid()))
    ctx.host.mark()
    try:
        report = RUNNERS[ctx.workload](ctx)
    finally:
        strays = [p for p in set(descendants(os.getpid())) - children_before
                  if alive(p)]
        for pid in strays:
            os.kill(pid, 9)
    if strays:
        report.problems.append(f"processes outlived the workload: {strays}")
    ctx.host.mark()
    samples = ctx.host.samples
    report.notes.append(
        f"host speed: work unit {min(samples) * 1e3:.1f}-{max(samples) * 1e3:.1f} ms "
        f"over {len(samples)} samples, median {ctx.host.slowdown:.3f}x the "
        f"reference's; end-to-end times are brought to the reference speed "
        f"(a wall-clock time is the reported one times that), per-layer times are as measured"
    )
    calibration_ms = median(samples) * 1e3
    if ctx.traced:
        report.per_layer["harness.calibration_ms"] = calibration_ms
    else:
        report.extras["harness.calibration_ms"] = (calibration_ms, "ms")
    return report
