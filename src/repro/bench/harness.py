"""The benchmark-regression harness behind ``repro bench``.

A bench run produces one JSON document (``BENCH_<date>.json``) with
three measurement groups:

* **figure2** — per ``(family, engine)`` wall-clock times over the
  Figure-2 workload (an untraced, timed pass);
* **opcounts** — per ``(family, engine)`` operation counts from a
  second, traced pass: engine stats (leap calls, attempts, bindings,
  solutions) and the per-structure wavelet-tree op counters of
  :mod:`repro.obs`. These are deterministic — same code, same seeds,
  same counts on any machine — so the diff compares them *exactly*;
* **micro** — fixed-iteration loops over the succinct primitives
  (bitvector rank/select, wavelet-tree rank/select/``range_next_value``
  /``distinct_values``), the operations every query bottoms out in;
* **parallel** — the Figure-2 workload served as a batch through
  :class:`repro.parallel.scheduler.QueryScheduler` at each pool size
  in ``BenchConfig.parallel_workers``, over the warm shared-memory
  worker pool. Pool warm-up (fork + flatten the indexes into shm) is
  reported separately from the steady-state batch time — a server pays
  it once per database — and speedups compare steady state against the
  serial ``auto`` loop. Diffs against documents that predate the group
  simply skip it (wall diffs walk shared keys only), and its solution
  counts are cross-checked against the serial pass at record time;
* **cache** — the cross-query result cache (:mod:`repro.cache`):
  three serial ``auto`` passes over the same workload — **cold** (no
  cache), **fill** (first contact with a fresh cache: evaluation plus
  admission), **warm** (the repeat-traffic pass a server pays once the
  cache is populated). Warm solutions are asserted byte-identical to
  cold at record time; the warm entry records the hit rate and the
  headline ``speedup_vs_cold``;
* **store** — the persistent-index cold-start comparison
  (:mod:`repro.store`): serializing the built indexes to disk,
  **build-to-first-query** (index the raw tables, then answer one
  query) versus **load-to-first-query** (mmap the index file, then
  answer the same query), and a steady-state parity check that runs the
  whole workload over both the built and the mapped database — the
  mmap views must neither change solutions (asserted at record time)
  nor meaningfully change throughput.

Wall-clock numbers are environment-sensitive, so every run also records
a **calibration** time (a fixed pure-Python loop). When diffing two
documents from different machines, wall times are normalized by the
calibration ratio before the tolerance test; op counts need no such
treatment.

``diff_bench`` is the regression gate: op-count or solution-count
mismatches always fail; a wall-time entry fails when the (normalized)
``after`` time exceeds ``before * (1 + tolerance)``. Timed-out figure2
entries are handled specially — their timed-pass solution counts are
never compared (the cap truncates work at a wall-clock-dependent point;
the untimed ``opcounts`` pass still guards those queries' correctness),
and entries saturated at the cap on *both* sides are dropped from the
wall comparison. The ``figure2-completed-in-both:TOTAL`` line is the
headline speedup over identical work.

The traced pass runs without a timeout so its op counts stay
deterministic (a timeout truncates work at a wall-clock-dependent
point); the timed pass honours ``BenchConfig.timeout``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.datasets.wikimedia import WikimediaConfig, generate_benchmark
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.engines.baseline import BaselineEngine
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.obs import QueryTrace
from repro.succinct.bitvector import BitVector
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import ValidationError

BENCH_VERSION = 1

_ENGINES = {
    "baseline": BaselineEngine,
    "ring-knn": RingKnnEngine,
    "ring-knn-s": RingKnnSEngine,
}

_STAT_KEYS = ("solutions", "bindings", "attempts", "leap_calls")


@dataclass(frozen=True)
class BenchConfig:
    """Scale and scope of one bench run (defaults match the benchmark
    suite's laptop-scale Figure-2 setup, see ``benchmarks/conftest.py``)."""

    entities: int = 600
    images: int = 250
    misc_triples: int = 4000
    big_k: int = 16
    seed: int = 7
    k: int = 10
    queries: int = 4
    workload_seed: int = 2
    timeout: float | None = 60.0
    engines: tuple[str, ...] = ("baseline", "ring-knn", "ring-knn-s")
    micro: bool = True
    parallel_workers: tuple[int, ...] = (1, 2, 4)
    """Pool sizes of the parallel scaling curve (empty tuple disables)."""

    store: bool = True
    """Run the persistent-index build-vs-load cold-start section."""

    cache: bool = True
    """Run the cross-query cache cold/fill/warm section."""

    label: str = ""

    def __post_init__(self) -> None:
        unknown = [e for e in self.engines if e not in _ENGINES]
        if unknown:
            raise ValidationError(
                f"unknown bench engines {unknown}; choose from "
                f"{sorted(_ENGINES)}"
            )


def default_filename(date: str) -> str:
    return f"BENCH_{date}.json"


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def calibrate(rounds: int = 3) -> float:
    """Fixed pure-Python work unit; returns its best-of-``rounds`` time.

    Diffs use the ratio of two calibration times to normalize wall-clock
    measurements taken on different machines (or differently loaded
    ones). The loop exercises interpreter dispatch and integer
    arithmetic — the same substrate the succinct kernel runs on — and is
    untouched by kernel optimizations.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += (i * 2654435761) & 0xFFFFFFFF
            acc ^= acc >> 7
        best = min(best, time.perf_counter() - started)
    return best


def _best_of(fn, rounds: int = 2) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_micro() -> dict[str, dict[str, float | int]]:
    """Fixed-seed, fixed-iteration timings of the succinct primitives."""
    rng = np.random.default_rng(42)
    bv = BitVector(rng.integers(0, 2, 200_000))
    wt = WaveletTree(rng.integers(0, 5_000, 100_000), 5_000)

    rank_pos = [int(p) for p in np.linspace(0, len(bv), 5_000, dtype=np.int64)]
    sel1 = [int(j) for j in np.linspace(1, bv.n_ones, 5_000, dtype=np.int64)]
    sel0 = [int(j) for j in np.linspace(1, bv.n_zeros, 5_000, dtype=np.int64)]
    wt_pairs = [
        (int(c), int(i))
        for c, i in zip(
            rng.integers(0, 5_000, 2_000), rng.integers(0, 100_001, 2_000)
        )
    ]
    wt_sel = [(int(c), 1) for c in rng.integers(0, 5_000, 1_000)]
    ranges = [
        (lo, lo + 40_000) for lo in [int(x) for x in rng.integers(0, 60_000, 50)]
    ]

    def bv_rank1() -> None:
        r = bv.rank1
        for _ in range(4):
            for p in rank_pos:
                r(p)

    def bv_select1() -> None:
        s = bv.select1
        for _ in range(4):
            for j in sel1:
                s(j)

    def bv_select0() -> None:
        s = bv.select0
        for _ in range(4):
            for j in sel0:
                s(j)

    def wt_rank() -> None:
        r = wt.rank
        for c, i in wt_pairs:
            r(c, i)

    def wt_select() -> None:
        s = wt.select
        t = wt.total_count
        for c, _j in wt_sel:
            if t(c):
                s(c, 1)

    def wt_range_next() -> None:
        f = wt.range_next_value
        for c, _i in wt_pairs:
            f(10_000, 60_000, c)

    def wt_distinct() -> None:
        for lo, hi in ranges:
            it = wt.distinct_values(lo, hi)
            for _ in range(64):
                if next(it, None) is None:
                    break

    cases = {
        "bv_rank1": (len(rank_pos) * 4, bv_rank1),
        "bv_select1": (len(sel1) * 4, bv_select1),
        "bv_select0": (len(sel0) * 4, bv_select0),
        "wt_rank": (len(wt_pairs), wt_rank),
        "wt_select": (len(wt_sel), wt_select),
        "wt_range_next_value": (len(wt_pairs), wt_range_next),
        "wt_distinct_values": (len(ranges) * 64, wt_distinct),
    }
    out: dict[str, dict[str, float | int]] = {}
    for name, (ops, fn) in cases.items():
        seconds = _best_of(fn)
        out[name] = {
            "ops": ops,
            "total_s": seconds,
            "ops_per_s": (ops / seconds) if seconds > 0 else 0.0,
        }
    return out


def _build_full(config: BenchConfig):
    """Generate the benchmark, index it, and derive the workload.

    Returns ``(bench, db, workload)`` — the raw benchmark is kept so the
    store pass can re-index it when timing build-to-first-query.
    """
    bench = generate_benchmark(
        WikimediaConfig(
            n_entities=config.entities,
            n_images=config.images,
            n_misc_triples=config.misc_triples,
            K=config.big_k,
            seed=config.seed,
        )
    )
    db = GraphDatabase(bench.graph, bench.knn_graph)
    workload = generate_workload(
        bench,
        WorkloadConfig(
            k=config.k,
            n_q1=config.queries,
            n_q2=max(1, config.queries // 2),
            n_q3=config.queries,
            n_q4=max(1, config.queries // 2),
            n_q5=config.queries,
            seed=config.workload_seed,
        ),
    )
    return bench, db, workload


def _build(config: BenchConfig):
    _bench, db, workload = _build_full(config)
    return db, workload


def _timed_pass(db, workload, config: BenchConfig) -> dict[str, dict]:
    """Untraced wall-clock measurement, one entry per family/engine."""
    out: dict[str, dict] = {}
    for family, queries in sorted(workload.items()):
        for name in config.engines:
            engine = _ENGINES[name](db)
            times: list[float] = []
            solutions = 0
            timeouts = 0
            for query in queries:
                started = time.perf_counter()
                result = engine.evaluate(query, timeout=config.timeout)
                times.append(time.perf_counter() - started)
                solutions += len(result.solutions)
                timeouts += int(result.timed_out)
            out[f"{family}/{name}"] = {
                "queries": len(times),
                "total_s": float(sum(times)),
                "mean_s": float(sum(times) / len(times)) if times else 0.0,
                "max_s": float(max(times)) if times else 0.0,
                "solutions": solutions,
                "timeouts": timeouts,
            }
    return out


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware).

    Recorded next to every parallel measurement: wall-clock speedup is
    bounded by the core count, so a scaling curve is only interpretable
    against the hardware that produced it (workers time-slicing one
    core can at best break even).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _parallel_pass(db, workload, config: BenchConfig) -> dict[str, dict]:
    """Batch-serving scaling curve over the warm shared-memory pool.

    The serial reference serves the workload one query at a time with
    the serial ``auto`` loop (a pool of size 1). Each multi-worker
    entry separates **pool warm-up** — forking the workers and
    flattening the database into shared-memory segments, paid once per
    database — from the **steady-state** time a warm server pays per
    ``run_batch`` call; ``speedup_vs_serial`` compares steady state
    only. Solution totals are asserted identical to serial at every
    pool size (the shm transport must never change results), and each
    entry records :func:`usable_cores` — the ceiling on any honest
    wall-clock speedup.
    """
    from repro.parallel.scheduler import QueryScheduler

    queries = [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]

    def serve(workers: int) -> dict:
        scheduler = QueryScheduler(db, workers=workers)
        try:
            started = time.perf_counter()
            scheduler.warmup()
            warmup_s = time.perf_counter() - started
            started = time.perf_counter()
            results = scheduler.run_batch(queries, timeout=config.timeout)
            steady_s = time.perf_counter() - started
        finally:
            scheduler.close()
        return {
            "queries": len(queries),
            "cpu_cores": usable_cores(),
            "warmup_s": warmup_s,
            "total_s": steady_s,
            "solutions": sum(len(r.solutions) for r in results),
            "timeouts": sum(int(r.timed_out) for r in results),
        }

    serial = serve(1)
    out: dict[str, dict] = {"serial": serial}
    for workers in config.parallel_workers:
        entry = serve(workers)
        if entry["solutions"] != serial["solutions"] and not (
            entry["timeouts"] or serial["timeouts"]
        ):
            raise ValidationError(
                f"batch serving (workers={workers}) found "
                f"{entry['solutions']} solutions, serial found "
                f"{serial['solutions']}"
            )
        entry["speedup_vs_serial"] = (
            serial["total_s"] / entry["total_s"]
            if entry["total_s"] > 0
            else 0.0
        )
        out[f"workers={workers}"] = entry
    return out


def _cache_pass(db, workload, config: BenchConfig) -> dict[str, dict]:
    """Cross-query cache cold/fill/warm comparison over the workload.

    Three serial ``auto`` passes over the flattened Figure-2 workload:
    **cold** runs without a cache (the reference), **fill** runs the
    same batch against a fresh :class:`repro.cache.QueryCache` (every
    admissible query pays its evaluation plus the admission copy), and
    **warm** repeats the batch against the now-populated cache — the
    pass a server's repeat traffic pays. Warm solutions must be
    byte-identical to the cold pass (asserted at record time, skipping
    only queries that timed out on either side); the warm entry
    records the observed hit rate and ``speedup_vs_cold``, the
    headline warm-hit payoff the cache benchmark gates.
    """
    from repro.cache import QueryCache
    from repro.engines.auto import AutoEngine

    queries = [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]

    def sweep(engine) -> tuple[dict, list]:
        started = time.perf_counter()
        results = [
            engine.evaluate(query, timeout=config.timeout)
            for query in queries
        ]
        total_s = time.perf_counter() - started
        return {
            "queries": len(queries),
            "total_s": total_s,
            "solutions": sum(len(r.solutions) for r in results),
            "timeouts": sum(int(r.timed_out) for r in results),
        }, results

    cold_entry, cold_results = sweep(AutoEngine(db))
    cache = QueryCache()
    cached_engine = AutoEngine(db, cache=cache)
    fill_entry, _fill_results = sweep(cached_engine)
    filled = cache.stats()
    warm_entry, warm_results = sweep(cached_engine)

    for query, cold, warm in zip(queries, cold_results, warm_results):
        if cold.timed_out or warm.timed_out:
            continue
        if warm.solutions != cold.solutions:
            raise ValidationError(
                f"cached evaluation changed the solutions of {query}"
            )

    stats = cache.stats()
    # The warm sweep's own probes: the fill pass's misses are not its.
    hits = stats["hits"] - filled["hits"]
    probes = hits + stats["misses"] - filled["misses"]
    warm_entry["hits"] = sum(int(r.cached) for r in warm_results)
    warm_entry["hit_rate"] = hits / probes if probes else 0.0
    warm_entry["speedup_vs_cold"] = (
        cold_entry["total_s"] / warm_entry["total_s"]
        if warm_entry["total_s"] > 0
        else 0.0
    )
    return {
        "cold": cold_entry,
        "fill": fill_entry,
        "warm": warm_entry,
        "stats": {key: int(stats[key]) for key in sorted(stats)},
    }


def _store_pass(bench, db, workload, config: BenchConfig) -> dict[str, dict]:
    """Persistent-index cold start versus the bundle-parse-and-build path.

    The two cold-start paths answer the same minimal single-triple
    probe (``limit=1`` — time to first solution): **build_first_query**
    is exactly what ``repro query --data`` pays (parse the ``.npz``
    bundle, build the indexes, answer the probe) while
    **load_first_query** is what ``--from-index`` pays (mmap the file
    written by ``save``, verify the payload checksum, answer the same
    probe). Both are millisecond-scale, so each is best-of-3 like the
    micro loops. The steady-state pair runs the full workload over the
    built and the mapped database with the same engine; their solutions
    are asserted identical at record time — the mmap views must be
    invisible to query results — and the wall-time ratio lands in
    ``mapped_steady["parity_vs_built"]``.
    """
    import tempfile

    from repro.graph.io import load_bundle, save_bundle
    from repro.query.parser import parse_query
    from repro.store import load, save

    queries = [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]
    probe = parse_query("(?x, 0, ?y)")

    def steady(database) -> tuple[float, int, int]:
        engine = RingKnnEngine(database)
        started = time.perf_counter()
        solutions = 0
        timeouts = 0
        for query in queries:
            result = engine.evaluate(query, timeout=config.timeout)
            solutions += len(result.solutions)
            timeouts += int(result.timed_out)
        return time.perf_counter() - started, solutions, timeouts

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmpdir:
        bundle_path = os.path.join(tmpdir, "bench.npz")
        save_bundle(bundle_path, bench.graph, bench.knn_graph, bench.points)
        path = os.path.join(tmpdir, "bench.idx")
        started = time.perf_counter()
        nbytes = save(db, path)
        save_s = time.perf_counter() - started

        def build_first() -> None:
            graph, knn_graph, _points = load_bundle(bundle_path)
            fresh = GraphDatabase(graph, knn_graph)
            RingKnnEngine(fresh).evaluate(probe, timeout=None, limit=1)

        def load_first() -> None:
            mapped = load(path)
            RingKnnEngine(mapped.database).evaluate(
                probe, timeout=None, limit=1
            )
            mapped.close()

        build_first_s = _best_of(build_first, rounds=3)
        load_first_s = _best_of(load_first, rounds=3)

        store = load(path)
        built_s, built_solutions, built_timeouts = steady(db)
        mapped_s, mapped_solutions, mapped_timeouts = steady(store.database)
        store.close()

    if mapped_solutions != built_solutions and not (
        built_timeouts or mapped_timeouts
    ):
        raise ValidationError(
            f"mmap-loaded index found {mapped_solutions} solutions, "
            f"in-memory build found {built_solutions}"
        )
    return {
        "save": {"total_s": save_s, "bytes": nbytes},
        "build_first_query": {"total_s": build_first_s},
        "load_first_query": {
            "total_s": load_first_s,
            "speedup_vs_build": (
                build_first_s / load_first_s if load_first_s > 0 else 0.0
            ),
        },
        "built_steady": {
            "total_s": built_s,
            "solutions": built_solutions,
            "timeouts": built_timeouts,
        },
        "mapped_steady": {
            "total_s": mapped_s,
            "solutions": mapped_solutions,
            "timeouts": mapped_timeouts,
            "parity_vs_built": (mapped_s / built_s) if built_s > 0 else 0.0,
        },
    }


def collect_opcounts(
    db, workload, engines: tuple[str, ...]
) -> dict[str, dict]:
    """Deterministic op-count measurement (no timeout, traced).

    One entry per ``family/engine``: summed engine stats plus the
    per-structure wavelet op counters. Also used by the golden
    regression tests (``tests/test_golden_opcounts.py``) — the counts
    depend only on code and seeds, never on the machine.
    """
    out: dict[str, dict] = {}
    for family, queries in sorted(workload.items()):
        for name in engines:
            engine = _ENGINES[name](db)
            stats = {key: 0 for key in _STAT_KEYS}
            wavelets: dict[str, dict[str, int]] = {}
            for query in queries:
                trace = QueryTrace(query=repr(query), engine=name)
                engine.evaluate(query, timeout=None, trace=trace)
                for key in _STAT_KEYS:
                    stats[key] += int(trace.stats.get(key, 0))
                for label, ops in trace.wavelets.items():
                    bucket = wavelets.setdefault(label, {})
                    for op, count in ops.as_dict().items():
                        bucket[op] = bucket.get(op, 0) + int(count)
            out[f"{family}/{name}"] = {
                "stats": stats,
                "wavelets": {k: wavelets[k] for k in sorted(wavelets)},
            }
    return out


def run_bench(config: BenchConfig, date: str | None = None) -> dict:
    """Run the full harness, returning the ``BENCH`` document."""
    if date is None:
        date = time.strftime("%Y-%m-%d")
    calibration = calibrate()
    bench, db, workload = _build_full(config)
    figure2 = _timed_pass(db, workload, config)
    opcounts = collect_opcounts(db, workload, config.engines)
    micro = run_micro() if config.micro else {}
    parallel = (
        _parallel_pass(db, workload, config)
        if config.parallel_workers
        else {}
    )
    store = _store_pass(bench, db, workload, config) if config.store else {}
    cache = _cache_pass(db, workload, config) if config.cache else {}
    doc = {
        "version": BENCH_VERSION,
        "date": date,
        "label": config.label,
        "config": asdict(config),
        "calibration_s": calibration,
        "figure2": figure2,
        "opcounts": opcounts,
        "micro": micro,
        "parallel": parallel,
        "store": store,
        "cache": cache,
        "totals": {
            "figure2_wall_s": float(
                sum(entry["total_s"] for entry in figure2.values())
            ),
            "micro_wall_s": float(
                sum(entry["total_s"] for entry in micro.values())
            ),
            "wavelet_ops": int(
                sum(
                    bucket.get("total", 0)
                    for entry in opcounts.values()
                    for bucket in entry["wavelets"].values()
                )
            ),
        },
    }
    return doc


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def write_bench(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("version") != BENCH_VERSION:
        raise ValidationError(
            f"{path}: bench document version {doc.get('version')!r} "
            f"!= {BENCH_VERSION}"
        )
    return doc


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
@dataclass
class BenchDiff:
    """Outcome of comparing two bench documents."""

    regressions: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.mismatches


def _timeouts(doc: dict, key: str) -> int:
    return int(doc.get("figure2", {}).get(key, {}).get("timeouts", 0))


def _walk_wall(doc: dict, saturated: set[str]) -> dict[str, float]:
    """Flatten every wall-clock entry of a document to ``key -> seconds``.

    ``saturated`` names the figure2 entries that hit the timeout in
    *both* documents being diffed: their recorded time is the cap, not a
    measurement, so they are excluded (an entry that times out on only
    one side stays in — that asymmetry is a real signal).
    """
    out: dict[str, float] = {}
    for group in ("figure2", "micro", "store", "cache"):
        for key, entry in doc.get(group, {}).items():
            if group == "figure2" and key in saturated:
                continue
            if "total_s" not in entry:  # e.g. the cache stats snapshot
                continue
            out[f"{group}:{key}"] = float(entry["total_s"])
    for key, value in doc.get("totals", {}).items():
        if key.endswith("_s"):
            out[f"totals:{key}"] = float(value)
    return out


def _walk_counts(doc: dict, incomparable: set[str]) -> dict[str, int]:
    """Flatten every deterministic counter to ``key -> count``.

    The ``opcounts`` section comes from the untimed traced pass and is
    always comparable. Timed-pass solution counts are only deterministic
    for queries that ran to completion, so figure2 entries named in
    ``incomparable`` (a timeout on either side of the diff) are skipped —
    their op-count counterparts still guard correctness.
    """
    out: dict[str, int] = {}
    for key, entry in doc.get("opcounts", {}).items():
        for stat, value in entry.get("stats", {}).items():
            out[f"opcounts:{key}:stats:{stat}"] = int(value)
        for label, bucket in entry.get("wavelets", {}).items():
            for op, value in bucket.items():
                out[f"opcounts:{key}:wavelets:{label}:{op}"] = int(value)
    for key, entry in doc.get("figure2", {}).items():
        if key in incomparable:
            continue
        out[f"figure2:{key}:solutions"] = int(entry.get("solutions", 0))
    return out


def diff_bench(
    before: dict,
    after: dict,
    tolerance: float = 0.2,
    use_calibration: bool = True,
    min_seconds: float = 0.05,
) -> BenchDiff:
    """Compare two bench documents.

    Deterministic counters (op counts, solution counts) must match
    exactly; wall times — normalized by the calibration ratio when
    ``use_calibration`` — fail on a relative regression beyond
    ``tolerance`` *and* an absolute excess beyond ``min_seconds``
    (millisecond-scale entries jitter by far more than any tolerance;
    the floor keeps them informational without letting a genuinely slow
    entry — which blows past the floor — escape).
    """
    diff = BenchDiff()
    if use_calibration:
        b_cal = float(before.get("calibration_s") or 0.0)
        a_cal = float(after.get("calibration_s") or 0.0)
        if b_cal > 0 and a_cal > 0:
            diff.scale = a_cal / b_cal
    diff.lines.append(
        f"calibration scale (after/before machine): {diff.scale:.3f}"
    )

    shared_fig2 = set(before.get("figure2", {})) & set(after.get("figure2", {}))
    # Timed out on either side: the solution count (and, if both sides
    # saturated, the wall time) reflects the cap, not the query.
    timed_out = {
        key
        for key in shared_fig2
        if _timeouts(before, key) > 0 or _timeouts(after, key) > 0
    }
    saturated = {
        key
        for key in shared_fig2
        if _timeouts(before, key) > 0 and _timeouts(after, key) > 0
    }
    if timed_out:
        diff.lines.append(
            "timed-out figure2 entries (solutions not compared): "
            + ", ".join(sorted(timed_out))
        )

    b_counts = _walk_counts(before, timed_out)
    a_counts = _walk_counts(after, timed_out)
    for key in sorted(set(b_counts) | set(a_counts)):
        b = b_counts.get(key)
        a = a_counts.get(key)
        if b != a:
            diff.mismatches.append(f"{key}: {b} -> {a}")
    diff.lines.append(
        f"deterministic counters: {len(b_counts)} compared, "
        f"{len(diff.mismatches)} mismatched"
    )

    b_wall = _walk_wall(before, saturated)
    a_wall = _walk_wall(after, saturated)
    # Headline aggregate over queries that completed in BOTH runs: the
    # only figure2 sum where the two sides measure identical work.
    completed = sorted(shared_fig2 - timed_out)
    if completed:
        b_wall["figure2-completed-in-both:TOTAL"] = sum(
            float(before["figure2"][k]["total_s"]) for k in completed
        )
        a_wall["figure2-completed-in-both:TOTAL"] = sum(
            float(after["figure2"][k]["total_s"]) for k in completed
        )
    for key in sorted(set(b_wall) & set(a_wall)):
        b = b_wall[key] * diff.scale
        a = a_wall[key]
        speedup = (b / a) if a > 0 else float("inf")
        status = "ok"
        if a > b * (1.0 + tolerance) and a - b > min_seconds:
            status = "REGRESSION"
            diff.regressions.append(
                f"{key}: {b_wall[key]:.4f}s -> {a_wall[key]:.4f}s "
                f"({1 / speedup:.2f}x slower, normalized)"
            )
        diff.lines.append(
            f"{key}: {b_wall[key]:.4f}s -> {a_wall[key]:.4f}s "
            f"(speedup {speedup:.2f}x, {status})"
        )
    return diff


def format_diff(diff: BenchDiff, tolerance: float) -> str:
    parts = [f"bench diff (wall-time tolerance {tolerance:.0%})"]
    parts.extend("  " + line for line in diff.lines)
    if diff.mismatches:
        parts.append("COUNTER MISMATCHES (deterministic — must be equal):")
        parts.extend("  " + line for line in diff.mismatches)
    if diff.regressions:
        parts.append("WALL-TIME REGRESSIONS:")
        parts.extend("  " + line for line in diff.regressions)
    parts.append("PASS" if diff.ok else "FAIL")
    return "\n".join(parts)
