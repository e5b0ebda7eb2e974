"""Warm-hit benchmark of the cross-query result cache (:mod:`repro.cache`).

Three serial ``auto`` passes over the full benchmark workload: a
**cold** reference (no cache), a **fill** pass against a fresh
:class:`QueryCache` (evaluation plus the admission copy), and a
**warm** pass that replays the same batch against the populated cache —
the pass a server's repeat traffic pays. The warm pass must return
solutions byte-identical to the cold reference (values *and*
enumeration order), and — when no query timed out — clear a
``MIN_WARM_HIT_SPEEDUP`` floor over the cold pass: a cache hit replays
a packed solution matrix instead of re-running leapfrog, so anything
less means the admission copy or the probe path has regressed.

The hit-rate table is written to ``benchmarks/results/cache_hit_rate.txt``
(uploaded as the CI ``cache`` job's artifact).
"""

from __future__ import annotations

import time

from benchmarks.conftest import QUERY_TIMEOUT, write_results
from repro.cache import QueryCache
from repro.engines.auto import AutoEngine

#: Floor on the warm-pass speedup over the cold pass when every query
#: completed. Retrieval is a matrix unpack; 5x is conservative — the
#: Figure-2-scale acceptance run measures orders of magnitude more.
MIN_WARM_HIT_SPEEDUP = 5.0

_collected: dict[str, dict] = {}


def _flat_queries(workload):
    return [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]


def _sweep(engine, queries):
    started = time.perf_counter()
    results = [
        engine.evaluate(query, timeout=QUERY_TIMEOUT) for query in queries
    ]
    return {
        "queries": len(queries),
        "total_s": time.perf_counter() - started,
        "solutions": sum(len(r.solutions) for r in results),
        "timeouts": sum(int(r.timed_out) for r in results),
        "cached": sum(int(r.cached) for r in results),
    }, results


def test_cache_cold_reference(benchmark, database, workload):
    queries = _flat_queries(workload)
    engine = AutoEngine(database)
    _sweep(engine, queries)  # warm the parent-side wavelet memos
    entry, results = benchmark.pedantic(
        lambda: _sweep(engine, queries), rounds=1, iterations=1
    )
    benchmark.extra_info.update(entry)
    _collected["cold"] = entry
    _collected["cold_results"] = {"results": results}


def test_cache_fill_then_warm_hits(benchmark, database, workload):
    queries = _flat_queries(workload)
    cold = _collected.get("cold")
    cold_results = _collected.get("cold_results", {}).get("results")
    if cold is None:
        cold, cold_results = _sweep(AutoEngine(database), queries)
        _collected["cold"] = cold

    cache = QueryCache()
    engine = AutoEngine(database, cache=cache)
    fill, _ = _sweep(engine, queries)
    filled = cache.stats()
    warm, warm_results = benchmark.pedantic(
        lambda: _sweep(engine, queries), rounds=1, iterations=1
    )

    # Byte-identical contract: warm hits replay the cold solutions in
    # the cold enumeration order (skip queries that timed out anywhere).
    for query, cold_result, warm_result in zip(
        queries, cold_results, warm_results
    ):
        if cold_result.timed_out or warm_result.timed_out:
            continue
        assert warm_result.solutions == cold_result.solutions, (
            f"cached evaluation changed the solutions of {query}"
        )

    stats = cache.stats()
    # The warm sweep's own probes: the fill pass's misses are not its.
    hits = stats["hits"] - filled["hits"]
    probes = hits + stats["misses"] - filled["misses"]
    warm["hit_rate"] = hits / probes if probes else 0.0
    warm["speedup_vs_cold"] = (
        cold["total_s"] / warm["total_s"] if warm["total_s"] > 0 else 0.0
    )
    warm["fill_total_s"] = fill["total_s"]
    warm["cache_bytes"] = stats["bytes"]
    benchmark.extra_info.update(warm)
    _collected["warm"] = warm

    if not cold["timeouts"] and not warm["timeouts"]:
        # Every completed query is admissible at this scale: the warm
        # pass must be all hits and far cheaper than evaluation.
        assert warm["cached"] == len(queries), (
            f"only {warm['cached']}/{len(queries)} warm evaluations came "
            "from the cache"
        )
        assert warm["hit_rate"] == 1.0
        assert warm["speedup_vs_cold"] >= MIN_WARM_HIT_SPEEDUP, (
            f"warm pass reached only {warm['speedup_vs_cold']:.1f}x over "
            f"cold (floor {MIN_WARM_HIT_SPEEDUP}x)"
        )


def test_cache_report():
    lines = ["cross-query cache (repro.cache) warm-hit benchmark"]
    cold = _collected.get("cold")
    if cold is not None:
        lines.append(
            f"  cold:  {cold['total_s']:.3f} s over {cold['queries']} "
            f"queries ({cold['solutions']} solutions, "
            f"{cold['timeouts']} timeouts)"
        )
    warm = _collected.get("warm")
    if warm is not None:
        lines.append(f"  fill:  {warm['fill_total_s']:.3f} s")
        lines.append(
            f"  warm:  {warm['total_s']:.3f} s "
            f"({warm['cached']}/{warm['queries']} hits, "
            f"hit rate {warm['hit_rate']:.1%}, "
            f"{warm['speedup_vs_cold']:.1f}x vs cold, "
            f"{warm['cache_bytes']} cached bytes)"
        )
    write_results("cache_hit_rate", "\n".join(lines))
