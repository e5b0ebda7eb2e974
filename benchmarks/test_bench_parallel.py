"""Scaling benchmark of batch serving over the shared-memory pool.

One pytest-benchmark entry per pool size (1, 2, 4) serves the full
benchmark workload through :class:`QueryScheduler` over a warm
worker pool, plus a serial ``auto``-loop reference entry. Pool
warm-up — forking the workers and flattening the succinct indexes into
shared-memory segments — is measured separately from the steady-state
batch time, because a server pays it once per database, not per batch.
Each entry's ``extra_info`` records warm-up, steady-state total,
solutions (asserted identical to serial — the shm transport must never
change results) and the steady-state speedup over the serial
reference, and the curve is written to
``benchmarks/results/parallel_scaling.txt``.

Wall-clock speedup is capped by the usable core count, so the
acceptance assertions are hardware-gated: with >= 4 usable cores the
workers=4 entry must clear a 2x steady-state speedup; on fewer cores
(where workers merely time-slice the CPU and any "speedup" is
physically impossible) the entries must instead stay within a bounded
overhead of the serial loop — proving the transport itself costs
almost nothing even when parallelism cannot pay.
"""

from __future__ import annotations

import time

import pytest

import numpy as np

from benchmarks.conftest import QUERY_TIMEOUT, write_results
from repro.bench.harness import usable_cores
from repro.knn.distance_index import DistanceRangeIndex
from repro.parallel.scheduler import QueryScheduler
from repro.parallel.shm import StructureShm, attach
from repro.store import prime

WORKER_COUNTS = (1, 2, 4)

#: Ceiling on steady-state time relative to serial when too few cores
#: exist for real parallelism (covers per-worker cold caches + IPC).
MAX_SINGLE_CORE_OVERHEAD = 1.6

#: Ceiling on the shm-attached leap_within loop relative to the built
#: structure. The attached views are numpy arrays over the shared
#: buffer; any regression that routes a hot-path lookup through them
#: (instead of the plain-scalar ``_*_i`` mirrors) re-enters numpy
#: dispatch per probe and measured at 1.07-1.09x before the mirrors
#: covered ``_distances``. Parity now measures ~1.01x; the bound is
#: generous for timer noise while still catching a scalar-leak relapse.
MAX_ATTACHED_LEAP_RATIO = 1.3

_collected: dict[str, dict] = {}


def _flat_queries(workload):
    return [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]


def _serve_batch(database, queries, workers):
    scheduler = QueryScheduler(database, workers=workers)
    try:
        started = time.perf_counter()
        scheduler.warmup()
        warmup_s = time.perf_counter() - started
        started = time.perf_counter()
        results = scheduler.run_batch(queries, timeout=QUERY_TIMEOUT)
        steady_s = time.perf_counter() - started
    finally:
        scheduler.close()
    return {
        "cpu_cores": usable_cores(),
        "warmup_s": warmup_s,
        "total_s": steady_s,
        "solutions": sum(len(r.solutions) for r in results),
        "timeouts": sum(int(r.timed_out) for r in results),
    }


@pytest.fixture(scope="module", autouse=True)
def _warm_database(database, workload):
    # One untimed serial pass so the parent-side wavelet memos are warm
    # before any measured entry; otherwise whichever entry runs first
    # pays a one-time cache fill the others do not.
    _serve_batch(database, _flat_queries(workload), workers=1)


def _serial_reference(database, workload):
    entry = _collected.get("serial")
    if entry is None:
        entry = _serve_batch(database, _flat_queries(workload), workers=1)
        _collected["serial"] = entry
    return entry


def test_parallel_serial_reference(benchmark, database, workload):
    queries = _flat_queries(workload)
    entry = benchmark.pedantic(
        lambda: _serve_batch(database, queries, workers=1),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(entry)
    _collected["serial"] = entry


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_scaling(benchmark, database, workload, workers):
    queries = _flat_queries(workload)
    entry = benchmark.pedantic(
        lambda: _serve_batch(database, queries, workers=workers),
        rounds=1,
        iterations=1,
    )
    serial = _serial_reference(database, workload)
    if not entry["timeouts"] and not serial["timeouts"]:
        assert entry["solutions"] == serial["solutions"], (
            "shared-memory batch serving changed the solution count"
        )
    entry["speedup_vs_serial"] = (
        serial["total_s"] / entry["total_s"] if entry["total_s"] > 0 else 0.0
    )
    benchmark.extra_info.update(entry)
    _collected[f"workers={workers}"] = entry

    cores = usable_cores()
    if workers >= 4 and cores >= 4:
        assert entry["speedup_vs_serial"] >= 2.0, (
            f"workers={workers} on {cores} cores reached only "
            f"{entry['speedup_vs_serial']:.2f}x steady-state speedup"
        )
    elif workers >= 2 and cores < workers:
        assert entry["total_s"] <= serial["total_s"] * MAX_SINGLE_CORE_OVERHEAD, (
            f"workers={workers} time-slicing {cores} core(s) cost "
            f"{entry['total_s']:.3f}s vs serial {serial['total_s']:.3f}s — "
            "transport overhead above the bounded-overhead ceiling"
        )


def test_parallel_scaling_report(database, workload):
    serial = _serial_reference(database, workload)
    lines = [
        "batch serving over the shared-memory worker pool "
        f"(steady state; warm-up reported separately; "
        f"{usable_cores()} usable core(s))",
        f"  serial auto loop: {serial['total_s']:.3f}s "
        f"({serial['solutions']} solutions)",
    ]
    for workers in WORKER_COUNTS:
        entry = _collected.get(f"workers={workers}")
        if entry is None:
            continue
        lines.append(
            f"  workers={workers}: steady {entry['total_s']:.3f}s "
            f"(speedup {entry['speedup_vs_serial']:.2f}x, "
            f"warmup {entry['warmup_s']:.3f}s, "
            f"{entry['solutions']} solutions)"
        )
    text = "\n".join(lines)
    write_results("parallel_scaling", text)
    print(text)


def _leap_sweep(index, members, d):
    # Every member leaps from every third candidate value — the same
    # probe mix the LTJ intersection generates, minus the engine.
    out = 0
    started = time.perf_counter()
    for u in members:
        for lower in range(0, len(members), 3):
            v = index.leap_within(u, d, lower)
            if v is not None:
                out += v
    return time.perf_counter() - started, out


def test_parallel_attached_leap_parity(benchmark):
    rng = np.random.default_rng(11)
    points = rng.normal(size=(300, 8))
    d_max = 4.0
    built = DistanceRangeIndex(points, d_max)
    members = built.members.tolist()

    owner = StructureShm.create(built)
    attached_handle = attach(owner.manifest)
    attached = attached_handle.structure
    try:
        prime(attached)
        d = d_max * 0.75
        _leap_sweep(built, members, d)  # warm both before timing
        _leap_sweep(attached, members, d)
        built_s, built_sum = _leap_sweep(built, members, d)
        attached_s, attached_sum = benchmark.pedantic(
            lambda: _leap_sweep(attached, members, d), rounds=1, iterations=1
        )
        assert attached_sum == built_sum, (
            "shm-attached DistanceRangeIndex changed leap_within results"
        )
        ratio = attached_s / built_s if built_s > 0 else 0.0
        benchmark.extra_info.update(
            {
                "built_leap_s": built_s,
                "attached_leap_s": attached_s,
                "attached_vs_built": ratio,
            }
        )
        assert ratio <= MAX_ATTACHED_LEAP_RATIO, (
            f"attached leap_within ran {ratio:.2f}x of built — a hot-path "
            "lookup is bypassing the plain-scalar mirrors and re-entering "
            "numpy dispatch per probe"
        )
    finally:
        # Rebind before unmapping: the pedantic lambda's closure cell
        # would otherwise keep views into the segment alive past close.
        attached = None
        attached_handle.close()
        owner.close()
