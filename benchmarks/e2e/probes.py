"""Per-layer probes: timed loops over each layer's public calls.

Every probe runs on the workload's own structures (the database it just
built or loaded, the index file it just saved) with arguments drawn from
the run's seed, so a kernel that got slower on *this* data shows, and a
probe cannot be satisfied by a constant. A probe's value is the median
of :data:`REPEATS` passes over the same argument list.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from common import child_env, median
from repro.knn.succinct import KnnRing
from repro.ring.index import RingIndex
from repro.ring.pattern import RingPatternState
from repro.store import load, save
from repro.succinct.bitvector import BitVector

REPEATS = 5
CALLS = 1500


def per_call(fn, arguments: list[tuple], scale: float) -> float:
    """Median seconds per call over the argument list, times ``scale``."""
    passes = []
    for _ in range(REPEATS):
        started = perf_counter()
        for args in arguments:
            fn(*args)
        passes.append(perf_counter() - started)
    return median(passes) / len(arguments) * scale


def timed(fn, repeats: int) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        samples.append(perf_counter() - started)
    return median(samples)


def _ints(rng: np.random.Generator, lo: int, hi: int, n: int = CALLS) -> list[int]:
    return [int(x) for x in rng.integers(lo, hi, n)]


def kernels(db, g, rng: np.random.Generator) -> dict[str, float]:
    """succinct / ring / knn: nanoseconds per public call."""
    ns = 1e9
    out: dict[str, float] = {}

    # -- succinct: the Ring's object column and one bit plane of it.
    wt = db.ring.column("o")
    n = len(wt)
    positions = _ints(rng, 0, n)
    symbols = [wt.access(i) for i in positions]
    out["succinct.wt_access_ns"] = per_call(wt.access, [(i,) for i in positions], ns)
    out["succinct.wt_rank_ns"] = per_call(
        wt.rank, list(zip(symbols, _ints(rng, 0, n + 1))), ns
    )
    out["succinct.wt_select_ns"] = per_call(
        wt.select,
        [(c, int(rng.integers(1, wt.total_count(c) + 1))) for c in symbols],
        ns,
    )
    los = _ints(rng, 0, n // 2)
    out["succinct.wt_range_next_value_ns"] = per_call(
        wt.range_next_value,
        [(lo, lo + n // 2 - 1, c) for lo, c in zip(los, symbols)],
        ns,
    )
    bv = BitVector((wt.to_array() & 1).astype(np.uint8))
    out["succinct.bv_rank1_ns"] = per_call(
        bv.rank1, [(i,) for i in _ints(rng, 0, len(bv) + 1)], ns
    )
    out["succinct.bv_select1_ns"] = per_call(
        bv.select1, [(j,) for j in _ints(rng, 1, bv.n_ones + 1)], ns
    )

    # -- ring: one triple pattern's backtrackable state.
    ring = db.ring
    depicts = int(g.perm[g.shape.depicts])
    spo = g.graph.spo
    rows = spo[spo[:, 1] == depicts]
    rows = rows[rng.integers(0, len(rows), CALLS)]
    state = RingPatternState(ring, {"p": depicts})
    lowers = _ints(rng, 0, ring.domain_size)
    out["ring.pattern_leap_ns"] = per_call(
        state.leap,
        [("o" if i % 2 else "s", lower) for i, lower in enumerate(lowers)],
        ns,
    )

    def bind_unbind(subject: int) -> None:
        state.bind("s", subject)
        state.unbind()

    out["ring.pattern_bind_unbind_ns"] = per_call(
        bind_unbind, [(int(s),) for s in rows[:, 0]], ns
    )
    ranges = [ring.pair_range("s", int(s), depicts) for s in rows[:, 0]]
    out["ring.triple_count_ns"] = per_call(
        ring.triple_count,
        [("s", lo, hi, int(o)) for (lo, hi), o in zip(ranges, rows[:, 2])],
        ns,
    )

    # -- knn: the succinct K-NN structure's leaps.
    knn = db.knn_ring
    members = g.knn.members
    k = min(10, knn.K)
    us = [int(u) for u in members[rng.integers(0, len(members), CALLS)]]
    lowers = _ints(rng, int(members[0]), int(members[-1]) + 1)
    out["knn.leap_forward_ns"] = per_call(
        knn.leap_forward, [(u, k, lo) for u, lo in zip(us, lowers)], ns
    )
    out["knn.leap_backward_ns"] = per_call(
        knn.leap_backward, [(u, k, lo) for u, lo in zip(us, lowers)], ns
    )
    out["knn.forward_range_ns"] = per_call(
        knn.forward_range, [(u, k) for u in us], ns
    )
    return out


def builds(db, g) -> dict[str, float]:
    """ring / knn: construction seconds and structure bytes."""
    return {
        "ring.build_s": timed(lambda: RingIndex(g.graph), 3),
        "ring.bytes": float(db.ring.size_in_bytes()),
        "knn.build_s": timed(lambda: KnnRing(g.knn), 3),
        "knn.bytes": float(db.knn_ring.size_in_bytes()),
    }


def store(db, workdir: Path) -> dict[str, float]:
    """store: save, attach, and what checksum verification adds."""
    path = str(workdir / "probe.idx")
    nbytes = 0

    def write() -> None:
        nonlocal nbytes
        nbytes = save(db, path)

    def attach(verify: bool) -> None:
        load(path, verify=verify).close()

    try:
        save_s = timed(write, 3)
        plain, extra = [], []
        # Paired, so that drift between the two loops cannot masquerade
        # as (or cancel) the cost of verification.
        for _ in range(15):
            started = perf_counter()
            attach(False)
            middle = perf_counter()
            attach(True)
            plain.append(middle - started)
            extra.append((perf_counter() - middle) - (middle - started))
    finally:
        Path(path).unlink(missing_ok=True)
    return {
        "store.save_s": save_s,
        "store.load_ms": median(plain) * 1e3,
        "store.verify_ms": median(extra) * 1e3,
        "store.bytes": float(nbytes),
    }


def import_seconds(workdir: Path) -> float:
    """serve.import_s: ``import repro.cli`` in a fresh interpreter."""
    samples = []
    for _ in range(2):
        started = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=child_env(workdir), check=True, timeout=120,
        )
        samples.append(perf_counter() - started)
    return median(samples)
