"""Paths, statistics and process accounting shared by the benchmark."""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch (index files, child TMPDIR) and outputs (span files); both
#: live inside the benchmark's own directory and are git-ignored.
WORK = HERE / ".work"
OUT = HERE / "out"

WORKLOADS = ("join-search", "join-output", "serve-mixed", "serve-repeat",
             "cold-start")


def contract() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workdir: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts: the program
    from this checkout's ``src``, temporary files inside the checkout."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["TMPDIR"] = str(workdir)
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values, p: float) -> float:
    """Percentile of a non-empty sample, linear between closest ranks
    (nearest-rank flips between two neighbours from run to run)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return float(ordered[below] + (ordered[above] - ordered[below]) * (position - below))


def typical(samples) -> tuple[float, float, float]:
    """One pass over a workload's distinct operations, each taken at the
    lower quartile of its own samples: (operations per second, p50, p95
    in seconds across the operations).

    A run times each distinct operation only 3-9 times, and the host
    slows in bursts of about a second, so statistics of the pooled
    samples move with how many samples each operation got and which of
    them met a burst. Measured on 150 s of serve-mixed requests cut
    into 12 s windows: pooled p50 spread 12 % between windows, pooled
    p95 26 %, requests per wall second 7 %; from per-operation medians
    3 %, 7 % and 4 %. The host only ever adds time, so of three samples
    the lower ones are the repeatable ones: on 300 s recorded in a noisy
    phase the lower quartile brought those three to 3 %, 5 %, 8 % from
    the median's 6 %, 5 %, 10 %, and the widest gap between two windows
    of p95 from 33 % to 23 % (README, "Why per-query quartiles first")."""
    low = [percentile(times, 25) for times in samples]
    return len(low) / sum(low), percentile(low, 50), percentile(low, 95)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Seconds :func:`calibration_s` took on the quiet 2-core VM this was
#: written on: the speed every reported time is brought to. It only
#: fixes the unit; on that machine, quiet, a reported ms is a wall ms.
REFERENCE_CALIBRATION_S = 0.0230


def calibration_s() -> float:
    """A fixed pure-Python work unit, twice, and the mean: how fast this
    host runs the interpreter right now. (The mean, not the best: in a
    slow phase the speed changes within tenths of a second and the work
    beside this sample saw the average.) The arithmetic is that of the
    public ``repro.bench.harness.calibrate``, kept here because the
    yardstick must not change when ``src/`` does."""
    started = perf_counter()
    for _ in range(2):
        acc = 0
        for i in range(150_000):
            acc += (i * 2654435761) & 0xFFFFFFFF
            acc ^= acc >> 7
    return (perf_counter() - started) / 2


class HostSpeed:
    """Brings timings to the reference host speed.

    The VM this runs on slows everything — this loop, an index build, a
    join, a server — by 1.1-1.5x for seconds to minutes at a time, which
    no statistic inside one run can remove. So the work unit is sampled
    beside every timed section, and a section's times are multiplied by
    ``reference / (mean of the samples before and after it)``. The work
    unit is no part of the program, so no change to the program moves it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> float:
        """Sample the work unit; returns the factor for times measured
        since the previous mark (1.0 on the first)."""
        self.samples.append(calibration_s())
        if len(self.samples) == 1:
            return 1.0
        return REFERENCE_CALIBRATION_S / ((self.samples[-2] + self.samples[-1]) / 2)

    @property
    def spent_s(self) -> float:
        """Seconds the samples themselves took (two work units each)."""
        return 2 * sum(self.samples)

    @property
    def slowdown(self) -> float:
        """Median sample over the reference: >1 on a slower host."""
        return median(self.samples) / REFERENCE_CALIBRATION_S


# ----------------------------------------------------------------------
# process accounting (/proc)
# ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {key}")


def peak_rss_mb(pids) -> float:
    """Sum of the processes' resident-set high-water marks."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def reset_own_peak_rss() -> bool:
    """Restart this process's VmHWM at its current RSS, so that what the
    harness allocated while generating inputs is not charged to the
    program. Returns False where the kernel refuses (the peak then
    includes the harness)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` in the process tree."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                tail = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parent_of[int(entry)] = int(tail[1])
    found: list[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        children = [p for p, parent in parent_of.items() if parent == current]
        found.extend(children)
        frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Report:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    traced: bool
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    """Workload-specific metrics (value, unit): printed, not gated."""

    notes: list[str] = field(default_factory=list)
    """Context lines: scale, query counts, sample sizes, quartiles."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    """Hygiene failures (stray process, server exit code...)."""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0


def fail(message: str) -> "NoReturn":  # noqa: F821 - typing only
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)
