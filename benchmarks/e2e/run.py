#!/usr/bin/env python3
"""The repo benchmark: one command, one workload, every metric by name.

    python3 benchmarks/e2e/run.py --workload serve-mixed --seed 7
    python3 benchmarks/e2e/run.py --workload join-search --trace 1
    python3 benchmarks/e2e/run.py --selfcheck
    python3 benchmarks/e2e/run.py --quick

The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. Everything above that line is for people. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

if not (common.SRC / "repro" / "__init__.py").is_file():
    common.fail(
        f"no program to measure: {common.SRC / 'repro'} is missing "
        "(run from a checkout of the repository)"
    )
sys.path.insert(0, str(common.SRC))

import numpy  # noqa: E402

import data  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--shape-seed", type=int, default=data.SHAPE_SEED,
                        help="generator seed of the graphs and the mined query "
                        "pool; --seed relabels that structure. Another value "
                        "is a structurally different, held-out input whose "
                        "timings are not comparable with the default's")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans, print the layer table and the "
                        "per-layer metrics in place of the end-to-end ones")
    parser.add_argument("--quick", action="store_true",
                        help="tiny graphs, one round, all workloads, both "
                        "modes: a smoke test, not a measurement")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice and compare the two "
                        "runs against the bounds of BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (args.workload or args.quick or args.selfcheck):
        parser.error("give --workload, --quick or --selfcheck")
    return args


def context(args, contract: dict, workload: str, traced: bool) -> workloads.Context:
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.quick else contract["run_seconds"]
    return workloads.Context(
        workload=workload, seed=args.seed, shape_seed=args.shape_seed,
        seconds=float(seconds),
        traced=traced, quick=args.quick,
        workdir=common.WORK / f"{os.getpid()}", outdir=common.OUT,
    )


def render(report: common.Report, contract: dict, seconds: float) -> list[str]:
    units = {m["name"]: m["unit"] for m in
             contract["end_to_end"] + contract["per_layer"]}
    lines = [
        f"== {report.workload}: seed {report.seed}, {seconds:g} s, "
        f"{'traced' if report.traced else 'tracing off'}",
        f"   nproc {os.cpu_count()}, one closed-loop client, python "
        f"{platform.python_version()}, numpy {numpy.__version__}",
    ]
    lines += [f"   {note}" for note in report.notes]
    for title, values in (("end-to-end", report.end_to_end),
                          ("per-layer", report.per_layer)):
        if values:
            lines.append(f"-- {title}")
            lines += [f"   {name:<34s} {value:>16.6g} {units[name]}"
                      for name, value in values.items()]
    extras = {k: v for k, v in report.extras.items() if k not in report.per_layer}
    if extras:
        lines.append("-- also measured (printed, not in BENCHMARK.json)")
        lines += [f"   {name:<34s} {value:>16.6g} {unit}"
                  for name, (value, unit) in extras.items()]
    lines.append(
        f"-- failed_frac {report.failed}/{report.attempted} = "
        f"{report.failed / max(1, report.attempted):.4f} (timed out, shed, "
        "non-200 or wrong answer)"
    )
    lines += [f"!! {problem}" for problem in report.problems]
    return lines


def result_line(report: common.Report, contract: dict) -> dict:
    section = "per_layer" if report.traced else "end_to_end"
    values = report.per_layer if report.traced else report.end_to_end
    metrics = {}
    for spec in contract[section]:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            common.fail(f"{report.workload} produced no {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": report.correct, "attempted": report.attempted,
            "failed": report.failed, "metrics": metrics}


def run_one(args, contract: dict, workload: str, traced: bool) -> tuple[dict, bool]:
    ctx = context(args, contract, workload, traced)
    try:
        report = workloads.run(ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            common.WORK.rmdir()  # leave nothing behind unless another run is using it
        except OSError:
            pass
    print("\n".join(render(report, contract, ctx.seconds)), flush=True)
    return result_line(report, contract), report.correct


def quick(args, contract: dict) -> int:
    document = {}
    good = True
    for workload in common.WORKLOADS:
        document[workload] = {}
        for traced in (False, True):
            line, ok = run_one(args, contract, workload, traced)
            document[workload]["per_layer" if traced else "end_to_end"] = line
            good &= ok
    print(json.dumps(document))
    return 0 if good else 1


#: ``--selfcheck`` also runs every workload once on this structurally
#: different graph and query pool: every ``--seed`` is a relabelling of
#: one structure, so only another shape seed shows that the quotas fill
#: and every answer is right on inputs the benchmark was not tuned on.
HELD_OUT_SHAPE_SEED = 8


def selfcheck(args, contract: dict) -> int:
    """Two back-to-back runs per workload must agree within each bound,
    and a run on the held-out structure must answer everything right."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}
    command = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]

    def metrics(*extra: str) -> dict | None:
        done = subprocess.run(command + list(extra), capture_output=True,
                              text=True, timeout=600)
        if done.returncode != 0:
            print(done.stdout + done.stderr)
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]

    worst = 0
    for workload in common.WORKLOADS:
        pair = [metrics("--workload", workload, "--shape-seed", str(args.shape_seed))
                for _ in range(2)]
        held_out = metrics("--workload", workload,
                           "--shape-seed", str(HELD_OUT_SHAPE_SEED))
        if None in pair or held_out is None:
            return 1
        print(f"== {workload}")
        for name, (bound, better) in bounds.items():
            first, second = pair[0][name]["value"], pair[1][name]["value"]
            change = (second - first) / first
            worse = change if better == "lower" else -change
            verdict = "ok" if abs(change) <= bound else "OUTSIDE"
            worst += verdict != "ok"
            print(f"   {name:<22s} {first:>12.5g} {second:>12.5g}  "
                  f"differ {abs(change):6.2%} (second is "
                  f"{'worse' if worse > 0 else 'better'})  bound {bound:.0%}  {verdict}"
                  f"   [shape seed {HELD_OUT_SHAPE_SEED}: "
                  f"{held_out[name]['value']:.5g}, every answer right]")
    print(f"selfcheck: {worst} metric(s) outside their bound")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    contract = common.contract()
    if args.selfcheck:
        return selfcheck(args, contract)
    if args.quick:
        return quick(args, contract)
    line, ok = run_one(args, contract, args.workload, bool(args.trace))
    print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
