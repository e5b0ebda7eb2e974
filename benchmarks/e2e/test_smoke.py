"""Smoke test of the benchmark itself. Not part of tier-1 (``testpaths``
is ``tests``); run it by path::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

It runs ``run.py --quick`` — tiny graphs, one round, every workload,
tracing off and on — and requires every metric BENCHMARK.json names to
come out finite, every answer to be right, and the columnar oracle to
agree with ``repro.graph.naive`` and with the engine under test.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import data  # noqa: E402
import oracle  # noqa: E402
from repro.engines.auto import AutoEngine  # noqa: E402
from repro.engines.database import GraphDatabase  # noqa: E402
from repro.graph.naive import evaluate_naive  # noqa: E402


def test_quick_emits_every_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(document) == sorted(w["name"] for w in contract["workloads"])
    for workload, sections in document.items():
        for section in ("end_to_end", "per_layer"):
            line = sections[section]
            assert line["correct"] and line["failed"] == 0, (workload, section)
            assert line["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in contract[section]}
            assert set(line["metrics"]) == set(wanted), (workload, section)
            for name, entry in line["metrics"].items():
                assert math.isfinite(entry["value"]), (workload, name)
                assert entry["unit"] == wanted[name]
            if section == "end_to_end":
                assert all(e["value"] > 0 for e in line["metrics"].values())


def test_oracle_agrees_with_naive_and_engine():
    g = data.make_graph("quick-query", seed=3)
    pool = data.Pool(g, data.QUICK_POOL)
    engine = AutoEngine(GraphDatabase(g.graph, g.knn))
    checked = 0
    for family in ("Q1", "Q1b", "Q2", "Q2t", "Q3", "Q4", "Q5"):
        for candidate, _ in zip(pool.candidates(family), range(4)):
            answer = engine.evaluate(candidate.query).solutions
            assert len(answer) == candidate.solutions
            assert oracle.digest_solutions(answer, candidate.names) == candidate.digest
            if candidate.solutions <= 500:
                naive = evaluate_naive(candidate.query, g.graph, g.knn)
                assert oracle.digest_solutions(naive, candidate.names) == candidate.digest
                checked += 1
    assert checked >= 8


def test_digest_is_order_free_and_content_sensitive():
    rows = np.array([[1, 2], [3, 4], [5, 6]])
    assert oracle.digest_rows(rows) == oracle.digest_rows(rows[::-1])
    assert oracle.digest_rows(rows) != oracle.digest_rows(rows[:2])
    changed = rows.copy()
    changed[0, 0] = 9
    assert oracle.digest_rows(rows) != oracle.digest_rows(changed)
