"""Golden op-count regression tests over the canonical Figure-2 queries.

Leapfrog leap/attempt/binding counts and the per-structure wavelet-tree
operation counters are *deterministic*: they depend only on the code,
the generator seeds, and the workload — never on the machine or on wall
time. This pins them to a checked-in fixture so any change to the
succinct kernel, the relation adapters, or the LTJ engine that alters
the number of logical operations (rather than only their cost) fails
loudly.

Regenerate after an *intentional* algorithmic change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_opcounts.py

and commit the updated ``tests/golden/figure2_opcounts.json`` alongside
an explanation of why the counts moved. A kernel optimization that only
speeds up operations must leave this file byte-identical.

``tests/golden/figure2_decisions.json`` (same switch) pins the variable
ordering on the same workload: every recorded decision with the ``l_x``
values it was made from, and each query's first-descent order. It was
generated on the commit *before* the engine learnt to keep ``l_x``
incrementally, so it certifies that the cached values are the ones a
full per-step recomputation produced.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.datasets.wikimedia import WikimediaConfig
from repro.datasets.workload import WorkloadConfig
from repro.engines.ring_knn import RingKnnEngine, RingKnnSEngine
from repro.experiments.registry import figure2_setup
from repro.obs import QueryTrace

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "figure2_opcounts.json"
DECISIONS_PATH = GOLDEN_PATH.with_name("figure2_decisions.json")

# Canonical tiny-scale setup: small enough for the tier-1 suite, large
# enough that every family issues thousands of wavelet ops. The baseline
# engine is omitted only for runtime; it shares the same succinct
# structures, so its ops are covered by the Ring/K-NN counters here.
GOLDEN_DATA = WikimediaConfig(
    n_entities=120, n_images=60, n_misc_triples=600, K=8, seed=7
)
GOLDEN_WORKLOAD = WorkloadConfig(
    k=5, n_q1=2, n_q2=1, n_q3=2, n_q4=1, n_q5=2, seed=2
)
ENGINES = {"ring-knn": RingKnnEngine, "ring-knn-s": RingKnnSEngine}

_STAT_KEYS = ("solutions", "bindings", "attempts", "leap_calls")


@pytest.fixture(scope="module")
def built():
    _bench, db, workload = figure2_setup(GOLDEN_DATA, GOLDEN_WORKLOAD)
    return db, workload


@pytest.fixture(scope="module")
def observed(built) -> dict:
    return collect_opcounts(*built)


def collect_opcounts(db, workload) -> dict[str, dict]:
    """Per ``family/engine``: summed engine stats plus the per-structure
    wavelet op counters of a traced pass without timeout, so the counts
    depend only on code and seeds."""
    out: dict[str, dict] = {}
    for family, queries in sorted(workload.items()):
        for name, engine_class in ENGINES.items():
            engine = engine_class(db)
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


def collect_decisions(db, workload) -> dict[str, list]:
    """Per ``family/engine`` and query: the ordering's recorded choices
    ``[depth, variable, estimates]`` (first ``MAX_DECISIONS`` of them)
    and the first-descent variable order."""
    out: dict[str, list] = {}
    for family, queries in sorted(workload.items()):
        for name, engine_class in ENGINES.items():
            engine = engine_class(db)
            per_query = []
            for query in queries:
                trace = QueryTrace(query=repr(query), engine=name)
                result = engine.evaluate(query, timeout=None, trace=trace)
                per_query.append({
                    "decisions": [
                        [d.depth, d.variable, dict(sorted(d.estimates.items()))]
                        for d in trace.decisions
                    ],
                    "first_descent_order": [
                        v.name for v in result.stats.first_descent_order
                    ],
                })
            out[f"{family}/{name}"] = per_query
    return out


def test_golden_opcounts_match_fixture(observed):
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(observed, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing fixture {GOLDEN_PATH}; run with REGEN_GOLDEN=1 to create"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert observed.keys() == golden.keys()
    for key in sorted(golden):
        assert observed[key] == golden[key], (
            f"op counts diverged for {key} — if the algorithm changed "
            f"intentionally, regenerate with REGEN_GOLDEN=1"
        )


def test_golden_decisions_match_fixture(built):
    """The variable ordering is pinned too: same choices, from the same
    ``l_x`` values, at the same depths — equal op counts alone would not
    catch two orderings that happen to cost the same."""
    seen = collect_decisions(*built)
    if os.environ.get("REGEN_GOLDEN"):
        rows = (
            f"{json.dumps(key)}: {json.dumps(seen[key], sort_keys=True)}"
            for key in sorted(seen)
        )
        DECISIONS_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
        pytest.skip(f"regenerated {DECISIONS_PATH}")
    golden = json.loads(DECISIONS_PATH.read_text())
    assert seen.keys() == golden.keys()
    for key in sorted(golden):
        assert seen[key] == golden[key], f"ordering decisions diverged for {key}"
    assert all(q["decisions"] for qs in seen.values() for q in qs)


def test_golden_counts_are_nontrivial(observed):
    """Guard against the fixture silently pinning an empty measurement."""
    total_wavelet_ops = sum(
        bucket.get("total", 0)
        for entry in observed.values()
        for bucket in entry["wavelets"].values()
    )
    total_solutions = sum(
        entry["stats"]["solutions"] for entry in observed.values()
    )
    assert total_wavelet_ops > 10_000
    assert total_solutions > 0
    assert all(entry["stats"]["leap_calls"] > 0 for entry in observed.values())


def test_golden_engines_agree_on_solutions(observed):
    """ring-knn and ring-knn-s must count identical solutions per family
    (different orderings, same semantics)."""
    families = {key.split("/")[0] for key in observed}
    for family in sorted(families):
        counts = {
            key: entry["stats"]["solutions"]
            for key, entry in observed.items()
            if key.startswith(f"{family}/")
        }
        assert len(set(counts.values())) == 1, counts
