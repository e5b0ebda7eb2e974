"""Tests for the size-bound linear programs (Sec. 4.1, Eqs. (1)-(2))."""

import json
import math
import random
from pathlib import Path

import pytest

from conftest import _knn_fan
from repro.bounds.agm import agm_bound
from repro.bounds.linear_program import _min_cover, solve_size_bound, verify_weights
from repro.query.parser import parse_query
from repro.utils.errors import QueryError, ValidationError

N = 10_000


class TestExample4:
    """Q = (x, R, y), (y, S, z), x <|_k z — the paper's worked bound."""

    QUERY = "(?x, 100, ?y) . (?y, 101, ?z) . knn(?x, ?z, 10)"

    def test_agm_with_opaque_relation_is_n_to_three_halves(self):
        q = parse_query(self.QUERY)
        assert agm_bound(q, N) == pytest.approx(N**1.5, rel=1e-6)

    def test_degree_aware_bound_is_kn(self):
        q = parse_query(self.QUERY)
        bound = solve_size_bound(q, N)
        assert bound.q_star == pytest.approx(10 * N, rel=1e-6)

    def test_degree_aware_beats_agm(self):
        q = parse_query(self.QUERY)
        assert solve_size_bound(q, N).q_star < agm_bound(q, N)


class TestPlainBGPs:
    def test_single_pattern(self):
        q = parse_query("(?x, 1, ?y)")
        assert solve_size_bound(q, N).q_star == pytest.approx(N)

    def test_triangle_agm(self):
        q = parse_query("(?x, 1, ?y) . (?y, 1, ?z) . (?z, 1, ?x)")
        assert solve_size_bound(q, N).q_star == pytest.approx(N**1.5, rel=1e-6)

    def test_path_of_two(self):
        q = parse_query("(?x, 1, ?y) . (?y, 1, ?z)")
        assert solve_size_bound(q, N).q_star == pytest.approx(N**2, rel=1e-6)


class TestClauses:
    def test_pure_knn_star_bounded_by_kn_per_hop(self):
        # x in triple; y, z only constrained by chained clauses.
        q = parse_query("(?x, 1, ?w) . knn(?x, ?y, 5) . knn(?y, ?z, 7)")
        bound = solve_size_bound(q, N)
        assert bound.q_star == pytest.approx(N * 5 * 7, rel=1e-6)

    def test_symmetric_cycle_q1b_shape(self):
        # Both similarity variables are covered by their own triples, so
        # the LP settles at N^2 (tight: all edges of each pattern can
        # share their image endpoint, with the two endpoints similar).
        q = parse_query("(?a, 1, ?x) . (?b, 1, ?y) . sim(?x, ?y, 8)")
        bound = solve_size_bound(q, N)
        assert bound.q_star == pytest.approx(N * N, rel=1e-6)

    def test_cyclic_restriction_caps_delta(self):
        # y has NO covering triple: it must be covered by delta_xy, and
        # the cyclic restriction delta_yx <= w(x-triples) binds. With
        # the 2-cycle x ~ y and only x in a triple:
        #   cover(x): w0 + delta_yx >= 1; cover(y): delta_xy >= 1;
        #   cyclic(x<|y): w0 - delta_xy >= 0 -> w0 >= 1.
        # Optimum: w0 = 1, delta_xy = 1, delta_yx = 0 -> Q* = N * k.
        q = parse_query("(?a, 1, ?x) . sim(?x, ?y, 8)")
        bound = solve_size_bound(q, N)
        assert bound.q_star == pytest.approx(N * 8, rel=1e-6)
        # Without the cyclic restriction the LP could cover y by
        # delta_xy alone while keeping w0 at x's residual cover need;
        # verify delta respects the cap.
        assert bound.delta_weights[0] <= sum(bound.triple_weights.values()) + 1e-9

    def test_unsafe_query_program2(self):
        q = parse_query("(?x, 1, ?y) . knn(?w, ?x, 5)")
        assert not q.is_safe()
        bound = solve_size_bound(q, N, domain_size=1000)
        # w is only covered by Dom: Q* = N * D.
        assert bound.q_star == pytest.approx(N * 1000, rel=1e-6)
        assert any(v > 0 for v in bound.dom_weights.values())


class TestValidation:
    def test_distance_clauses_rejected(self):
        q = parse_query("(?x, 1, ?y) . dist(?x, ?y, 0.5)")
        with pytest.raises(QueryError):
            solve_size_bound(q, N)

    def test_nonpositive_edges(self):
        q = parse_query("(?x, 1, ?y)")
        with pytest.raises(ValidationError):
            solve_size_bound(q, 0)


class TestBoundIsActuallyAnUpperBound:
    """Empirical soundness: measured output <= Q* on real data."""

    def test_on_benchmark_queries(self, bench_db, bench):
        from repro.datasets.workload import WorkloadConfig, generate_workload
        from repro.engines.ring_knn import RingKnnEngine

        workload = generate_workload(
            bench, WorkloadConfig(k=4, n_q1=2, n_q3=2, seed=4)
        )
        engine = RingKnnEngine(bench_db)
        for family in ("Q1", "Q3"):
            for query in workload[family]:
                bound = solve_size_bound(
                    query,
                    bench_db.graph.num_edges,
                    domain_size=bench_db.graph.domain_size,
                )
                result = engine.evaluate(query, timeout=30)
                assert len(result.solutions) <= bound.q_star + 1e-6


class TestVerifyWeights:
    def test_optimal_solutions_verify(self):
        for text in (
            "(?x, 100, ?y) . (?y, 101, ?z) . knn(?x, ?z, 10)",
            "(?a, 1, ?x) . sim(?x, ?y, 8)",
            "(?x, 1, ?y) . knn(?w, ?x, 5)",
        ):
            q = parse_query(text)
            bound = solve_size_bound(q, N, domain_size=1000)
            assert verify_weights(q, bound), text

    def test_tampered_weights_fail(self):
        q = parse_query("(?x, 100, ?y) . (?y, 101, ?z) . knn(?x, ?z, 10)")
        bound = solve_size_bound(q, N)
        bound.triple_weights[0] = 0.0
        bound.triple_weights[1] = 0.0
        assert not verify_weights(q, bound)

    def test_cyclic_restriction_checked(self):
        q = parse_query("(?a, 1, ?x) . sim(?x, ?y, 8)")
        bound = solve_size_bound(q, N)
        # Inflate a cyclic delta beyond its covering weights.
        for j in bound.delta_weights:
            bound.delta_weights[j] = 50.0
        assert not verify_weights(q, bound)


class TestSaturation:
    """Past ``rho = 1024`` ``2**rho`` is not a finite float: ``Q*`` and
    the AGM bound are ``inf``, which is still an upper bound."""

    def test_q_star_and_agm_saturate(self):
        q = parse_query(_knn_fan(120))
        bound = solve_size_bound(q, 8_109)
        assert bound.rho > 1024
        assert bound.q_star == math.inf
        assert agm_bound(q, 8_109) == math.inf


#: ``rho*`` of each Figure-2 golden query, in ``figure2.queries`` order,
#: as ``scipy.optimize.linprog(method="highs")`` solved it.
FIGURE2_RHO = [
    28.969274589833343, 19.312849726555562,  # Q1
    19.312849726555562, 19.312849726555562,  # Q1b
    28.969274589833343,  # Q2
    31.291202684720705,  # Q2b
    28.969274589833343,  # Q2t
    11.978352958165143, 11.978352958165143,  # Q3
    11.978352958165143,  # Q4
    19.312849726555562, 19.312849726555562,  # Q5
]


#: ``scipy.optimize.linprog(method="highs")``'s ``[status, fun]`` on each
#: of :func:`_random_programs`' programs, in order: status 0 is solved,
#: 2 infeasible (``fun`` is then ``null``). Written once while scipy was
#: a dependency, so the comparison runs without it.
HIGHS_PATH = Path(__file__).parent / "golden" / "highs_min_cover.json"


def _random_programs():
    """400 seeded covering programs ``(costs, rows, rhs)``: zero costs,
    and -1 entries as the cyclic rows have."""
    rng = random.Random(47)
    for _ in range(400):
        n, m = rng.randint(1, 7), rng.randint(0, 7)
        costs = [rng.choice((0.0, rng.uniform(0.0, 20.0))) for _ in range(n)]
        rows = [
            [rng.choice((0.0, 0.0, 1.0, 1.0, -1.0)) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [rng.choice((0.0, 1.0)) for _ in range(m)]
        yield costs, rows, rhs


class TestMinCover:
    """The stdlib simplex against HiGHS, and ``rho*`` pinned to it."""

    def test_matches_highs_on_random_programs(self):
        highs = json.loads(HIGHS_PATH.read_text())
        programs = list(_random_programs())
        assert len(highs) == len(programs)
        infeasible = 0
        for (costs, rows, rhs), (status, fun) in zip(programs, highs):
            if status == 2:
                infeasible += 1
                with pytest.raises(QueryError):
                    _min_cover(costs, rows, rhs)
                continue
            assert status == 0
            value, x = _min_cover(costs, rows, rhs)
            assert value == pytest.approx(fun, abs=1e-9)
            assert len(x) == len(costs) and min(x) >= 0.0
            assert sum(c * v for c, v in zip(costs, x)) == pytest.approx(
                value, abs=1e-9
            )
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, x)) >= b - 1e-9
        assert 0 < infeasible < 200

    def test_figure2_rho_unchanged(self, figure2):
        db = figure2.db
        for query, rho in zip(figure2.queries, FIGURE2_RHO, strict=True):
            bound = solve_size_bound(
                query,
                max(db.ring.num_edges, 1),
                domain_size=max(db.ring.domain_size, 2),
            )
            assert bound.rho == pytest.approx(rho, abs=1e-9), query
            assert verify_weights(query, bound), query
