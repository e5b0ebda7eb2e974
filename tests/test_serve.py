"""End-to-end battery for the ``repro serve`` query server.

One module-scoped server runs against a **store-backed** database (the
golden Figure-2 bundle saved with ``repro.store.save`` and reopened via
``GraphDatabase.from_index``) — the deployment shape ``repro serve
--from-index`` uses. Before the server boots, the same queries are
evaluated with the serial engines on the built database; the battery
then asserts the HTTP responses are **byte-identical** to those serial
references:

* plain ``/query`` (auto engine, batched through the scheduler) returns
  the serial solutions in the serial enumeration order;
* traced, engine-pinned ``/query`` returns the exact serial trace
  document (op counts included) minus only the wall-time/metadata keys
  the parallel suite also excludes;
* concurrent clients each get *their own* query's answer back.

The wire protocol is pinned separately: Hypothesis round-trips request
documents through ``parse_*`` / ``to_dict`` against the schemas, so
the JSON surface cannot drift from its documented contract.
"""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import INDEX_ENGINES
from repro.engines.auto import AutoEngine
from repro.engines.database import GraphDatabase
from repro.engines.result import QueryResult
from repro.engines.ring_knn import RingKnnEngine
from repro.experiments.registry import figure2_setup
from repro.ltj.solutions import Solutions
from repro.ltj.stats import EvaluationStats
from repro.obs import QueryTrace
from repro.parallel.executor import shutdown_pools
from repro.parallel.scheduler import QueryScheduler
from repro.query.model import (
    DEFAULT_RELATION,
    ExtendedBGP,
    Var,
    is_var,
)
from repro.query.parser import parse_query
from repro.serve import protocol
from repro.serve.app import ReproServer, ServeConfig, ServerThread
from repro.serve.metrics import EXPOSITION, render_text
from repro.store import save
from tests.test_golden_opcounts import GOLDEN_DATA, GOLDEN_WORKLOAD
from tests.test_store import _comparable

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _term_text(term) -> str:
    return f"?{term.name}" if is_var(term) else str(int(term))


def _query_text(query: ExtendedBGP) -> str:
    """Serialize a workload query back into the textual grammar.

    The fixture asserts the round trip (``parse_query(_query_text(q)) ==
    q``) so the server evaluates *exactly* the query the serial
    reference ran.
    """
    atoms = [
        f"({_term_text(t.s)}, {_term_text(t.p)}, {_term_text(t.o)})"
        for t in query.triples
    ]
    for clause in query.clauses:
        tag = (
            ""
            if clause.relation == DEFAULT_RELATION
            else f":{clause.relation}"
        )
        atoms.append(
            f"knn{tag}({_term_text(clause.x)}, {_term_text(clause.y)}, "
            f"{clause.k})"
        )
    for dist in query.dist_clauses:
        atoms.append(
            f"dist({_term_text(dist.x)}, {_term_text(dist.y)}, {dist.d})"
        )
    return " . ".join(atoms)


def _request(host: str, port: int, method: str, path: str, payload=None,
             raw_body: bool = False):
    """One HTTP exchange; returns ``(status, headers, decoded body)`` —
    or the body's bytes as they came, with ``raw_body``."""
    conn = HTTPConnection(host, port, timeout=120)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if raw_body:
            return response.status, dict(response.headers), raw
        content_type = response.headers.get("Content-Type", "")
        decoded = (
            json.loads(raw)
            if content_type.startswith("application/json")
            else raw.decode("utf-8")
        )
        return response.status, dict(response.headers), decoded
    finally:
        conn.close()


def _post(handle, path: str, payload):
    return _request(handle.host, handle.port, "POST", path, payload)


def _get(handle, path: str):
    return _request(handle.host, handle.port, "GET", path)


def _canonical(document) -> bytes:
    """The body the server wrote before it had an encoder of its own."""
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


def _declared_value(document, name: str, labels: dict[str, str]):
    """The document value behind one text sample, found by reading the
    EXPOSITION table backwards: the sample's name picks a row, its
    labels fill the row's path."""
    for pattern, kind, path, _help in EXPOSITION:
        suffix = "(_bucket|_sum|_count)" if kind == "histogram" else "()"
        match = re.fullmatch(
            re.escape(pattern).replace(r"\{\}", "(.+)") + suffix, name
        )
        if match is None:
            continue
        unused = dict(labels)
        node = document
        try:  # `repro_{}` matches every name: a wrong row has no path
            for segment in path.split("."):
                if not segment.startswith("{"):
                    node = node[segment]
                    continue
                names = segment[1:-1].partition(":")[0]
                node = node[
                    " ".join(unused.pop(n) for n in names.split())
                    if names else match.group(1)
                ]
        except KeyError:
            continue
        part = match.groups()[-1]
        if part == "_bucket":
            node = node["buckets"][unused.pop("le")]
        elif part:
            node = node[part[1:]]
        assert not unused, (name, unused)
        return node
    raise AssertionError(f"no EXPOSITION row declares {name}")


def _post_query_raw(handle, payload, solutions):
    """POST ``/query`` and hold the **raw** 200 body against the
    reference rows: it must be, byte for byte, the canonical JSON of
    itself with ``solutions`` put in. Returns the decoded document."""
    status, _, raw = _request(
        handle.host, handle.port, "POST", "/query", payload, raw_body=True
    )
    assert status == 200, (payload, raw)
    document = json.loads(raw)
    assert raw == _canonical(dict(document, solutions=solutions)), payload
    return document


# ----------------------------------------------------------------------
# the golden fixture: serial references + a store-backed server
# ----------------------------------------------------------------------


class _Golden:
    def __init__(self, handle, cases, store_path):
        self.handle = handle
        self.cases = cases
        """List of ``(family, text, auto_solutions, serial_solutions,
        serial_trace_doc)`` — encoded solutions, comparable trace."""

        self.store_path = store_path


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    _bench, db, workload = figure2_setup(GOLDEN_DATA, GOLDEN_WORKLOAD)
    queries = [
        (family, query)
        for family, family_queries in sorted(workload.items())
        for query in family_queries
    ]

    # Serial references on the *built* database, before any server.
    auto_serial = AutoEngine(db)  # workers=1: serial strategy selection
    ring = RingKnnEngine(db)
    cases = []
    for family, query in queries:
        text = _query_text(query)
        assert parse_query(text) == query, (
            f"query text round-trip failed for {family}: {text!r}"
        )
        auto_solutions = protocol.encode_solutions(
            auto_serial.evaluate(query).solutions
        )
        trace = QueryTrace(query=text)
        serial = ring.evaluate(query, trace=trace)
        cases.append(
            (
                family,
                text,
                auto_solutions,
                protocol.encode_solutions(serial.solutions),
                _comparable(trace),
            )
        )

    # The served database is store-backed: save + mmap reopen.
    store_path = str(tmp_path_factory.mktemp("serve") / "figure2.idx")
    save(db, store_path)
    served_db = GraphDatabase.from_index(store_path)

    handle = ServerThread(
        served_db,
        ServeConfig(workers=2, capacity=64, default_timeout=120.0),
    ).start()
    try:
        yield _Golden(handle, cases, store_path)
    finally:
        handle.shutdown()
        shutdown_pools()


# ----------------------------------------------------------------------
# health + metrics surface
# ----------------------------------------------------------------------


class TestOperationalEndpoints:
    def test_healthz_reports_store_backing(self, golden):
        status, _headers, body = _get(golden.handle, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 2
        assert body["engines"] == ["auto", "ring-knn", "ring-knn-s"]
        store = body["store"]
        assert store is not None, "server must report its mmap backing"
        assert store["path"].endswith("figure2.idx")
        assert store["mapped"] is True
        assert store["nbytes"] > 0

    def test_metrics_json_counters_advance(self, golden):
        _, _, before = _get(golden.handle, "/metrics?format=json")
        status, _, body = _post(
            golden.handle, "/query", {"query": golden.cases[0][1]}
        )
        assert status == 200
        _, _, after = _get(golden.handle, "/metrics?format=json")
        assert after["queries"]["ok"] >= before["queries"]["ok"] + 1
        assert after["requests"].get("/query 200", 0) >= 1
        assert after["gauges"]["admission_capacity"] == 64.0
        assert after["engine_stats"]["solutions"] >= len(
            golden.cases[0][2]
        )

    def test_metrics_text_exposition(self, golden):
        status, headers, text = _get(golden.handle, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_queries_total" in text
        assert "repro_uptime_seconds" in text
        # every sample line is `name{labels} value` or `name value`
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) is not None

    def test_metrics_count_reply_bytes_and_encode_time(self, golden):
        """Each 200 /query body adds its length to
        ``response_bytes_total`` and one observation of its build time
        to the ``encode`` span histogram, in both expositions."""
        def encode(document):
            return document["spans"].get("encode", {}).get(
                "batched", {"count": 0, "sum": 0.0}
            )

        _, _, before = _get(golden.handle, "/metrics?format=json")
        status, _, raw = _request(
            golden.handle.host, golden.handle.port, "POST", "/query",
            {"query": golden.cases[0][1]}, raw_body=True,
        )
        assert status == 200
        _, _, after = _get(golden.handle, "/metrics?format=json")
        assert (
            after["response_bytes_total"] - before["response_bytes_total"]
            == len(raw)
        )
        assert encode(after)["count"] == encode(before)["count"] + 1
        assert encode(after)["sum"] > encode(before)["sum"]
        _, _, text = _get(golden.handle, "/metrics")
        samples = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        assert int(samples["repro_response_bytes_total"]) >= len(raw)
        assert int(
            samples['repro_span_seconds_count{span="encode",route="batched"}']
        ) >= 1
        assert float(
            samples['repro_span_seconds_sum{span="encode",route="batched"}']
        ) > 0

    def test_explain_is_observed_exactly_once(self, golden):
        """A good /explain counts once under its route and once in the
        ``request`` histogram (only its failures used to count)."""
        def observed(document):
            return (
                document["queries"]["by_route"].get("explain", 0),
                document["spans"].get("request", {}).get(
                    "explain", {"count": 0}
                )["count"],
            )

        _, _, before = _get(golden.handle, "/metrics?format=json")
        status, _, _body = _post(
            golden.handle, "/explain", {"query": golden.cases[0][1]}
        )
        assert status == 200
        _, _, after = _get(golden.handle, "/metrics?format=json")
        by_route, requests = observed(before)
        assert observed(after) == (by_route + 1, requests + 1)
        assert after["queries"]["ok"] == before["queries"]["ok"] + 1

    def test_text_samples_equal_document_values(self, golden):
        """Every text sample is the document's value at the path its
        EXPOSITION row declares, and no family the server exposed
        before the span histogram went missing."""
        text = golden.cases[0][1]
        for path, payload in (
            ("/query", {"query": text}),
            ("/query", {"query": text, "engine": "ring-knn", "trace": True}),
            ("/explain", {"query": text, "analyze": True}),
        ):
            assert _post(golden.handle, path, payload)[0] == 200
        server = golden.handle.server
        document = server.metrics.as_dict(
            server._gauges(), cache=server.cache.stats()
        )
        exposition = render_text(document)
        families = set()
        count = 0
        for line in exposition.splitlines():
            if line.startswith("#"):
                continue
            sample, _, value = line.rpartition(" ")
            name, _, label_text = sample.partition("{")
            labels = dict(re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"',
                                     label_text))
            assert float(value) == float(
                _declared_value(document, name, labels)
            ), line
            families.add(name)
            count += 1
        assert count > 100
        for family in (
            "repro_requests_total", "repro_queries_total",
            "repro_queries_cached_total", "repro_queries_by_route_total",
            "repro_engine_stat_total", "repro_response_bytes_total",
            "repro_traced_queries_total", "repro_wavelet_ops_total",
            "repro_uptime_seconds", "repro_inflight",
            "repro_cache_events_total", "repro_cache_bytes",
            "repro_span_seconds_bucket", "repro_span_seconds_sum",
            "repro_span_seconds_count",
        ):
            assert family in families, family
        for gone in ("repro_query_seconds_total", "repro_query_seconds_max",
                     "repro_encode_seconds_total"):
            assert gone not in families

    def test_unknown_paths_share_one_requests_label(self, golden):
        """The request table is keyed by endpoint, not by whatever path
        a client sends: 1,000 distinct 404s add one key and one sample
        (none, if an earlier test already drew a 404)."""
        def sample_lines():
            _, _, text = _get(golden.handle, "/metrics")
            return {
                line.rsplit(" ", 1)[0]
                for line in text.splitlines()
                if line.startswith("repro_requests_total{")
            }

        _get(golden.handle, "/metrics?format=json")  # its own key exists
        _, _, before = _get(golden.handle, "/metrics?format=json")
        lines_before = sample_lines()
        conn = HTTPConnection(golden.handle.host, golden.handle.port,
                              timeout=120)
        try:
            for number in range(1000):
                conn.request("GET", f"/a{number}?x={number}")
                response = conn.getresponse()
                response.read()
                assert response.status == 404
        finally:
            conn.close()
        _, _, after = _get(golden.handle, "/metrics?format=json")
        assert set(after["requests"]) - set(before["requests"]) <= {
            "other 404"
        }
        assert (
            after["requests"]["other 404"]
            - before["requests"].get("other 404", 0)
        ) == 1000
        assert sample_lines() - lines_before <= {
            'repro_requests_total{endpoint="other",code="404"}'
        }

    def test_unknown_path_404_and_method_405(self, golden):
        status, _, body = _get(golden.handle, "/nope")
        assert status == 404
        protocol.validate_error_response(body)
        status, headers, body = _get(golden.handle, "/query")
        assert status == 405
        assert headers["Allow"] == "POST"
        protocol.validate_error_response(body)


# ----------------------------------------------------------------------
# byte-identical golden workload through the server
# ----------------------------------------------------------------------


class TestGoldenWorkload:
    def test_solutions_byte_identical_to_serial(self, golden):
        """Every Figure-2 query served (batched route) returns the
        serial engine's solutions in the serial enumeration order."""
        for _family, text, auto_solutions, _serial, _doc in golden.cases:
            body = _post_query_raw(
                golden.handle, {"query": text}, auto_solutions
            )
            protocol.validate_query_response(body)
            assert body["route"] == "batched"
            assert body["timed_out"] is False
            assert body["stats"]["solutions"] == len(auto_solutions)

    def test_traced_opcounts_byte_identical_to_serial(self, golden):
        """Pinned + traced requests reproduce the serial trace document
        exactly — logical op counts included."""
        for family, text, _auto, serial_solutions, serial_doc in golden.cases:
            body = _post_query_raw(
                golden.handle,
                {"query": text, "engine": "ring-knn", "trace": True},
                serial_solutions,
            )
            protocol.validate_query_response(body)
            assert body["route"] == "direct"
            assert body["engine"] == "ring-knn"
            served_doc = {
                key: value
                for key, value in body["trace"].items()
                if key not in {"elapsed", "phases", "meta", "engine"}
            }
            assert served_doc == serial_doc, (
                f"{family}: served trace diverged for {text!r}"
            )

    def test_concurrent_clients_get_their_own_answers(self, golden):
        """N clients fire distinct queries at once; each response must
        correspond to *that* client's query."""
        cases = golden.cases
        barrier = threading.Barrier(len(cases))

        def client(case):
            family, text, auto_solutions, _serial, _doc = case
            barrier.wait(timeout=60)
            status, _, body = _post(
                golden.handle, "/query", {"query": text}
            )
            return family, status, body, auto_solutions

        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            outcomes = list(pool.map(client, cases))
        for family, status, body, auto_solutions in outcomes:
            assert status == 200, (family, body)
            assert body["solutions"] == auto_solutions, (
                f"{family}: concurrent response was not this client's "
                "answer"
            )

    def test_every_reply_carries_a_request_id(self, golden):
        """/query and /explain replies, 400s included, carry
        ``X-Request-Id``; one client's ids increase."""
        text = golden.cases[0][1]
        ids = []
        for path, payload in (
            ("/query", {"query": text}),
            ("/explain", {"query": text}),
            ("/query", {"query": "(?x"}),
            ("/query", {"query": text, "engine": "ring-knn", "trace": True}),
        ):
            _status, headers, _body = _post(golden.handle, path, payload)
            ids.append(int(headers["X-Request-Id"]))
        assert ids == sorted(set(ids))

    def test_request_ids_unique_across_concurrent_clients(self, golden):
        text = golden.cases[0][1]

        def client(_n):
            return [
                int(_post(golden.handle, "/query", {"query": text})[1][
                    "X-Request-Id"
                ])
                for _ in range(4)
            ]

        with ThreadPoolExecutor(max_workers=6) as pool:
            per_client = list(pool.map(client, range(6)))
        for ids in per_client:
            assert ids == sorted(ids)
        every = [i for ids in per_client for i in ids]
        assert len(set(every)) == len(every) == 24

    def test_limit_is_applied(self, golden):
        _family, text, _auto, serial_solutions, _doc = max(
            golden.cases, key=lambda case: len(case[3])
        )
        if len(serial_solutions) < 2:
            pytest.skip("workload produced no multi-solution query")
        # Pin the serial engine: with a limit the answer must be the
        # exact prefix of the serial enumeration order.
        body = _post_query_raw(
            golden.handle,
            {"query": text, "limit": 1, "engine": "ring-knn"},
            serial_solutions[:1],
        )
        assert body["route"] == "direct"

    def test_limit_zero_is_no_rows_and_no_search_on_every_route(self, golden):
        family, text, *_rest = max(golden.cases, key=lambda case: len(case[3]))
        query = parse_query(text)
        zeros = {"solutions": 0, "bindings": 0, "attempts": 0, "leap_calls": 0}
        db = GraphDatabase.from_index(golden.store_path)
        try:
            engine = RingKnnEngine(db)
            results = {}
            for select in ({}, {"project": [query.variables[0]], "distinct": True}):
                results[f"serial {select}"] = engine.evaluate(
                    query, limit=0, **select)
            for workers in (1, 2):
                (results[f"pool of {workers}"],) = QueryScheduler(
                    db, workers=workers).run_batch([query], limit=0)
            for how, result in results.items():
                assert result.solutions == [], (family, how)
                assert not result.timed_out
                stats = result.stats
                assert {k: getattr(stats, k) for k in zeros} == zeros, (
                    family, how)
        finally:
            db.close()
        for pinned in ({}, {"engine": "ring-knn"}, {"engine": "ring-knn", "trace": True}):
            body = _post_query_raw(
                golden.handle, {"query": text, "limit": 0, **pinned}, []
            )
            protocol.validate_query_response(body)
            assert body["stats"] == zeros, pinned
            assert body["timed_out"] is False

    def test_explain_endpoint_with_analysis(self, golden):
        _family, text, *_rest = golden.cases[0]
        status, _, body = _post(
            golden.handle, "/explain", {"query": text, "analyze": True}
        )
        assert status == 200, body
        protocol.validate_explain_response(body)
        assert body["engine"] == "ring-knn"
        assert "plan" in body["report"]
        assert body["trace"] is not None


# ----------------------------------------------------------------------
# cross-query cache over the wire
# ----------------------------------------------------------------------


class TestServedCache:
    def test_repeat_query_served_from_cache_byte_identical(self, golden):
        family, text, auto_solutions, _serial, _doc = golden.cases[1]
        first, second = (
            _post_query_raw(golden.handle, {"query": text}, auto_solutions)
            for _ in range(2)
        )
        protocol.validate_query_response(second)
        assert second["cached"] is True, family
        assert second["stats"] == first["stats"]

    def test_metrics_expose_cache_counters(self, golden):
        _family, text, *_rest = golden.cases[2]
        for _ in range(2):
            status, _, _body = _post(
                golden.handle, "/query", {"query": text}
            )
            assert status == 200
        _, _, document = _get(golden.handle, "/metrics?format=json")
        cache = document["cache"]
        assert cache["hits"] >= 1
        assert cache["fills"] >= 1
        assert cache["entries"] >= 1
        assert 0 < cache["bytes"] <= cache["max_bytes"]
        assert document["queries"]["cached"] >= 1
        _, _, text_body = _get(golden.handle, "/metrics")
        assert 'repro_cache_events_total{event="hits"}' in text_body
        assert "repro_cache_bytes" in text_body
        assert "repro_queries_cached_total" in text_body
        assert not [name for name in cache if name.startswith("first_level")]
        assert "first_level" not in text_body

    def test_healthz_reports_cache_enabled(self, golden):
        _, _, body = _get(golden.handle, "/healthz")
        assert body["cache"] is True


# ----------------------------------------------------------------------
# request validation over the wire
# ----------------------------------------------------------------------


class TestRequestValidation:
    def test_malformed_query_text_is_typed_400(self, golden):
        status, _, body = _post(golden.handle, "/query", {"query": "(?x"})
        assert status == 400
        protocol.validate_error_response(body)
        assert body["error"]["type"] == "QueryError"

    def test_unknown_field_rejected(self, golden):
        status, _, body = _post(
            golden.handle, "/query", {"query": "(?x, 0, ?y)", "turbo": 1}
        )
        assert status == 400
        assert "turbo" in body["error"]["message"]

    def test_unknown_engine_rejected(self, golden):
        status, _, body = _post(
            golden.handle,
            "/query",
            {"query": "(?x, 0, ?y)", "engine": "baseline"},
        )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_removed_sharded_engine_rejected_by_explain(self, golden):
        status, _, body = _post(
            golden.handle,
            "/explain",
            {"query": "(?x, 0, ?y)", "engine": "parallel-knn"},
        )
        assert status == 400
        protocol.validate_error_response(body)
        assert "engine" in body["error"]["message"]

    def test_non_json_body_rejected(self, golden):
        conn = HTTPConnection(golden.handle.host, golden.handle.port,
                              timeout=30)
        try:
            conn.request("POST", "/query", body=b"not json at all")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_debug_requires_flag(self, golden):
        """The fixture server runs without --debug-faults: directives
        must be rejected before admission."""
        status, _, body = _post(
            golden.handle,
            "/query",
            {"query": "(?x, 0, ?y)", "debug": "raise"},
        )
        assert status == 400
        assert "--debug-faults" in body["error"]["message"]


# ----------------------------------------------------------------------
# wire-protocol round trips (no server involved)
# ----------------------------------------------------------------------

_QUERY_REQUEST_DOCS = st.fixed_dictionaries(
    {"query": st.text(min_size=1, max_size=80)},
    optional={
        "engine": st.sampled_from(sorted(INDEX_ENGINES)),
        "timeout": st.one_of(
            st.none(),
            st.floats(min_value=0, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
        ),
        "limit": st.one_of(st.none(), st.integers(min_value=0,
                                                  max_value=10**6)),
        "trace": st.booleans(),
        "debug": st.one_of(st.none(), st.text(max_size=20)),
    },
)

_EXPLAIN_REQUEST_DOCS = st.fixed_dictionaries(
    {"query": st.text(min_size=1, max_size=80)},
    optional={
        "engine": st.sampled_from(("ring-knn", "ring-knn-s")),
        "analyze": st.booleans(),
        "timeout": st.one_of(
            st.none(),
            st.floats(min_value=0, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
        ),
    },
)

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

#: Variable names that would break a careless formatter: ``%``
#: conversions, JSON's own escapes, blanks, non-ASCII, astral.
_NAMES = st.one_of(
    st.sampled_from(["%", "%d", "%%s", "%(a)d", '"', "\\", "a b", "", "é",
                     "\u2028", "𝔁", '", "solutions": [', "{}"]),
    st.text(max_size=8),
)


@st.composite
def _solution_blocks(draw):
    """A ``Solutions`` of 0–5 variables; 0, 1 or many rows."""
    names = draw(st.lists(_NAMES, max_size=5, unique=True))
    n_rows = draw(st.sampled_from([0, 1, 1, 2, 7, 40]))
    rows = draw(
        st.lists(
            st.lists(_INT64, min_size=len(names), max_size=len(names)),
            min_size=n_rows, max_size=n_rows,
        )
    )
    matrix = np.array(rows, dtype="<i8").reshape(n_rows, len(names))
    return Solutions([Var(name) for name in names], matrix)


class TestProtocolRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        solutions=_solution_blocks(),
        route=st.sampled_from(["batched", "direct"]),
        elapsed=st.floats(min_value=0, max_value=1e3, allow_nan=False),
        cached=st.booleans(),
        trace=st.one_of(
            st.none(),
            st.dictionaries(st.text(max_size=12), st.text(max_size=30),
                            max_size=3),
            st.just({"query": '"}, "solutions": [{"x": 1}], "stats": {',
                     "solutions": "\"solutions\": ["}),
        ),
    )
    def test_query_response_bytes_equal_json_dumps_of_the_rows(
        self, solutions, route, elapsed, cached, trace
    ):
        """The reply's bytes are ``json.dumps(document, sort_keys=True)
        + "\\n"`` of the document built with ``encode_solutions`` — for
        every name, every int64, the zero-variable query's ``{}`` rows,
        and a trace that echoes text shaped like the envelope."""
        counters = dict(solutions=len(solutions), bindings=3, attempts=5,
                        leap_calls=8)
        result = QueryResult(
            engine="ring-knn",
            solutions=solutions,
            stats=EvaluationStats(elapsed=elapsed, **counters),
            cached=cached,
        )
        document = {
            "status": "ok",
            "engine": "ring-knn",
            "route": route,
            "solutions": protocol.encode_solutions(solutions),
            "elapsed": elapsed,
            "timed_out": False,
            "cached": cached,
            "stats": counters,
        }
        if trace is not None:
            document["trace"] = trace
        body = protocol.query_response(result, route, trace=trace)
        assert body == _canonical(document)
        if trace is None:  # an invented trace is not a trace document
            protocol.validate_query_response(json.loads(body))

    @settings(max_examples=200, deadline=None)
    @given(document=_QUERY_REQUEST_DOCS)
    def test_query_request_round_trip(self, document):
        """bytes → parse → to_dict → parse is a fixed point, and the
        canonical form validates against the request schema."""
        request = protocol.parse_query_request(
            json.dumps(document).encode("utf-8")
        )
        canonical = request.to_dict()
        from repro.obs.schema import validate_document

        validate_document(canonical, protocol.QUERY_REQUEST_SCHEMA, "$")
        again = protocol.parse_query_request(json.dumps(canonical))
        assert again == request
        assert again.to_dict() == canonical
        # defaults are exactly the documented ones
        for field, default in (
            ("engine", "auto"), ("timeout", None), ("limit", None),
            ("trace", False), ("debug", None),
        ):
            if field not in document:
                assert canonical[field] == default

    @settings(max_examples=200, deadline=None)
    @given(document=_EXPLAIN_REQUEST_DOCS)
    def test_explain_request_round_trip(self, document):
        request = protocol.parse_explain_request(
            json.dumps(document).encode("utf-8")
        )
        canonical = request.to_dict()
        from repro.obs.schema import validate_document

        validate_document(canonical, protocol.EXPLAIN_REQUEST_SCHEMA, "$")
        again = protocol.parse_explain_request(json.dumps(canonical))
        assert again == request

    @settings(max_examples=100, deadline=None)
    @given(
        error_type=st.text(min_size=1, max_size=40),
        message=st.text(max_size=200),
        retry_after=st.one_of(st.none(),
                              st.integers(min_value=1, max_value=60)),
    )
    def test_error_response_always_validates(
        self, error_type, message, retry_after
    ):
        extra = {} if retry_after is None else {"retry_after": retry_after}
        body = protocol.error_response(error_type, message, **extra)
        protocol.validate_error_response(body)
        rebuilt = json.loads(json.dumps(body))
        protocol.validate_error_response(rebuilt)
        assert rebuilt["error"]["type"] == error_type

    @settings(max_examples=100, deadline=None)
    @given(junk=st.text(max_size=40))
    def test_parse_never_leaks_untyped_errors(self, junk):
        """Arbitrary bytes either parse or raise the typed error —
        never KeyError/TypeError."""
        from repro.utils.errors import ValidationError

        try:
            protocol.parse_query_request(junk.encode("utf-8"))
        except ValidationError:
            pass


# ----------------------------------------------------------------------
# server lifecycle without the golden fixture
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_double_shutdown_is_idempotent(self, tmp_path):
        _bench, db, _workload = figure2_setup(GOLDEN_DATA, GOLDEN_WORKLOAD)
        handle = ServerThread(
            db, ServeConfig(workers=1, capacity=4)
        ).start()
        try:
            status, _, body = _get(handle, "/healthz")
            assert status == 200 and body["status"] == "ok"
        finally:
            handle.shutdown()
        # a second shutdown must be a no-op, not an error
        handle.shutdown()
        shutdown_pools()

    def test_server_object_exposes_bound_port(self, golden):
        server = golden.handle.server
        assert isinstance(server, ReproServer)
        assert server.port == golden.handle.port
        assert server.port != 0
