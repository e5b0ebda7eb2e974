"""Acceptance battery for the persistent on-disk index format.

Mirrors the shared-memory transport's layers
(``tests/test_parallel_shm.py``) for :mod:`repro.store`; the
per-structure round trips live in ``tests/test_layout.py``, one battery
over both carriers:

* **Failure modes** — truncation, bad magic, version skew (a
  version-1 file included), checksum corruption, endianness (file flag
  and host) each raise their typed :mod:`repro.utils.errors` exception;
  ``verify=False`` skips only the checksum — and even then one flipped
  bit in a bitvector's words or rank directory is a typed error at
  first touch, never a wrong rank.
* **Space budget** — the Figure-2 graph's index file stays within the
  bytes-per-edge budget of ``docs/performance.md``.
* **Golden sweep** — on the Figure-2 workload, an mmap-loaded database
  answers byte-identically to the in-memory build (solutions and
  traced op counts), serially and over worker pools under both fork
  and spawn — with the pools attaching workers to the index file
  directly (no shm segment).
"""

from __future__ import annotations

import os
import struct
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.io as store_io
from repro.engines.auto import AutoEngine
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine
from repro.experiments.registry import Context, figure2_setup
from repro.obs import QueryTrace, validate_trace
from repro.parallel.executor import ENV_START_METHOD, pool_for, shutdown_pools
from repro.parallel.scheduler import QueryScheduler
from repro.parallel.shm import active_segments
from repro.store import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    attach,
    load,
    prime,
    save,
)
from repro.store.format import (
    checksum_parts,
    decode_manifest,
    encode_manifest,
    pack_header,
    unpack_header,
)
from repro.succinct.bitvector import BitVector
from repro.utils.errors import (
    StoreChecksumError,
    StoreEndiannessError,
    StoreFormatError,
    StoreVersionError,
)
from tests.test_golden_opcounts import GOLDEN_DATA, GOLDEN_WORKLOAD
from tests.test_parallel_shm import _counts

START_METHODS = ("fork", "spawn")

#: Trace-document keys that legitimately differ between two runs of one
#: query (wall times, phase breakdown, execution metadata, the label).
_EXCLUDED = frozenset({"elapsed", "phases", "meta", "engine"})


def _comparable(trace: QueryTrace) -> dict:
    doc = trace.to_dict()
    validate_trace(doc)
    return {key: doc[key] for key in doc if key not in _EXCLUDED}


# ----------------------------------------------------------------------
# failure modes: every corruption has a typed exception
# ----------------------------------------------------------------------
@pytest.fixture()
def small_index(tmp_path):
    path = str(tmp_path / "small.idx")
    save(BitVector([1, 0, 1, 1, 0, 1]), path)
    return path


def _rewrite(path, offset, payload: bytes) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(payload)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(StoreFormatError, match="cannot read"):
        load(str(tmp_path / "nowhere.idx"))


def test_empty_file_is_truncated(tmp_path):
    path = str(tmp_path / "empty.idx")
    open(path, "wb").close()
    with pytest.raises(StoreFormatError, match="truncated"):
        load(path)


def test_short_header_is_truncated(tmp_path):
    path = str(tmp_path / "short.idx")
    with open(path, "wb") as handle:
        handle.write(MAGIC + b"\0" * 4)
    with pytest.raises(StoreFormatError, match="truncated"):
        load(path)


def test_truncated_payload(small_index):
    size = os.path.getsize(small_index)
    with open(small_index, "r+b") as handle:
        handle.truncate(size - 8)
    with pytest.raises(StoreFormatError, match="truncated"):
        load(small_index)


def test_bad_magic(small_index):
    _rewrite(small_index, 0, b"NOTANIDX")
    with pytest.raises(StoreFormatError, match="magic"):
        load(small_index)


def test_version_skew(small_index):
    with open(small_index, "rb") as handle:
        header = unpack_header(handle.read(HEADER_SIZE), small_index)
    _rewrite(small_index, 8, struct.pack("<I", FORMAT_VERSION + 1))
    with pytest.raises(StoreVersionError, match="repro build"):
        load(small_index)
    # A version-1 header as format 1 wrote it (same struct, magic, flag
    # and consistent lengths): refused by its version alone — there is
    # no reader kept for it.
    version_1 = struct.pack(
        "<8sIIQQII", MAGIC, 1, 1, header.manifest_len, header.segment_len,
        header.checksum, 0,
    )
    _rewrite(small_index, 0, version_1)
    for verify in (True, False):
        with pytest.raises(StoreVersionError, match="version 1 != 2.*repro build"):
            load(small_index, verify=verify)


def test_big_endian_file_flag(small_index):
    _rewrite(small_index, 12, struct.pack("<I", 0))  # clear LE flag
    with pytest.raises(StoreEndiannessError):
        load(small_index)


def test_checksum_mismatch(small_index):
    size = os.path.getsize(small_index)
    with open(small_index, "rb") as handle:
        last = handle.read()[-1]
    _rewrite(small_index, size - 1, bytes([last ^ 0xFF]))
    with pytest.raises(StoreChecksumError, match="rebuild"):
        load(small_index)
    # verify=False skips only the checksum — the header still gates.
    store = load(small_index, verify=False)
    store.close()


def test_malformed_manifest_json(small_index):
    # Corrupt the manifest bytes, then re-stamp the checksum so the
    # JSON decode (not the checksum) is what fails.
    from repro.store.format import payload_checksum

    with open(small_index, "rb") as handle:
        raw = bytearray(handle.read())
    header = unpack_header(bytes(raw[:HEADER_SIZE]), small_index)
    raw[HEADER_SIZE : HEADER_SIZE + 8] = b"not json"
    checksum = payload_checksum(raw, HEADER_SIZE, header.total_size)
    raw[32:36] = struct.pack("<I", checksum)
    with open(small_index, "wb") as handle:
        handle.write(raw)
    with pytest.raises(StoreFormatError, match="manifest"):
        load(small_index)


def _unknown_kind(entries, root):
    root["kind"] = "hologram"


def _array_index_out_of_range(entries, root):
    root["ring"]["blocks"]["s"]["cum"] = len(entries)


def _offset_past_segment(entries, root):
    _offset, dtype, shape = entries[0]
    entries[0] = (1 << 40, dtype, shape)


def _bad_dtype(entries, root):
    offset, _dtype, shape = entries[0]
    entries[0] = (offset, "<x9", shape)


def _missing_key(entries, root):
    del root["ring"]["columns"]["s"]["levels"][0]["blocks"]


@pytest.mark.parametrize(
    "corrupt",
    [
        _unknown_kind,
        _array_index_out_of_range,
        _offset_past_segment,
        _bad_dtype,
        _missing_key,
    ],
)
def test_structurally_bad_manifest_is_format_error(
    tmp_path, small_db, monkeypatch, capsys, corrupt
):
    """A wrong manifest behind a *valid* checksum is still a typed error.

    The file is rewritten whole (manifest length, padding and checksum
    all consistent), so nothing but the structural validation of the
    attach can catch it — and a failed attach must leave no mapping.
    """
    path = str(tmp_path / "bad.idx")
    save(small_db, path)
    with open(path, "rb") as handle:
        raw = handle.read()
    header = unpack_header(raw[:HEADER_SIZE], path)
    entries, root = decode_manifest(
        raw[HEADER_SIZE : HEADER_SIZE + header.manifest_len], path
    )
    segment = raw[header.segment_offset : header.total_size]
    entries = list(entries)
    corrupt(entries, root)
    manifest = encode_manifest(tuple(entries), root)
    pad = b"\0" * (-(HEADER_SIZE + len(manifest)) % 8)
    with open(path, "wb") as handle:
        handle.write(
            pack_header(
                len(manifest),
                len(segment),
                checksum_parts(manifest, pad, segment),
            )
        )
        handle.write(manifest + pad + segment)

    opened = []

    class _RecordingMmap(store_io.mmap.mmap):
        def __new__(cls, *args, **kwargs):
            opened.append(super().__new__(cls, *args, **kwargs))
            return opened[-1]

    monkeypatch.setattr(
        store_io,
        "mmap",
        SimpleNamespace(
            mmap=_RecordingMmap, ACCESS_READ=store_io.mmap.ACCESS_READ
        ),
    )

    for verify in (True, False):
        with pytest.raises(StoreFormatError, match="bad.idx"):
            load(path, verify=verify)
    from repro.cli import main

    code = main(["query", "--from-index", path, "--query", "(?x, 20, ?y)"])
    assert code == 2
    err = capsys.readouterr().err
    assert "StoreFormatError" in err and "Traceback" not in err
    assert len(opened) == 3 and all(mapping.closed for mapping in opened)


def test_big_endian_host_guard(small_index, monkeypatch):
    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(StoreEndiannessError, match="read"):
        load(small_index)
    with pytest.raises(StoreEndiannessError, match="write"):
        save(BitVector([1, 0]), small_index + ".other")


def test_save_is_atomic_and_overwrites(tmp_path):
    path = str(tmp_path / "idx.idx")
    save(BitVector([1, 0, 1]), path)
    first = os.path.getsize(path)
    save(BitVector([1] * 500), path)  # replace in place
    assert os.path.getsize(path) != first
    leftovers = [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert leftovers == []
    store = load(path)
    try:
        assert store.structure.rank1(500) == 500
    finally:
        store.close()


def test_database_property_requires_database_root(small_index):
    store = load(small_index)
    try:
        with pytest.raises(StoreFormatError, match="not a database"):
            store.database
    finally:
        store.close()


# ----------------------------------------------------------------------
# golden Figure-2 sweep: mapped == built, serial and pooled
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig2_store(tmp_path_factory):
    _bench, db, workload = figure2_setup(GOLDEN_DATA, GOLDEN_WORKLOAD)
    queries = [
        query
        for _family, family_queries in sorted(workload.items())
        for query in family_queries
    ]
    serial = RingKnnEngine(db)
    expected = []
    for query in queries:
        trace = QueryTrace()
        result = serial.evaluate(query, trace=trace)
        expected.append((result.solutions, _comparable(trace)))
    auto_expected = [AutoEngine(db).evaluate(q) for q in queries]
    path = str(tmp_path_factory.mktemp("store") / "fig2.idx")
    save(db, path)
    return queries, expected, auto_expected, path


def test_mapped_serial_byte_identical(fig2_store):
    queries, expected, _auto_expected, path = fig2_store
    store = load(path)
    try:
        engine = RingKnnEngine(store.database)
        for query, (expected_solutions, expected_doc) in zip(
            queries, expected
        ):
            trace = QueryTrace()
            got = engine.evaluate(query, trace=trace)
            assert got.solutions == expected_solutions
            assert _comparable(trace) == expected_doc
    finally:
        store.close()


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_mapped_pool_sweep_byte_identical(
    fig2_store, monkeypatch, workers, start_method
):
    queries, _expected, auto_expected, path = fig2_store
    monkeypatch.setenv(ENV_START_METHOD, start_method)
    shutdown_pools()
    store = load(path)
    try:
        db = store.database
        results = QueryScheduler(db, workers=workers).run_batch(queries)
        assert len(results) == len(queries)
        for got, want in zip(results, auto_expected):
            assert got.solutions == want.solutions, (workers, start_method)
            assert got.engine == want.engine, (workers, start_method)
            assert _counts(got.stats) == _counts(want.stats)
        if workers >= 2:
            pool = pool_for(db, workers)
            assert pool.start_method == start_method
            # The perf point of the format: workers attached to the
            # file mapping directly — no shm segment was ever flattened.
            assert pool._shm is None
            assert active_segments() == ()
    finally:
        shutdown_pools()
        store.close()


def test_mapped_scheduler_batch(fig2_store, monkeypatch):
    queries, _expected, auto_expected, path = fig2_store
    monkeypatch.setenv(ENV_START_METHOD, "fork")
    shutdown_pools()
    store = load(path)
    scheduler = QueryScheduler(store.database, workers=2)
    try:
        scheduler.warmup()
        assert pool_for(store.database, 2)._shm is None
        results = scheduler.run_batch(queries)
        assert [r.solutions for r in results] == [
            want.solutions for want in auto_expected
        ]
    finally:
        scheduler.close()
        store.close()
    assert active_segments() == ()


def test_prime_materializes_hot_caches(fig2_store):
    _queries, _expected, _auto_expected, path = fig2_store
    lazy = load(path)
    primed = load(path)
    try:
        prime(primed.structure)
        lazy_bv = lazy.database.knn_ring._B
        primed_bv = primed.database.knn_ring._B
        assert "_words_i" not in vars(lazy_bv)
        assert "_words_i" in vars(primed_bv)
        assert "_cum1_i" in vars(primed_bv)
        assert "_members_i" in vars(primed.database.knn_ring)
    finally:
        lazy.close()
        primed.close()


def _bitvector_arrays(node):
    """Manifest indices of every bitvector's words and rank directory."""
    if isinstance(node, dict):
        if node.get("kind") == "bitvector":
            yield node["words"]
            yield node["blocks"]
        for child in node.values():
            yield from _bitvector_arrays(child)
    elif isinstance(node, list):
        for child in node:
            yield from _bitvector_arrays(child)


@pytest.fixture(scope="module")
def fig2_bitvector_spans(fig2_store):
    """The saved Figure-2 file's bytes, and the ``(start, nbytes)`` file
    span of each bitvector array in it."""
    *_ignored, path = fig2_store
    store = load(path)
    manifest = store.manifest
    store.close()
    spans = []
    for index in _bitvector_arrays(manifest.root):
        offset, dtype, (count,) = manifest.entries[index]
        spans.append((manifest.base + offset, count * int(dtype[2:])))
    with open(path, "rb") as handle:
        return handle.read(), spans


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flipped_bitvector_bit_is_a_typed_error_without_verify(
    fig2_store, fig2_bitvector_spans, data
):
    """Past the checksum (``verify=False``) the per-word counts are
    recounted from the words and held against the stored directory, so
    one flipped bit in either is caught when the mirror is derived."""
    raw, spans = fig2_bitvector_spans
    start, nbytes = data.draw(st.sampled_from(spans))
    bit = data.draw(st.integers(0, nbytes * 8 - 1))
    flipped = bytearray(raw)
    flipped[start + bit // 8] ^= 1 << (bit % 8)
    path = fig2_store[-1] + ".flipped"
    with open(path, "wb") as handle:
        handle.write(flipped)

    with pytest.raises(StoreChecksumError):
        load(path)
    store = load(path, verify=False)
    try:
        try:
            prime(store.structure)
        except StoreFormatError as exc:
            # Read here: a kept traceback would pin views of the mapping.
            message = str(exc)
        else:
            message = None
        assert message is not None and "rank directory" in message
    finally:
        store.close()


def test_index_bytes_per_edge_budget(tmp_path):
    """The index stays succinct in fact: at the recorded Figure-2 scale
    (the benchmark's query graph) the whole file — header, manifest,
    segment — costs at most 9.5 bytes per stored edge."""
    from repro.datasets.wikimedia import generate_benchmark

    bench = generate_benchmark(Context().data)
    db = GraphDatabase(bench.graph, bench.knn_graph)
    edges = bench.graph.num_edges + int(bench.knn_graph.lengths.sum())
    assert save(db, str(tmp_path / "fig2.idx")) / edges <= 9.5


def test_attached_ops_return_plain_ints(fig2_store):
    """No numpy scalars may escape mmap-attached hot-path operations.

    The canonical arrays are views over the mapping; the plain-int
    ``_i`` mirrors (built lazily, or eagerly via ``prime``) are the
    coercion boundary. Every public read a query evaluation bottoms
    out in must hand back builtin ints — a ``numpy.int64`` here would
    re-enter numpy dispatch on every later arithmetic op.
    """

    def plain_int(value):
        return type(value) is int

    _queries, _expected, _auto_expected, path = fig2_store
    store = load(path)
    try:
        db = store.database
        ring = db.knn_ring
        bv = ring._B
        assert plain_int(bv.rank1(len(bv) // 2))
        assert plain_int(bv.rank0(len(bv) // 2))
        assert plain_int(bv.select1(1))
        assert plain_int(bv.select0(1))
        members = ring.members.tolist()
        u = members[0]
        assert all(plain_int(m) for m in ring._members_i)
        assert all(plain_int(v) for v in ring.neighbors_of(u, ring.K))
        assert all(
            plain_int(v) for v in ring.reverse_neighbors_of(u, ring.K)
        )
        assert plain_int(ring.forward_count(u, ring.K))
        wt = db.ring._columns["o"]
        assert plain_int(wt.access(0))
        assert plain_int(wt.rank(wt.access(0), 1))
        assert plain_int(wt.select(wt.access(0), 1))
        assert plain_int(wt.total_count(wt.access(0)))
    finally:
        store.close()


def test_store_manifest_attaches_same_answers(fig2_store):
    queries, expected, _auto_expected, path = fig2_store
    store = load(path)
    attached = attach(store.manifest)
    try:
        engine = RingKnnEngine(attached.structure)
        got = engine.evaluate(queries[0])
        assert got.solutions == expected[0][0]
    finally:
        attached.close()
        store.close()


def test_from_index_classmethods(fig2_store):
    queries, _expected, auto_expected, path = fig2_store
    db = GraphDatabase.from_index(path)
    assert db.graph is None  # raw tables deliberately not carried
    assert db.store is not None
    engine = AutoEngine.from_index(path)
    try:
        got = engine.evaluate(queries[0])
        assert got.solutions == auto_expected[0].solutions
    finally:
        engine.close()
    db.store.close()


# ----------------------------------------------------------------------
# CLI: repro build / --from-index
# ----------------------------------------------------------------------
def test_cli_build_and_from_index(tmp_path, capsys):
    from repro.cli import main

    bundle = str(tmp_path / "b.npz")
    index = str(tmp_path / "b.idx")
    scale = [
        "--entities", "60", "--images", "30", "--misc-triples", "200",
        "--K", "6",
    ]
    assert main(["generate", "--out", bundle, *scale]) == 0
    assert main(["build", "--data", bundle, "--out", index]) == 0
    assert os.path.exists(index)
    capsys.readouterr()

    query = "(?x, 0, ?y) . knn(?x, ?y, 3)"
    assert main(["query", "--data", bundle, "--query", query]) == 0
    built_out = capsys.readouterr().out
    assert main(["query", "--from-index", index, "--query", query]) == 0
    mapped_out = capsys.readouterr().out
    # Identical solutions; only the summary line may differ in timing.
    assert built_out.splitlines()[:-1] == mapped_out.splitlines()[:-1]


@pytest.mark.parametrize("start_method", START_METHODS)
def test_cli_from_index_pool_leaves_stderr_empty(tmp_path, start_method):
    """A store-backed pool creates no shared segment at all, so neither
    the parent nor a worker has anything for a resource tracker to warn
    about at exit; only a fresh process shows it.
    """
    import json
    import re
    import signal
    import subprocess
    import time
    from http.client import HTTPConnection

    import repro

    bundle = str(tmp_path / "b.npz")
    index = str(tmp_path / "b.idx")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        ENV_START_METHOD: start_method,
    }

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    assert cli(
        "generate", "--out", bundle, "--entities", "60", "--images", "30",
        "--misc-triples", "200", "--K", "6",
    ).returncode == 0
    assert cli("build", "--data", bundle, "--out", index).returncode == 0
    # `repro serve` is the CLI's door to the pool: boot it on the index
    # file, have a worker answer one query, drain it.
    with open(tmp_path / "serve.out", "w+") as out, open(
        tmp_path / "serve.err", "w+"
    ) as err:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--from-index",
                index, "--workers", "2", "--port", "0", "--no-cache",
            ],
            env=env, stdout=out, stderr=err, text=True,
        )
        try:
            deadline = time.monotonic() + 120
            port = None
            while port is None and time.monotonic() < deadline:
                out.seek(0)
                match = re.search(r"serving on http://[^:]+:(\d+)", out.read())
                if match:
                    port = int(match.group(1))
                elif server.poll() is not None:
                    break
                else:
                    time.sleep(0.1)
            err.seek(0)
            assert port is not None, err.read()
            connection = HTTPConnection("127.0.0.1", port, timeout=120)
            connection.request(
                "POST", "/query",
                body=json.dumps(
                    {"query": "(?e, 0, ?img) . knn(?img, ?other, 4)"}
                ),
            )
            answer = json.loads(connection.getresponse().read())
            connection.close()
        finally:
            server.send_signal(signal.SIGTERM)
            returncode = server.wait(timeout=120)
        err.seek(0)
        stderr = err.read()
    assert returncode == 0, stderr
    assert stderr == ""
    # A worker answered, and found something.
    assert answer["route"] == "batched"
    assert answer["solutions"]


def test_cli_from_index_rejects_graph_engines(tmp_path, capsys):
    from repro.cli import main

    bundle = str(tmp_path / "b.npz")
    index = str(tmp_path / "b.idx")
    scale = [
        "--entities", "60", "--images", "30", "--misc-triples", "200",
        "--K", "6",
    ]
    assert main(["generate", "--out", bundle, *scale]) == 0
    assert main(["build", "--data", bundle, "--out", index]) == 0
    capsys.readouterr()
    # main() maps the typed error to exit code 2 + a one-line message.
    code = main(
        [
            "query",
            "--from-index", index,
            "--engine", "baseline",
            "--query", "(?x, 0, ?y)",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "ValidationError" in err and "raw graph tables" in err
