"""One battery for the one layout (:mod:`repro.store.layout`).

* **Round trips** — Hypothesis properties per declared structure
  (BitVector, WaveletTree, CumulativeCounts, KnnRing,
  DistanceRangeIndex, GraphDatabase): save → load → query answers
  exactly as the original, over the one carrier, a real index file.
  Every trip also checks the attach contract: mirrors absent then
  rebuilt identically, transient state reset, views read-only.
* **Walker bounds** — an entry is bounds-checked at its own dtype's
  width, and a value too wide for a field's declared dtype is refused
  at flatten time, by field name, instead of wrapping.
* **Failure paths** — a load that fails mid-walk closes its mapping
  (the sanitizer's ledger is left clean), and a pool start whose
  scratch save fails leaves no file behind.
* **Pinned bytes** — the index file of the golden Figure-2 database is
  byte-identical to the one the format's first writer produced
  (``tests/golden/figure2_index.json``), which is what keeps
  ``FORMAT_VERSION`` at 3.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.io as store_io
from repro.analysis import sanitize
from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph_bruteforce
from repro.knn.distance_index import DistanceRangeIndex
from repro.knn.succinct import KnnRing
from repro.parallel.executor import WorkerPool
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var
from repro.store import FORMAT_VERSION, Manifest, load, save
from repro.store.format import pack_header
from repro.store.layout import SegmentView
from repro.succinct.arrays import CumulativeCounts
from repro.succinct.bitvector import BitVector
from repro.succinct.fields import Array, Child
from repro.succinct.wavelet_tree import WaveletTree
from repro.utils.errors import StoreFormatError, StructureError

#: The one carrier of the layout. Kept as a parameter so each test's id
#: still names what carried its bytes.
CARRIERS = ("file",)
by_carrier = pytest.mark.parametrize("carrier", CARRIERS)


class _RoundTrip:
    """Save + load a structure through a real index file, with
    guaranteed release (leak-checked per example).

    Assertions against the loaded store run inside :meth:`check` so no
    test-frame local keeps a numpy view alive when :meth:`close` drops
    the mapping — a lingering view would turn the close into a leak.
    """

    def __init__(self, structure: object) -> None:
        self._structure = structure
        self._dir = tempfile.mkdtemp(prefix="repro-layout-test-")
        self.path = os.path.join(self._dir, "structure.idx")
        self.nbytes = save(structure, self.path)
        self.attached = load(self.path)

    def check(self, checker, *args) -> None:
        _check_attach_contract(self.attached.structure, self._structure)
        checker(self.attached.structure, self._structure, *args)

    def close(self) -> None:
        self.attached.close()
        shutil.rmtree(self._dir, ignore_errors=True)


def _check_attach_contract(got, original):
    """What attaching promises of every node, whatever its class."""
    assert type(got) is type(original)
    layout = type(original).LAYOUT
    # The declaration is complete: apart from the mirrors and derived
    # tables, every attribute a constructor sets is declared, so attach
    # restores it (a loaded database also carries its store's
    # back-reference).
    lazy = {name + "_i" for name in layout.mirrored} | set(layout.derived)
    assert (set(vars(got)) - {"_store"}) | lazy == set(vars(original)) | lazy
    for spec in layout.transients:
        assert getattr(got, spec.name) == spec.reset
    for name in layout.derived:
        # Never persisted; recomputed on first touch, and identically.
        assert name not in vars(got)
        assert getattr(got, name) == getattr(original, name)
        assert name in vars(got)
    for _key, spec in layout.persisted:
        name = spec.name
        if isinstance(spec, Array):
            assert not getattr(got, name).flags.writeable
            if spec.mirrored:
                # Never persisted; rebuilt lazily, and identically.
                assert name + "_i" not in vars(got)
                assert getattr(got, name + "_i") == getattr(original, name + "_i")
                assert name + "_i" in vars(got)
        elif isinstance(spec, Child):
            children = getattr(got, name), getattr(original, name)
            if spec.many == "list":
                pairs = zip(*children, strict=True)
            elif spec.many == "dict":
                assert list(children[0]) == list(children[1])
                pairs = zip(children[0].values(), children[1].values())
            else:
                pairs = [children] if children[1] is not None else []
            for got_child, original_child in pairs:
                _check_attach_contract(got_child, original_child)


def _check_bitvector(got, original, bits):
    assert len(got) == len(original)
    assert list(got) == list(original)
    for i in range(len(bits) + 1):
        assert got.rank1(i) == original.rank1(i)
        assert got.rank0(i) == original.rank0(i)
    for j in range(1, original.n_ones + 1):
        assert got.select1(j) == original.select1(j)
    for j in range(1, original.n_zeros + 1):
        assert got.select0(j) == original.select0(j)


@by_carrier
@settings(max_examples=30, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=160))
def test_bitvector_roundtrip(carrier, bits):
    trip = _RoundTrip(BitVector(bits))
    try:
        assert trip.nbytes == os.path.getsize(trip.path)
        trip.check(_check_bitvector, bits)
    finally:
        trip.close()


def _check_wavelet(got, original, sequence, sigma):
    assert len(got) == len(original)
    assert got.alphabet_size == original.alphabet_size
    assert got.height == original.height
    for i in range(len(sequence)):
        assert got.access(i) == original.access(i)
    for c in range(sigma):
        assert got.total_count(c) == original.total_count(c)
        for i in range(0, len(sequence) + 1, 7):
            assert got.rank(c, i) == original.rank(c, i)
        for j in range(1, original.total_count(c) + 1):
            assert got.select(c, j) == original.select(c, j)
        for lo in range(0, len(sequence), 5):
            hi = min(lo + 11, len(sequence) - 1)
            assert got.range_next_value(lo, hi, c) == (
                original.range_next_value(lo, hi, c)
            )
    # The descents above rebuilt the level view, over the attached
    # tree's own mirrors; each level's zero count is derived from its
    # bitvector's total, not stored.
    assert [(words, z) for words, _cum, z in got._lv] == [
        (level._words_i, len(level) - level.n_ones) for level in got._levels
    ]
    assert got._lv == original._lv


@by_carrier
@settings(max_examples=30, deadline=None)
@given(data=st.data(), sigma=st.integers(1, 12))
def test_wavelet_tree_roundtrip(carrier, data, sigma):
    sequence = data.draw(
        st.lists(st.integers(0, sigma - 1), min_size=1, max_size=120)
    )
    original = WaveletTree(sequence, sigma)
    # A live recorder, memo and level view on the original must not
    # cross the boundary (the attach contract asserts that every
    # declared transient arrives reset).
    assert "_lv" in {spec.name for spec in WaveletTree.LAYOUT.transients}
    original.access(0)
    assert original._lv is not None
    original.ops = object()
    original.begin_query_memo()
    trip = _RoundTrip(original)
    original.ops = None
    original.end_query_memo()
    try:
        trip.check(_check_wavelet, sequence, sigma)
    finally:
        trip.close()


def _check_cumcounts(got, original, sigma):
    assert len(got) == len(original)
    assert got.alphabet_size == original.alphabet_size
    for c in range(sigma + 1):
        assert got.before(c) == original.before(c)


@by_carrier
@settings(max_examples=30, deadline=None)
@given(data=st.data(), sigma=st.integers(1, 12))
def test_cumulative_counts_roundtrip(carrier, data, sigma):
    column = data.draw(
        st.lists(st.integers(0, sigma - 1), min_size=1, max_size=120)
    )
    trip = _RoundTrip(CumulativeCounts(column, sigma))
    try:
        trip.check(_check_cumcounts, sigma)
    finally:
        trip.close()


def _check_knn_ring(got, original):
    assert got.K == original.K
    assert np.array_equal(got.members, original.members)
    for u in original.members.tolist():
        for k in range(1, original.K + 1):
            assert got.neighbors_of(u, k) == original.neighbors_of(u, k)
            assert got.reverse_neighbors_of(
                u, k
            ) == original.reverse_neighbors_of(u, k)
            assert got.forward_count(u, k) == original.forward_count(u, k)
            assert got.forward_range(u, k) == original.forward_range(u, k)


@by_carrier
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(5, 14))
def test_knn_ring_roundtrip(carrier, seed, n):
    points = np.random.default_rng(seed).normal(size=(n, 3))
    trip = _RoundTrip(KnnRing(build_knn_graph_bruteforce(points, K=3)))
    try:
        trip.check(_check_knn_ring)
    finally:
        trip.close()


def _check_distance_index(got, original):
    assert got.d_max == original.d_max
    assert np.array_equal(got.members, original.members)
    for u in original.members.tolist():
        for d in (0.5, 1.25, 2.5):
            assert got.neighbors_within(u, d) == original.neighbors_within(
                u, d
            )
            assert got.count_within(u, d) == original.count_within(u, d)
            for low in original.members[::3].tolist():
                assert got.leap_within(u, d, low) == original.leap_within(u, d, low)


@by_carrier
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(5, 14))
def test_distance_range_index_roundtrip(carrier, seed, n):
    points = np.random.default_rng(seed).normal(size=(n, 3))
    trip = _RoundTrip(DistanceRangeIndex(points, d_max=2.5))
    try:
        trip.check(_check_distance_index)
    finally:
        trip.close()


def _check_database(got, original):
    # Attached without the raw tables, the database still answers.
    assert got.graph is None and got.knn_graphs == {}
    x, y, z = Var("x"), Var("y"), Var("z")
    query = ExtendedBGP(
        [TriplePattern(x, 50, y)], clauses=[SimClause(y, 2, z)]
    )
    expected = RingKnnEngine(original).evaluate(query)
    result = RingKnnEngine(got).evaluate(query)
    assert result.solutions == expected.solutions
    assert result.stats.leap_calls == expected.stats.leap_calls
    assert result.stats.bindings == expected.stats.bindings


@by_carrier
def test_graph_database_roundtrip_query_equality(carrier):
    rng = np.random.default_rng(11)
    triples = [
        (int(rng.integers(0, 12)), 50, int(rng.integers(0, 12)))
        for _ in range(40)
    ]
    points = rng.normal(size=(12, 2))
    db = GraphDatabase(
        GraphData(triples),
        build_knn_graph_bruteforce(points, K=3),
        distance_index=DistanceRangeIndex(points, d_max=1.5),
    )
    trip = _RoundTrip(db)
    try:
        trip.check(_check_database)
    finally:
        trip.close()


# ----------------------------------------------------------------------
# walker bounds: widths come from the declared dtype
# ----------------------------------------------------------------------
def test_entry_bounds_use_the_dtype_itemsize():
    segment = bytearray(16)

    def get(count):
        manifest = Manifest(
            entries=((8, "<i4", (count,)),), root={}, nbytes=len(segment)
        )
        return SegmentView(manifest, segment).get(0, "<i4", "node", "field")

    assert get(2).shape == (2,)  # ends exactly where the segment does
    with pytest.raises(StoreFormatError, match=r"node\.field spans bytes \[8, 20\)"):
        get(3)


def test_value_past_the_declared_width_is_refused_at_save(tmp_path):
    counts = CumulativeCounts.from_counts(np.array([2**31 - 1, 1]))
    path = str(tmp_path / "wide.idx")
    with pytest.raises(StructureError, match=r"cumcounts\.cum .* '<i4'"):
        save(counts, path)
    assert not os.path.exists(path)
    # One less fits, and reads back as written.
    save(CumulativeCounts.from_counts(np.array([2**31 - 1])), path)
    store = load(path)
    try:
        assert store.structure.before(1) == 2**31 - 1
    finally:
        store.close()


# ----------------------------------------------------------------------
# failure paths: a failed load or scratch save strands no resource
# ----------------------------------------------------------------------
@pytest.fixture
def recorded_mappings(monkeypatch):
    """Route ``repro.store.io``'s mappings through the sanitizer's
    ledger-recording twin, whether or not ``REPRO_SANITIZE`` is set;
    returns the list of every mapping opened."""
    opened = []

    def open_mapping(*args, **kwargs):
        opened.append(sanitize._SanitizedMmap(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(
        store_io,
        "mmap",
        SimpleNamespace(mmap=open_mapping, ACCESS_READ=mmap.ACCESS_READ),
    )
    return opened


@by_carrier
def test_failed_attach_leaves_no_live_mapping(
    carrier, recorded_mappings, tmp_path
):
    path = str(tmp_path / "structure.idx")
    save(WaveletTree([3, 1, 4, 1, 5, 2, 6, 5, 3, 5], 7), path)
    store = load(path)
    manifest, header = store.manifest, store.header
    store.close()
    # Have the header claim a segment one byte short of its furthest
    # array: the walk attaches views of the earlier arrays, then fails.
    end = max(
        offset + math.prod(shape) * np.dtype(dtype).itemsize
        for offset, dtype, shape in manifest.entries
    )
    with open(path, "r+b") as handle:
        handle.write(
            pack_header(header.manifest_len, end - 1, header.checksum)
        )
    live = set(sanitize.LEDGER.live())
    opened = len(recorded_mappings)
    with pytest.raises(StoreFormatError, match="spans bytes"):
        load(path, verify=False)
    assert len(recorded_mappings) == opened + 1
    assert recorded_mappings[-1].closed, "the failed load left it open"
    assert set(sanitize.LEDGER.live()) <= live


def test_failed_scratch_save_strands_no_file(monkeypatch, tmp_path, small_db):
    """A pool over a built database saves it to a scratch file first;
    when that save fails, the start raises and leaves neither the
    scratch file nor ``save``'s temporary behind."""

    def fail(fd):
        raise OSError("injected fsync failure")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(os, "fsync", fail)
    pool = WorkerPool(small_db, 2)
    try:
        with pytest.raises(OSError, match="injected"):
            pool.warmup()
        assert os.listdir(tmp_path) == []
        assert pool.start_method == "unstarted"
    finally:
        pool.close()


# ----------------------------------------------------------------------
# pinned bytes: the format did not move
# ----------------------------------------------------------------------
def test_figure2_index_bytes_are_pinned(figure2):
    pinned = json.loads(
        (Path(__file__).parent / "golden" / "figure2_index.json").read_text()
    )
    assert FORMAT_VERSION == pinned["format_version"] == 3
    path = figure2.index_path
    assert os.path.getsize(path) == pinned["nbytes"]
    with open(path, "rb") as handle:
        raw = handle.read()
    assert hashlib.sha256(raw).hexdigest() == pinned["sha256"]
