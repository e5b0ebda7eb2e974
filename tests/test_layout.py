"""One battery for the one layout (:mod:`repro.store.layout`).

* **Round trips** — Hypothesis properties per declared structure
  (BitVector, WaveletTree, CumulativeCounts, KnnRing,
  DistanceRangeIndex, GraphDatabase): save → load → query answers
  exactly as the original, over the one carrier, a real index file.
  Every trip also checks the attach contract: mirrors absent then
  rebuilt identically, transient state reset, views read-only.
* **Walker bounds** — an entry's length is bounds-checked against the
  segment and must be a whole number of its field's declared dtype, and
  a value too wide for that dtype is refused at flatten time, by field
  name, instead of wrapping.
* **Failure paths** — a load that fails mid-walk closes its mapping
  (the conftest leak check records it), and a pool start whose
  scratch save fails leaves no file behind.
* **Pinned bytes** — the index file of the golden Figure-2 database is
  byte-identical to the one the format's first writer produced
  (``tests/golden/figure2_index.json``), which is what keeps
  ``FORMAT_VERSION`` at 5. Version 4 builds each Ring column over its
  own alphabet and stores member ranks in ``S``, ``S'`` and ``D``; it
  re-pinned the file at 9,548 bytes (11,908 under version 3). Version 5
  records each array as ``[nbytes, crc32]`` and the manifest's CRC-32 in
  the header.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.database import GraphDatabase
from repro.engines.ring_knn import RingKnnEngine
from repro.graph.triples import GraphData
from repro.knn.builders import build_knn_graph
from repro.knn.distance_index import DistanceRangeIndex
from repro.knn.succinct import KnnRing
from repro.parallel.executor import WorkerPool
from repro.query.model import ExtendedBGP, SimClause, TriplePattern, Var
from repro.store import FORMAT_VERSION, Manifest, load, save
from repro.store.format import pack_header
from repro.store.layout import SegmentView
from repro.succinct.arrays import CumulativeCounts
from repro.succinct.bitvector import BitVector
from repro.succinct.fields import FIXED_READS, Array, Child
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
    # back-reference, and a node with arrays the CRC-32s its first read
    # holds them to).
    lazy = {name + "_i" for name in layout.mirrored} | set(layout.derived)
    attached = {"_store", "_sums"}
    assert (set(vars(got)) - attached) | lazy == set(vars(original)) | lazy
    assert ("_sums" in vars(got)) == bool(layout.arrays)
    for spec in layout.transients:
        assert getattr(got, spec.name) == spec.reset
        if isinstance(spec.reset, dict):
            # Each attach gets its own, shared with no other node (a
            # wavelet memo shared by two trees would answer one tree's
            # question with the other's).
            assert getattr(got, spec.name) is not spec.reset
            assert getattr(got, spec.name) is not getattr(original, spec.name)
    for name in layout.derived:
        # Never persisted; recomputed on first touch, and identically
        # (an attached bitvector's tables read the mapping until it
        # promotes, so they are compared entry by entry).
        assert name not in vars(got)
        assert [*getattr(got, name)] == [*getattr(original, name)]
        assert name in vars(got)
    for _key, spec in layout.persisted:
        name = spec.name
        if isinstance(spec, Array):
            # A read-only view of the mapping, holding what was built.
            assert getattr(got, name).readonly
            assert [*getattr(got, name)] == [*getattr(original, name)]
            if spec.mirrored:
                # Never persisted; rebuilt lazily, and identically.
                mirror = name + "_i"
                assert mirror not in vars(got)
                assert [*getattr(got, mirror)] == [*getattr(original, mirror)]
                assert mirror in vars(got)
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
    # Read, so held to its checksums (and they held).
    assert not layout.arrays or got._sums == ()


def _check_bitvector(got, original, bits):
    assert len(got) == len(original)
    assert list(got) == list(original)
    for i in range(len(bits) + 1):
        assert got.rank1(i) == original.rank1(i)
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


#: Bit sequences at the cold reader's edges: empty and shorter than a
#: word, longer than a block but not a multiple of one, all ones, all
#: zeros — as ``(n, seed, density)``, the bits drawn from the seed.
edge_bits = st.one_of(
    st.tuples(st.integers(0, 63), st.integers(0, 2**16), st.floats(0, 1)),
    st.tuples(
        st.integers(513, 2100).filter(lambda n: n % 512),
        st.integers(0, 2**16),
        st.floats(0, 1),
    ),
    st.tuples(st.integers(0, 1100), st.just(0), st.sampled_from([0.0, 1.0])),
)


def _bits(n, seed, density):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < density).astype(np.uint8)


def _promoted(bv):
    """Whether an attached bitvector holds its full lists."""
    return type(vars(bv).get("_cum1_i")) is list


#: Every read of one kind, over a bitvector's whole domain.
BITVECTOR_READS = {
    "rank1": lambda bv: [bv.rank1(i) for i in range(len(bv) + 1)],
    "select1": lambda bv: [bv.select1(j) for j in range(1, bv.n_ones + 1)],
    "select0": lambda bv: [bv.select0(j) for j in range(1, bv.n_zeros + 1)],
    "access": lambda bv: [bv.access(i) for i in range(len(bv))],
}


def _check_cold_bitvector(path, original):
    """Each kind of read, from a fresh unprimed attach, answers as the
    built vector: on the mapping, and after the vector promotes. A pass
    of ``rank1`` reads the counts ``n + 1`` times, so at most the
    vector's budget of passes promotes it."""
    want = {kind: reads(original) for kind, reads in BITVECTOR_READS.items()}
    for kind, reads in BITVECTOR_READS.items():
        store = load(path, verify=False)
        try:
            got = store.structure
            assert not _promoted(got)
            assert reads(got) == want[kind]
            for _ in range(FIXED_READS + len(got._blocks)):
                if _promoted(got):
                    break
                assert BITVECTOR_READS["rank1"](got) == want["rank1"]
            assert _promoted(got)
            assert {k: r(got) for k, r in BITVECTOR_READS.items()} == want
        finally:
            got = None
            store.close()


@settings(max_examples=40, deadline=None)
@given(shape=edge_bits)
def test_attached_bitvector_reads_as_built_before_and_after_promotion(shape):
    trip = _RoundTrip(BitVector(_bits(*shape)))
    try:
        _check_cold_bitvector(trip.path, trip._structure)
    finally:
        trip.close()


def _tree_reads(tree, sigma):
    """Access, rank, select_next and the range report of ``tree``,
    each answered by a descent (the memo emptied first)."""
    for memo in ("_memo_rank", "_memo_next", "_memo_values", "_memo_select"):
        getattr(tree, memo).clear()
    tree._memo_held = 0
    n = len(tree)
    step = max(1, n // 40)
    return (
        [tree.access(i) for i in range(n)],
        [tree.rank(c, i) for c in range(sigma) for i in range(0, n + 1, step)],
        [
            tree.select_next(c, i)
            for c in range(sigma)
            for i in range(0, n, step)
        ],
        [
            tuple(tree.distinct_values(lo, min(n - 1, lo + width)))
            for lo in range(0, n, step)
            for width in (0, 7, 200)
        ],
    )


def _check_cold_wavelet(path, original, sigma):
    """An unprimed tree answers as the built one while its levels read
    the mapping and as they promote; once all have, the level view
    holds the levels' own lists, so a hot level runs exactly the built
    tree's loop."""
    want = _tree_reads(original, sigma)
    store = load(path, verify=False)
    try:
        got = store.structure
        assert not any(map(_promoted, got._levels))
        assert _tree_reads(got, sigma) == want
        # An access reads every level once: at most a level's budget of
        # passes promotes them all.
        budget = FIXED_READS + max(len(lv._blocks) for lv in got._levels)
        for _ in range(budget):
            assert [got.access(i) for i in range(len(got))] == want[0]
            if all(map(_promoted, got._levels)):
                break
        assert all(map(_promoted, got._levels))
        assert _tree_reads(got, sigma) == want
        for (words, cum, _z), level in zip(got._lv, got._levels, strict=True):
            assert type(words) is list and words is level._words_i
            assert type(cum) is list and cum is level._cum1_i
    finally:
        got = level = None
        store.close()


@settings(max_examples=25, deadline=None)
@given(shape=edge_bits, sigma=st.integers(1, 12))
def test_attached_wavelet_tree_reads_as_built_before_and_after_promotion(
    shape, sigma
):
    """Over sequences of the edge lengths: a random symbol where the
    bits are set, 0 elsewhere (all zeros, all random)."""
    n, seed, density = shape
    n = max(n, 1)
    symbols = np.random.default_rng(seed).integers(0, sigma, n)
    sequence = np.where(_bits(n, seed, density), symbols, 0)
    trip = _RoundTrip(WaveletTree(sequence, sigma))
    try:
        _check_cold_wavelet(trip.path, trip._structure, sigma)
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
    # The level view the next descent reads (a level that promoted
    # dropped it; the descent rebuilds it) is over the attached tree's
    # own mirrors; each level's zero count is derived from its
    # bitvector's total, not stored.
    view = got._lv or got._level_view()
    assert [(words, z) for words, _cum, z in view] == [
        (level._words_i, len(level) - level.n_ones) for level in got._levels
    ]
    # Entry by entry: a level that has not promoted holds readers over
    # the mapping.
    assert [(list(w), list(c), z) for w, c, z in view] == original._lv


@by_carrier
@settings(max_examples=30, deadline=None)
@given(data=st.data(), sigma=st.integers(1, 12))
def test_wavelet_tree_roundtrip(carrier, data, sigma):
    sequence = data.draw(
        st.lists(st.integers(0, sigma - 1), min_size=1, max_size=120)
    )
    original = WaveletTree(sequence, sigma)
    # A live recorder, a filled memo and the level view on the original
    # must not cross the boundary (the attach contract asserts that
    # every declared transient arrives reset, each memo an empty dict of
    # the loaded tree's own).
    assert "_lv" in {spec.name for spec in WaveletTree.LAYOUT.transients}
    n = len(sequence)
    original.rank(0, n)
    original.select_next(0, 0)
    original.range_next_value(0, n - 1, 0)
    original.seeker(0, n - 1)(0)
    assert original._lv is not None and original._memo_held
    assert all(
        getattr(original, name)
        for name in ("_memo_rank", "_memo_select", "_memo_next", "_memo_values")
    )
    original.ops = object()
    trip = _RoundTrip(original)
    original.ops = None
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
            assert got.forward_range(u, k) == original.forward_range(u, k)


@by_carrier
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(5, 14))
def test_knn_ring_roundtrip(carrier, seed, n):
    points = np.random.default_rng(seed).normal(size=(n, 3))
    trip = _RoundTrip(KnnRing(build_knn_graph(points, K=3)))
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
            lo, hi = span = got.range_within(u, d)
            assert span == original.range_within(u, d)
            near = original.neighbors_within(u, d)
            for low in original.members[::3].tolist():
                want = min((v for v in near if v >= low), default=None)
                got_next = (
                    got.D._range_next_id_u(got._members_i, lo, hi, low)
                    if lo <= hi else None
                )
                assert got_next == want


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
        build_knn_graph(points, K=3),
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

    def get(nbytes, dtype="<i4"):
        manifest = Manifest(
            entries=((8, nbytes, 0),), root={}, nbytes=len(segment)
        )
        view = SegmentView(manifest, segment, verify=True)
        return view.get(0, dtype, "node", "field")

    assert get(8).shape == (2,)  # ends exactly where the segment does
    assert get(8, "<u8").shape == (1,)
    with pytest.raises(StoreFormatError, match=r"node\.field spans bytes \[8, 20\)"):
        get(12)
    with pytest.raises(StoreFormatError, match=r"node\.field holds 4 bytes, not a whole"):
        get(4, "<u8")


def _counts_table(cum):
    """A ``CumulativeCounts`` holding the stored table ``cum``: a column
    of 2**31 entries is too large to build in a test."""
    counts = CumulativeCounts([0], alphabet_size=1)
    counts._cum = np.array(cum, dtype=np.int64)
    counts._n, counts._sigma = cum[-1], len(cum) - 1
    return counts


def test_value_past_the_declared_width_is_refused_at_save(tmp_path):
    counts = _counts_table([0, 2**31 - 1, 2**31])
    path = str(tmp_path / "wide.idx")
    with pytest.raises(StructureError, match=r"cumcounts\.cum .* '<i4'"):
        save(counts, path)
    assert not os.path.exists(path)
    # One less fits, and reads back as written.
    save(_counts_table([0, 2**31 - 1]), path)
    store = load(path)
    try:
        assert store.structure.before(1) == 2**31 - 1
    finally:
        store.close()


# ----------------------------------------------------------------------
# failure paths: a failed load or scratch save strands no resource
# ----------------------------------------------------------------------
@pytest.fixture
def recorded_mappings(_leak_check):
    """Every mapping ``repro.store.io`` opened in this test, as the
    conftest leak check records them."""
    return _leak_check.mappings


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
    end = max(offset + nbytes for offset, nbytes, _crc in manifest.entries)
    with open(path, "r+b") as handle:
        handle.write(
            pack_header(
                header.manifest_len, end - 1, header.checksum,
                header.manifest_crc,
            )
        )
    opened = len(recorded_mappings)
    with pytest.raises(StoreFormatError, match="spans bytes"):
        load(path, verify=False)
    assert len(recorded_mappings) == opened + 1
    assert all(mapping.closed for mapping in recorded_mappings), (
        "the failed load left it open"
    )


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
    assert FORMAT_VERSION == pinned["format_version"] == 5
    path = figure2.index_path
    assert os.path.getsize(path) == pinned["nbytes"]
    with open(path, "rb") as handle:
        raw = handle.read()
    assert hashlib.sha256(raw).hexdigest() == pinned["sha256"]
