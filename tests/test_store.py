"""Acceptance battery for the persistent on-disk index format.

Mirrors the worker pool's layers (``tests/test_parallel_shm.py``) for
:mod:`repro.store`; the per-structure round trips live in
``tests/test_layout.py``:

* **Failure modes** — truncation, bad magic, version skew (files of
  every earlier version included), checksum corruption, endianness (file
  flag and host) each raise their typed :mod:`repro.utils.errors`
  exception. An attach reads no payload: it checks the header and the
  manifest's CRC-32, and each array is held to its own CRC-32 at the
  first read of the node that owns it, so a flipped payload bit is a
  :class:`StoreChecksumError` there (or at ``prime``), never at attach
  and never a changed answer. ``verify=False`` skips the checksums —
  and even then one flipped bit in a bitvector's words or rank directory
  is a typed error, never a wrong rank: the vector's total is checked at
  its first read, each block at the block's first read, and the full
  recount runs when the vector promotes or at ``prime``. One in an
  offsets or sorted-id table is a typed error unless the table keeps
  its structure.
* **Space budget** — the Figure-2 graph's index file stays within the
  bytes-per-edge budget of ``docs/performance.md``.
* **Attached reads** — an mmap-loaded Figure-2 database hands back
  plain ints, and ``prime`` materializes its mirrors. That it answers
  like the in-memory build (solutions and traced op counts), serially
  and over worker pools under both fork and spawn, is held with every
  other door in ``tests/test_matrix.py``.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.io as store_io
from conftest import _comparable
from repro.engines.auto import AutoEngine
from repro.engines.database import GraphDatabase
from repro.experiments.registry import Context, figure2_setup
from repro.knn.distance_index import DistanceRangeIndex
from repro.ltj.knn_relation import KnnClauseRelation
from repro.parallel.executor import ENV_START_METHOD
from repro.query.model import SimClause, Var
from repro.query.parser import parse_query
from repro.store import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
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
from repro.store.layout import KINDS
from repro.succinct.bitvector import BitVector, _ColdOnes
from repro.succinct.fields import (
    FIXED_READS,
    Array,
    Child,
    ColdReader,
    ColdTable,
)
from repro.utils.errors import (
    StoreChecksumError,
    StoreEndiannessError,
    StoreFormatError,
    StoreVersionError,
)
from tests.test_golden_opcounts import GOLDEN_DATA, GOLDEN_WORKLOAD

START_METHODS = ("fork", "spawn")


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
    # Version-1 to -4 headers as those formats wrote them (same struct,
    # magic, flag and consistent lengths): refused by their version
    # alone — there is no reader kept for any. A version-3 file's K-NN
    # sequences hold node ids where version 4 reads ranks; a version-4
    # manifest's entries carry offsets and dtypes but no CRC-32.
    for old in (1, 2, 3, 4):
        _rewrite(small_index, 0, struct.pack(
            "<8sIIQQII", MAGIC, old, 1, header.manifest_len,
            header.segment_len, header.checksum, 0,
        ))
        for verify in (True, False):
            with pytest.raises(
                StoreVersionError,
                match=f"version {old} != {FORMAT_VERSION}.*repro build",
            ):
                load(small_index, verify=verify)


def test_big_endian_file_flag(small_index):
    _rewrite(small_index, 12, struct.pack("<I", 0))  # clear LE flag
    with pytest.raises(StoreEndiannessError):
        load(small_index)


def _first_read_error(store, read) -> str | None:
    """The message of the store error ``read(store.structure)`` raises,
    or ``None``; the store is closed after. The message is read inside
    the handler: a kept traceback would pin views of the mapping."""
    try:
        read(store.structure)
    except (StoreChecksumError, StoreFormatError) as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        store.close()
    return None


def test_checksum_mismatch(small_index):
    size = os.path.getsize(small_index)
    with open(small_index, "rb") as handle:
        last = handle.read()[-1]
    _rewrite(small_index, size - 1, bytes([last ^ 0xFF]))
    # The attach reads no payload; the vector's first read holds its
    # arrays to their checksums.
    message = _first_read_error(load(small_index), lambda bv: bv.rank1(3))
    assert message is not None
    assert message.startswith("StoreChecksumError") and "rebuild" in message
    # verify=False skips the checksums — the header still gates, and
    # the structural checks stay.
    message = _first_read_error(
        load(small_index, verify=False), lambda bv: bv.rank1(3)
    )
    assert message is not None
    assert message.startswith("StoreFormatError") and "rank directory" in message


def test_malformed_manifest_json(small_index):
    # Corrupt the manifest bytes, then re-stamp the checksums so the
    # JSON decode (not the manifest's CRC) is what fails.
    with open(small_index, "rb") as handle:
        raw = bytearray(handle.read())
    header = unpack_header(bytes(raw[:HEADER_SIZE]), small_index)
    raw[HEADER_SIZE : HEADER_SIZE + 8] = b"not json"
    checksum = checksum_parts(raw[HEADER_SIZE : header.total_size])
    manifest_crc = checksum_parts(
        raw[HEADER_SIZE : HEADER_SIZE + header.manifest_len]
    )
    raw[32:40] = struct.pack("<II", checksum, manifest_crc)
    with open(small_index, "wb") as handle:
        handle.write(raw)
    with pytest.raises(StoreFormatError, match="manifest"):
        load(small_index)


def _unknown_kind(entries, root):
    root["kind"] = "hologram"


def _array_index_out_of_range(entries, root):
    root["ring"]["blocks"]["s"]["cum"] = len(entries)


def _length_past_segment(entries, root):
    offset, _nbytes, crc = entries[0]
    entries[0] = (offset, 1 << 40, crc)


def _length_not_whole_elements(entries, root):
    offset, nbytes, crc = entries[0]  # a bitvector's <u8 words
    entries[0] = (offset, nbytes + 4, crc)


def _missing_key(entries, root):
    del root["ring"]["columns"]["s"]["levels"][0]["blocks"]


@pytest.mark.parametrize(
    "corrupt",
    [
        _unknown_kind,
        _array_index_out_of_range,
        _length_past_segment,
        _length_not_whole_elements,
        _missing_key,
    ],
)
def test_structurally_bad_manifest_is_format_error(
    tmp_path, small_db, monkeypatch, capsys, corrupt
):
    """A wrong manifest behind *valid* checksums is still a typed error.

    The file is rewritten whole (manifest length, padding, checksum and
    the manifest's CRC all consistent), so nothing but the structural
    validation of the attach can catch it — and a failed attach must
    leave no mapping.
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
                checksum_parts(manifest),
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


def test_prime_materializes_hot_caches(figure2):
    path = figure2.index_path
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
        lazy_bv = primed_bv = None
        lazy.close()
        primed.close()


def _bitvectors(node):
    """Every :class:`BitVector` of an attached structure tree."""
    if isinstance(node, BitVector):
        yield node
        return
    for value in vars(node).values():
        if isinstance(value, dict):
            value = list(value.values())
        for child in value if isinstance(value, list) else [value]:
            if hasattr(type(child), "LAYOUT"):
                yield from _bitvectors(child)


def test_a_lookup_derives_no_ring_level_and_prime_derives_them_all(figure2):
    """A first answer reads only the blocks it touches: one
    single-pattern lookup on the attached Figure-2 index leaves no Ring
    bitvector holding a full ``list`` of its words or counts, while
    ``prime`` still builds every mirror. Whole-level derivation coming
    back on the first read would show here and in no answer."""
    subject, predicate, _o = (int(x) for x in figure2.db.graph.spo[0])
    query = parse_query(f"({subject}, {predicate}, ?o)")
    store = load(figure2.index_path)
    try:
        got = AutoEngine(store.database).evaluate(query).solutions
        assert got == AutoEngine(figure2.db).evaluate(query).solutions
        ring = list(_bitvectors(store.database.ring))
        assert ring and any("_cum1_i" in vars(bv) for bv in ring)
        tables = ("_words_i", "_cum1_i", "_cum0_i")
        assert not any(
            type(vars(bv).get(name)) is list for bv in ring for name in tables
        )
        prime(store.structure)
        assert all(
            type(vars(bv)[name]) is list
            for bv in _bitvectors(store.structure)
            for name in tables
        )
    finally:
        ring = None
        store.close()


def _knn_lookups(db, count):
    """``(s, p, ?img) . knn(?img, ?y, k)`` for the ``count`` subject and
    predicate pairs with the fewest K-NN members as objects: the shape
    of the cold-start lookups, which mostly find one image."""
    knn = db.knn_ring
    members = set(knn.members.tolist())
    images = Counter(
        (s, p) for s, p, o in db.graph.spo.tolist() if o in members
    )
    fewest = sorted(images, key=lambda pair: (images[pair], pair))[:count]
    k = min(3, knn.K)
    return [
        parse_query(f"({s}, {p}, ?img) . knn(?img, ?y, {k})")
        for s, p in fewest
    ]


def _checked_tables(db):
    """``(structure, name)`` of the Ring's C tables and of each K-NN
    ring's member and row-offset tables."""
    tables = [(cum, "_cum_i") for cum in db.ring._blocks.values()]
    for knn in db.knn_rings.values():
        tables += [(knn, "_members_i"), (knn, "_s_offsets_i")]
    return tables


def test_a_knn_lookup_derives_no_table_and_prime_derives_them_all(figure2):
    """The twin of the test above for the tables a K-NN lookup reads:
    after one lookup on the attached, unprimed Figure-2 index, no Ring C
    table and no K-NN member or row-offset table is a full ``list`` (the
    lookup read them through their cold readers), while ``prime``
    derives every one. A whole table derived and checked at its first
    touch would show here and in no answer."""
    (query,) = _knn_lookups(figure2.db, 1)
    store = load(figure2.index_path)
    try:
        got = AutoEngine(store.database).evaluate(query).solutions
        assert got and got == AutoEngine(figure2.db).evaluate(query).solutions
        tables = _checked_tables(store.database)
        read = [vars(owner).get(name) for owner, name in tables]
        assert any(isinstance(table, ColdTable) for table in read)
        assert not any(type(table) is list for table in read)
        prime(store.structure)
        assert all(type(vars(owner)[name]) is list for owner, name in tables)
    finally:
        tables = read = None
        store.close()


def _reader_of(db, kind):
    """``(owner, name)`` of one cold reader of each kind: the Ring C
    table of the largest alphabet, a K-NN member or row-offset table, or
    the ones before each word of the Ring's longest level."""
    if kind == "C":
        coord = max("spo", key=lambda c: db.ring._blocks[c].alphabet_size)
        return db.ring._blocks[coord], "_cum_i"
    if kind == "level":
        return max(_bitvectors(db.ring), key=len), "_cum1_i"
    return db.knn_ring, kind


@pytest.mark.parametrize("kind", ["C", "_members_i", "_s_offsets_i", "level"])
def test_a_reader_kept_past_its_budget_promotes_once(figure2, monkeypatch, kind):
    """Read past its budget, a cold reader derives its full list once
    and promotes its owner once, which then holds that list; a
    reference kept to the reader (a seeker's closure keeps one for a
    whole query) answers every later read as built from the same list,
    without checks, counts, a second promotion or a second derivation,
    which would make a long unprimed query quadratic in the table's
    length."""
    calls = Counter()

    def counted(cls, method):
        real = getattr(cls, method)

        def counting(self):
            calls[method, id(self)] += 1
            return real(self)

        monkeypatch.setattr(cls, method, counting)

    counted(ColdTable, "_derive")
    counted(_ColdOnes, "_derive")
    built, name = _reader_of(figure2.db, kind)
    want = getattr(built, name)
    store = load(figure2.index_path)
    try:
        owner, _name = _reader_of(store.database, kind)
        counted(type(owner), "_promote")
        reader = getattr(owner, name)
        assert isinstance(reader, ColdReader)
        reads = 0
        while type(vars(owner)[name]) is not list:
            assert reads <= FIXED_READS + len(reader)
            assert reader[reads % len(want)] == want[reads % len(want)]
            reads += 1
        assert vars(owner)[name] == want
        for _ in range(3):
            assert [*reader] == want
        assert calls["_derive", id(reader)] == 1
        assert calls["_promote", id(owner)] == 1
    finally:
        owner = reader = None
        store.close()


def test_a_clause_reads_its_member_list_once_promoted(figure2, monkeypatch):
    """A K-NN clause relation built on an unprimed attach, while its
    member table is still a cold reader, reads every range it resolves
    after the owner promotes from the promoted list: its seeker and
    ``values`` make no cold read. A relation that kept the reader from
    its construction would answer each read of a long query through a
    Python call."""
    built = figure2.db.knn_ring
    clause = SimClause(Var("x"), min(3, built.K), Var("y"))
    anchor = int(built.members[0])
    want = KnnClauseRelation(built, clause)
    assert want.bind(0, anchor)
    want_values = list(want.values(1))
    assert want_values
    store = load(figure2.index_path)
    try:
        knn = store.database.knn_ring
        relation = KnnClauseRelation(knn, clause)
        assert isinstance(knn._members_i, ColdTable)
        knn._promote()
        assert type(vars(knn)["_members_i"]) is list
        cold_reads = Counter()
        real = ColdTable.__getitem__

        def counting(self, i):
            cold_reads[id(self)] += 1
            return real(self, i)

        monkeypatch.setattr(ColdTable, "__getitem__", counting)
        assert relation.bind(0, anchor)
        assert list(relation.values(1)) == want_values
        seek, got = relation.seeker(1), []
        value = seek(0)
        while value is not None:
            got.append(value)
            value = seek(value + 1)
        assert got == want_values
        assert not cold_reads
    finally:
        knn = relation = seek = None
        store.close()


#: The ``<i4`` tables whose plain-int mirror is a derived table that
#: checks their structure, by manifest kind.
_CHECKED_TABLES = {
    "cumcounts": ("cum",),
    "knn_ring": ("members", "s_offsets"),
    "distance_index": ("members",),
}


def _stored_arrays(node):
    """``(group, manifest index)`` of every bitvector's words and rank
    directory and of every checked ``<i4`` table."""
    if isinstance(node, dict):
        kind = node.get("kind")
        if kind == "bitvector":
            yield "bitvector", node["words"]
            yield "bitvector", node["blocks"]
        for key in _CHECKED_TABLES.get(kind, ()):
            yield f"{kind}.{key}", node[key]
        for child in node.values():
            yield from _stored_arrays(child)
    elif isinstance(node, list):
        for child in node:
            yield from _stored_arrays(child)


@pytest.fixture(scope="module")
def flip_target(tmp_path_factory):
    """The Figure-2 database with a distance index beside it, saved:
    the file's bytes and path, and the ``(start, nbytes)`` file span of
    each stored array, by group."""
    _bench, db, _workload = figure2_setup(GOLDEN_DATA, GOLDEN_WORKLOAD)
    points = np.random.default_rng(5).normal(size=(40, 2))
    db.distance_index = DistanceRangeIndex(points, d_max=1.0)
    path = str(tmp_path_factory.mktemp("flip") / "fig2.idx")
    save(db, path)
    store = load(path)
    manifest = store.manifest
    store.close()
    spans: dict[str, list[tuple[int, int]]] = {}
    for group, index in _stored_arrays(manifest.root):
        offset, nbytes, _crc = manifest.entries[index]
        spans.setdefault(group, []).append((manifest.base + offset, nbytes))
    assert set(spans) == {"bitvector"} | {
        f"{kind}.{key}" for kind, keys in _CHECKED_TABLES.items() for key in keys
    }
    with open(path, "rb") as handle:
        return handle.read(), spans, path


def _primed_error(raw: bytes, path: str) -> str | None:
    """Write ``raw`` to ``path``; check that it attaches and that
    ``prime`` refuses it by a checksum, then load it without verifying
    and prime it: the message of the :class:`StoreFormatError` that
    raises, or ``None``."""
    with open(path, "wb") as handle:
        handle.write(raw)
    message = _first_read_error(load(path), prime)
    assert message is not None and message.startswith("StoreChecksumError")
    message = _first_read_error(load(path, verify=False), prime)
    if message is None:
        return None
    assert message.startswith("StoreFormatError: ")
    return message.removeprefix("StoreFormatError: ")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flipped_bitvector_bit_is_a_typed_error_without_verify(
    flip_target, data
):
    """Under the checksums ``prime`` refuses every such flip. Past them
    (``verify=False``) ``prime`` promotes every bitvector: its per-word counts are recounted from the words and held
    against the stored directory, so one flipped bit in either is
    caught there. A checked ``<i4`` table is held to its structure as its
    mirror is derived: a flip there is caught, or leaves offsets that
    still rise from 0 to the total and ids that still strictly increase
    below the bound — what only the checksum can catch."""
    raw, spans, path = flip_target
    group = data.draw(st.sampled_from(sorted(spans)))
    start, nbytes = data.draw(st.sampled_from(spans[group]))
    bit = data.draw(st.integers(0, nbytes * 8 - 1))
    flipped = bytearray(raw)
    flipped[start + bit // 8] ^= 1 << (bit % 8)
    message = _primed_error(bytes(flipped), path + ".flipped")
    if group == "bitvector":
        assert message is not None and "rank directory" in message
    elif message is not None:
        assert "rebuild it with 'repro build'" in message
    else:
        assert _keeps_its_rule(group, raw, flipped, start, nbytes)


def _keeps_its_rule(group, raw, flipped, start, nbytes) -> bool:
    """Whether the checked ``<i4`` table at ``[start, start + nbytes)``
    still holds its rule after the flip: ids that strictly increase
    below the bound, or offsets that rise from 0 to the total."""
    before = np.frombuffer(raw, "<i4", nbytes // 4, start)
    after = np.frombuffer(bytes(flipped), "<i4", nbytes // 4, start)
    steps = np.diff(after)
    if group.endswith("members"):
        # the bound, the stored id_bound, is the largest member + 1
        return bool(
            after[0] >= 0 and after[-1] <= before[-1] and (steps > 0).all()
        )
    return bool(
        after[0] == 0 and after[-1] == before[-1] and (steps >= 0).all()
    )


@pytest.fixture(scope="module")
def ring_flip_target(figure2):
    """The golden Figure-2 index file's bytes and the ``(start,
    nbytes)`` file span of each bitvector's words and rank directory."""
    store = load(figure2.index_path)
    manifest = store.manifest
    store.close()
    spans = []
    for group, index in _stored_arrays(manifest.root):
        offset, nbytes, _crc = manifest.entries[index]
        if group == "bitvector" and nbytes:
            spans.append((manifest.base + offset, nbytes))
    with open(figure2.index_path, "rb") as handle:
        return handle.read(), spans


def _unprimed_answers(raw: bytes, path: str, queries) -> list:
    """Write ``raw`` to ``path``, attach it without verifying and without
    ``prime``, and ask each query: its solutions, or the message of the
    :class:`StoreFormatError` it raised."""
    with open(path, "wb") as handle:
        handle.write(raw)
    store = load(path, verify=False)
    answers: list = []
    try:
        engine = AutoEngine(store.database)
        for query in queries:
            try:
                result = engine.evaluate(query)
            except StoreFormatError as exc:
                # Read here: a kept traceback would pin views of the mapping.
                answers.append(str(exc))
            else:
                answers.append(result.solutions)
    finally:
        engine = None
        store.close()
    return answers


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flipped_bitvector_bit_answers_or_is_typed_unprimed(
    ring_flip_target, figure2, data
):
    """Without ``prime`` an attached bitvector reads the mapping: its
    level total is checked at its first read and each block at the
    block's first read. So with one bit of a bitvector's words or rank
    directory flipped, every golden query still answers as the built
    database does or raises a :class:`StoreFormatError` naming the rank
    directory — never another answer, an ``IndexError`` or another
    exception."""
    raw, spans = ring_flip_target
    start, nbytes = data.draw(st.sampled_from(spans))
    bit = data.draw(st.integers(0, nbytes * 8 - 1))
    flipped = bytearray(raw)
    flipped[start + bit // 8] ^= 1 << (bit % 8)
    answers = _unprimed_answers(
        bytes(flipped), figure2.index_path + ".flipped", figure2.queries
    )
    for got, want in zip(answers, figure2.auto, strict=True):
        if isinstance(got, str):
            assert "rank directory" in got
        else:
            assert got == want.solutions


@pytest.fixture(scope="module")
def table_flip_target(figure2):
    """The golden Figure-2 index file's bytes and the ``(start,
    nbytes)`` file span of each Ring C table and K-NN member and
    row-offset table, by group."""
    store = load(figure2.index_path)
    manifest = store.manifest
    store.close()
    spans: dict[str, list[tuple[int, int]]] = {}
    for group, index in _stored_arrays(manifest.root):
        offset, nbytes, _crc = manifest.entries[index]
        if group != "bitvector" and nbytes:
            spans.setdefault(group, []).append((manifest.base + offset, nbytes))
    assert set(spans) == {
        "cumcounts.cum", "knn_ring.members", "knn_ring.s_offsets"
    }
    with open(figure2.index_path, "rb") as handle:
        return handle.read(), spans


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flipped_table_bit_answers_or_is_typed_unprimed(
    table_flip_target, figure2, data
):
    """Without ``prime`` a Ring C table or a K-NN member or row-offset
    table reads the mapping, each entry a read touches held to its
    bounds and its neighbours. So with one bit of such a table flipped,
    each of a few K-NN lookups on a fresh attach answers as the built
    database does or raises a :class:`StoreFormatError` — never an
    ``IndexError`` or another exception, which would end this test — or
    the flip kept the table's rule, which only the checksum can catch.
    The lookups are small enough that no table promotes, so the readers'
    own checks are what is tested."""
    raw, spans = table_flip_target
    group = data.draw(st.sampled_from(sorted(spans)))
    start, nbytes = data.draw(st.sampled_from(spans[group]))
    bit = data.draw(st.integers(0, nbytes * 8 - 1))
    flipped = bytearray(raw)
    flipped[start + bit // 8] ^= 1 << (bit % 8)
    kept = _keeps_its_rule(group, raw, flipped, start, nbytes)
    engine = AutoEngine(figure2.db)
    for lookup in _knn_lookups(figure2.db, 16):
        (got,) = _unprimed_answers(
            bytes(flipped), figure2.index_path + ".tables", [lookup]
        )
        if isinstance(got, str):
            assert "rebuild it with 'repro build'" in got
        elif not kept:
            assert got == engine.evaluate(lookup).solutions


def test_threads_sharing_an_unprimed_index_answer_as_built(figure2):
    """Cold reads count, check blocks and promote levels on whatever
    thread reads: four threads (more than the cores) asking the golden
    queries of one unprimed attached database, switching every
    microsecond, each get the built database's answers."""
    store = load(figure2.index_path)
    db = store.database
    want = [result.solutions for result in figure2.auto]

    def ask():
        engine = AutoEngine(db)
        return [engine.evaluate(query).solutions for query in figure2.queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(ask) for _ in range(4)]
            answers = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
        db = None
        store.close()
    assert answers == [want] * 4


@pytest.mark.parametrize(
    "field, element",
    [("words", 0), ("words", -1), ("blocks", -1), ("blocks", 1)],
)
def test_a_flip_is_caught_at_the_first_read_that_depends_on_it(
    tmp_path, field, element
):
    """Unprimed, a bitvector's total is checked at its first read, with
    one popcount of all its words: a flip in a word of a block no read
    reaches, or in the stored total (which a vector of whole blocks
    never checks with a block), is a typed error at the first read of
    any entry. A flip in a block's own entry is caught at that block's
    first read."""
    bits = np.random.default_rng(3).integers(0, 2, 4 * 512)
    path = str(tmp_path / "bv.idx")
    save(BitVector(bits), path)
    store = load(path)
    offset, nbytes, _crc = store.manifest.entries[store.manifest.root[field]]
    width = {"words": 8, "blocks": 4}[field]
    at = store.manifest.base + offset + (element % (nbytes // width)) * width
    store.close()
    with open(path, "r+b") as handle:
        handle.seek(at)
        byte = handle.read(1)[0]
        handle.seek(at)
        handle.write(bytes([byte ^ 4]))
    store = load(path, verify=False)
    message = None
    try:
        # block 1 alone: a flipped word is in block 0 or 3
        store.structure.rank1(8 * 64 + 5)
    except StoreFormatError as exc:
        message = str(exc)  # read here: a kept traceback pins the mapping
    finally:
        store.close()
    assert message is not None and "rank directory" in message


# ----------------------------------------------------------------------
# format 5: each array is held to its own CRC-32 at its node's first read
# ----------------------------------------------------------------------
def _attached_nodes(node, meta):
    """``(node, meta)`` of every structure node of an attached tree,
    beside the manifest meta it was attached from."""
    yield node, meta
    for key, spec in type(node).LAYOUT.persisted:
        if not isinstance(spec, Child) or meta[key] is None:
            continue
        value = getattr(node, spec.name)
        if spec.many == "list":
            pairs = zip(value, meta[key])
        elif spec.many == "dict":
            pairs = ((value[k], meta[key][k]) for k in meta[key])
        else:
            pairs = [(value, meta[key])]
        for child, child_meta in pairs:
            yield from _attached_nodes(child, child_meta)


#: A public read of each kind of node that owns arrays, and the array
#: keys of that kind with the name its checksum error gives each.
_FIRST_READS = {
    "bitvector": lambda bv: bv.rank1(len(bv)),
    "cumcounts": lambda cum: cum.before(0),
    "knn_ring": lambda knn: knn.next_member(0),
    "distance_index": lambda index: index.next_member(0),
}
_ARRAY_NAMES = {
    ("bitvector", "words"): "words of a bitvector",
    ("bitvector", "blocks"): "rank directory",
    ("cumcounts", "cum"): "cumulative counts",
    ("knn_ring", "members"): "K-NN members",
    ("knn_ring", "s_offsets"): "K-NN row offsets",
    ("distance_index", "members"): "distance-index members",
    ("distance_index", "distances"): "distance-index distances",
}


def test_every_array_kind_is_declared_with_its_name():
    declared = {
        (kind, key)
        for kind, cls in KINDS.items()
        for key, spec in cls.LAYOUT.persisted
        if isinstance(spec, Array)
    }
    assert declared == set(_ARRAY_NAMES)
    for (kind, key), name in _ARRAY_NAMES.items():
        (spec,) = [s for k, s in KINDS[kind].LAYOUT.persisted if k == key]
        assert name in spec.what


@pytest.mark.parametrize("kind, key", sorted(_ARRAY_NAMES))
def test_a_flip_in_any_array_is_a_checksum_error_at_its_nodes_first_read(
    flip_target, tmp_path, kind, key
):
    """One flipped bit in the first non-empty array of each kind: the
    default load attaches the file without reading it, the node that
    owns the array holds it to its CRC-32 at its first read, and the
    :class:`StoreChecksumError` names the array. Another node answers
    before that."""
    raw, _spans, path = flip_target
    store = load(path)
    manifest = store.manifest
    index = next(
        meta[key]
        for _node, meta in _attached_nodes(store.structure, manifest.root)
        if meta["kind"] == kind and manifest.entries[meta[key]][1]
    )
    store.close()
    offset, nbytes, _crc = manifest.entries[index]
    flipped = bytearray(raw)
    flipped[manifest.base + offset + nbytes // 2] ^= 0x10
    path = str(tmp_path / "flipped.idx")
    with open(path, "wb") as handle:
        handle.write(flipped)

    def nodes(db):
        """The node that owns the flipped array, and one that does not."""
        pairs = list(_attached_nodes(db, manifest.root))
        owner = next(node for node, meta in pairs if meta.get(key) == index)
        other = next(
            node for node, meta in pairs
            if meta["kind"] in _FIRST_READS and node is not owner
        )
        return owner, other

    def read(db):
        owner, other = nodes(db)
        assert owner._sums, "the attach read the owner"
        _FIRST_READS[type(other).LAYOUT.kind](other)
        _FIRST_READS[kind](owner)

    message = _first_read_error(load(path), read)
    assert message is not None
    assert message.startswith("StoreChecksumError")
    assert _ARRAY_NAMES[kind, key] in message and "repro build" in message


def test_a_same_popcount_swap_in_an_unread_block_is_caught(tmp_path):
    """Two bits of a word of block 0 swapped: the word keeps its
    popcount, so the level total and every block's count still hold,
    and a read of block 1 alone answers as built when the checksums are
    skipped. The words' CRC-32 refuses it at the vector's first read."""
    built = BitVector(np.random.default_rng(3).integers(0, 2, 4 * 512))
    path = str(tmp_path / "swap.idx")
    save(built, path)
    store = load(path)
    offset, _nbytes, _crc = store.manifest.entries[store.manifest.root["words"]]
    at = store.manifest.base + offset
    store.close()
    with open(path, "r+b") as handle:
        handle.seek(at)
        word = int.from_bytes(handle.read(8), "little")
        one = (word & -word).bit_length() - 1  # lowest set bit
        zero = (~word & -~word).bit_length() - 1  # lowest clear bit
        swapped = word ^ (1 << one) ^ (1 << zero)
        assert swapped.bit_count() == word.bit_count() and swapped != word
        handle.seek(at)
        handle.write(swapped.to_bytes(8, "little"))
    position = 8 * 64 + 5  # in block 1
    unchecked = load(path, verify=False)
    try:
        assert unchecked.structure.rank1(position) == built.rank1(position)
    finally:
        unchecked.close()
    message = _first_read_error(load(path), lambda bv: bv.rank1(position))
    assert message is not None
    assert message.startswith("StoreChecksumError: ")
    assert "words of a bitvector" in message


def test_a_flipped_manifest_byte_fails_at_attach(figure2, tmp_path):
    """A digit of the manifest changed to another keeps it well-formed
    JSON (an array's length, so a structural check may or may not catch
    it); the manifest's CRC-32 refuses it at attach, before the walk."""
    with open(figure2.index_path, "rb") as handle:
        raw = bytearray(handle.read())
    header = unpack_header(bytes(raw[:HEADER_SIZE]), figure2.index_path)
    manifest = raw[HEADER_SIZE : HEADER_SIZE + header.manifest_len]
    at = HEADER_SIZE + manifest.index(b"[[") + 2  # first entry's nbytes
    raw[at] = ord("1") if raw[at] != ord("1") else ord("2")
    path = str(tmp_path / "manifest.idx")
    with open(path, "wb") as handle:
        handle.write(raw)
    with pytest.raises(StoreChecksumError, match="manifest checksum"):
        load(path)


def test_every_segment_byte_flipped_still_attaches(figure2, tmp_path):
    """An attach reads the header and the manifest only: with every
    segment byte inverted the file still loads and describes itself; the
    first query is refused by a checksum, and so is ``prime``."""
    with open(figure2.index_path, "rb") as handle:
        raw = bytearray(handle.read())
    header = unpack_header(bytes(raw[:HEADER_SIZE]), figure2.index_path)
    for at in range(header.segment_offset, header.total_size):
        raw[at] ^= 0xFF
    path = str(tmp_path / "inverted.idx")
    with open(path, "wb") as handle:
        handle.write(raw)
    store = load(path)
    assert store.describe()["mapped"]
    query = figure2.queries[0]
    message = _first_read_error(
        store, lambda db: AutoEngine(db).evaluate(query)
    )
    assert message is not None and message.startswith("StoreChecksumError")
    message = _first_read_error(load(path), prime)
    assert message is not None and message.startswith("StoreChecksumError")


@pytest.mark.parametrize(
    "group, element, bit, names",
    [
        # an offset past its successor, a last id past the bound
        ("cumcounts.cum", 1, 30, "cumulative counts"),
        ("knn_ring.s_offsets", 1, 30, "K-NN row offsets"),
        ("knn_ring.members", -1, 30, "K-NN members"),
        ("distance_index.members", -1, 30, "distance-index members"),
    ],
)
def test_flip_that_breaks_a_checked_table_is_a_format_error(
    flip_target, group, element, bit, names
):
    raw, spans, path = flip_target
    start, nbytes = spans[group][0]
    at = start + (element % (nbytes // 4)) * 4 + bit // 8
    flipped = bytearray(raw)
    flipped[at] ^= 1 << (bit % 8)
    message = _primed_error(bytes(flipped), path + ".broken")
    assert message is not None and names in message


def test_index_bytes_per_edge_budget(tmp_path):
    """The index stays succinct in fact: at the recorded Figure-2 scale
    (the benchmark's query graph) the whole file — header, manifest,
    segment — costs at most 5 bytes per stored edge (4.58 since format
    4 sized each column's alphabet to that column)."""
    from repro.datasets.wikimedia import generate_benchmark

    bench = generate_benchmark(Context().data)
    db = GraphDatabase(bench.graph, bench.knn_graph)
    edges = bench.graph.num_edges + int(bench.knn_graph.lengths.sum())
    assert save(db, str(tmp_path / "fig2.idx")) / edges <= 5.0


def test_attached_ops_return_plain_ints(figure2):
    """No numpy scalars may escape mmap-attached hot-path operations.

    The canonical arrays are views over the mapping; the plain-int
    ``_i`` mirrors (built lazily, or eagerly via ``prime``) are the
    coercion boundary. Every public read a query evaluation bottoms
    out in must hand back builtin ints — a ``numpy.int64`` here would
    re-enter numpy dispatch on every later arithmetic op.
    """

    def plain_int(value):
        return type(value) is int

    store = load(figure2.index_path)
    try:
        db = store.database
        ring = db.knn_ring
        bv = ring._B
        assert plain_int(bv.rank1(len(bv) // 2))
        assert plain_int(bv.select1(1))
        assert plain_int(bv.select0(1))
        members = ring.members.tolist()
        u = members[0]
        assert all(plain_int(m) for m in ring._members_i)
        assert all(plain_int(v) for v in ring.neighbors_of(u, ring.K))
        assert all(
            plain_int(v) for v in ring.reverse_neighbors_of(u, ring.K)
        )
        assert all(plain_int(end) for end in ring.forward_range(u, ring.K))
        wt = db.ring._columns["o"]
        assert plain_int(wt.access(0))
        assert plain_int(wt.rank(wt.access(0), 1))
        assert plain_int(wt.select(wt.access(0), 1))
        assert plain_int(wt.total_count(wt.access(0)))
    finally:
        db = ring = bv = wt = None
        store.close()


def test_from_index_classmethods(figure2):
    db = GraphDatabase.from_index(figure2.index_path)
    assert db.graph is None  # raw tables deliberately not carried
    assert db.store is not None
    engine = AutoEngine.from_index(figure2.index_path)
    try:
        got = engine.evaluate(figure2.queries[0])
        assert got.solutions == figure2.auto[0].solutions
    finally:
        engine.close()
    db.close()


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

    query = "(?e, 0, ?img) . knn(?img, ?other, 5)"
    assert main(["query", "--data", bundle, "--query", query]) == 0
    built_out = capsys.readouterr().out
    assert main(["query", "--from-index", index, "--query", query]) == 0
    mapped_out = capsys.readouterr().out
    # Identical solutions; only the summary line may differ in timing.
    assert not built_out.splitlines()[-1].startswith("0 solutions")
    assert built_out.splitlines()[:-1] == mapped_out.splitlines()[:-1]
    # And identical traces: solutions, plan, and every traced op count.
    documents = []
    for source in (["--data", bundle], ["--from-index", index]):
        out = str(tmp_path / f"trace{len(documents)}.json")
        assert main(["trace", *source, "--query", query,
                     "--engine", "ring-knn", "--out", out]) == 0
        with open(out) as handle:
            documents.append(_comparable(json.load(handle)))
    built_trace, mapped_trace = documents
    assert built_trace["solutions"] > 0
    assert built_trace == mapped_trace


@pytest.mark.parametrize("start_method", START_METHODS)
def test_cli_from_index_pool_leaves_stderr_empty(tmp_path, start_method):
    """A store-backed pool saves no scratch file and holds no
    process-shared resource, so neither the parent nor a worker has
    anything to warn about at exit; only a fresh process shows it.
    """
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
        "TMPDIR": str(tmp_path),
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
    # The workers were handed the index file itself: no scratch copy.
    assert not [n for n in os.listdir(tmp_path) if n.startswith("repro-pool-")]
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
