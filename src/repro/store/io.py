"""Index files: save and load.

:func:`save` flattens a structure tree (:func:`repro.store.layout.
flatten`) and writes header + manifest + segment atomically (temp file
+ ``os.replace``), so a crashed build never leaves a half-written index
at the target path.

:func:`load` validates the header, memory-maps the whole file
read-only, checks the manifest against its CRC-32, and rebuilds the
structures as zero-copy read-only ``memoryview`` views over the mapping
(:func:`repro.store.layout.attach_buffer`). Nothing is deserialized and
no payload byte is read: each array is held to its own CRC-32 at the
first read of the node that owns it, and until a page is touched, it is
not even read. A pool worker opens its database the same way.

Lifecycle: an :class:`IndexStore` owns its mapping. The attached
structures hold ``memoryview`` views *into* it, so the mapping must
outlive every structure reference; ``close`` drops the store's own
structure reference first and tolerates a caller who kept views alive
(the OS unmaps at process exit regardless; the test suite's leak
check fails a test that leaves such a mapping open). An open mapping survives even
deletion of the file, so a parent may rebuild an index while a warm
pool is still serving the old one.
"""

from __future__ import annotations

import mmap
import os
import zlib
from typing import Any

from repro.store.format import (
    HEADER_SIZE,
    Header,
    checksum_parts,
    decode_manifest,
    encode_manifest,
    pack_header,
    require_little_endian_host,
    unpack_header,
)
from repro.store.layout import (
    Manifest,
    SegmentBuilder,
    _align8,
    attach_buffer,
    flatten,
)
from repro.utils.errors import StoreChecksumError, StoreFormatError


def save(structure: object, path: str) -> int:
    """Write ``structure`` as a versioned index file; returns its size.

    Any structure declaring a layout is accepted — the whole
    :class:`~repro.engines.database.GraphDatabase` for ``repro build``
    and for a worker pool's scratch file, or a single succinct
    structure in tests. Only the succinct structures travel: for a
    database, the raw graph and K-NN tables are not part of the
    artifact.
    """
    return write_index(structure, path).total_size


def write_index(structure: object, path: str) -> Header:
    """:func:`save`, returning the header written (its checksum names
    this file's contents)."""
    require_little_endian_host("write")
    builder = SegmentBuilder()
    root = flatten(structure, builder)
    segment = bytearray(builder.nbytes)
    builder.write(segment)
    manifest = encode_manifest(builder.entries, root)
    pad_len = _align8(HEADER_SIZE + len(manifest)) - HEADER_SIZE - len(manifest)
    pad = b"\0" * pad_len
    header = Header(
        len(manifest),
        len(segment),
        checksum_parts(manifest, pad, segment),
        zlib.crc32(manifest),
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(
                pack_header(
                    header.manifest_len,
                    header.segment_len,
                    header.checksum,
                    header.manifest_crc,
                )
            )
            handle.write(manifest)
            handle.write(pad)
            handle.write(segment)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return header


def _open_file(path: str) -> tuple[mmap.mmap, Header]:
    """Memory-map ``path`` read-only and validate its header.

    Returns ``(mapping, header)``. Every failure is a typed store error
    and leaves nothing mapped.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise StoreFormatError(f"{path}: cannot read index file ({exc})") from exc
    if size < HEADER_SIZE:
        raise StoreFormatError(
            f"{path}: truncated index file ({size} bytes, header needs "
            f"{HEADER_SIZE})"
        )
    with open(path, "rb") as handle:
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            header = unpack_header(mapping[:HEADER_SIZE], path)
            if size < header.total_size:
                raise StoreFormatError(
                    f"{path}: truncated index file ({size} bytes, manifest "
                    f"+ segment need {header.total_size})"
                )
        except Exception:
            mapping.close()
            raise
        return mapping, header


class IndexStore:
    """One loaded index file: the structure rebuilt zero-copy over the
    file's mapping, plus the file's facts.

    ``structure`` holds views into the mapping, which the store owns.
    """

    def __init__(
        self,
        path: str,
        header: Header,
        manifest: Manifest,
        structure: Any,
        mapping: mmap.mmap,
    ) -> None:
        self.path = path
        self.header = header
        self.manifest = manifest
        self.structure = structure
        self._mapping: mmap.mmap | None = mapping
        if manifest.root.get("kind") == "database":
            # Back-reference so a worker pool hands its workers this
            # file instead of saving a scratch copy of the database.
            structure._store = self

    def close(self) -> None:
        """Drop the rebuilt structure and the mapping.

        The structure reference is dropped first so CPython refcounting
        frees the views immediately; a caller who kept a view alive only
        defers the unmap to process exit.
        """
        self.structure = None
        mapping, self._mapping = self._mapping, None
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:  # pragma: no cover - caller kept views
                pass

    @property
    def database(self) -> Any:
        """The attached :class:`GraphDatabase` (the common case)."""
        if self.manifest.root.get("kind") != "database":
            raise StoreFormatError(
                f"{self.path}: index holds a "
                f"'{self.manifest.root.get('kind')}', not a database"
            )
        return self.structure

    @property
    def nbytes(self) -> int:
        """Total file size in bytes (header + manifest + segment)."""
        return self.header.total_size

    def describe(self) -> dict:
        """JSON-friendly summary of the mapped file (``/healthz``, CLI).

        Structural facts only — nothing here touches the segment, so
        describing a store never faults pages in.
        """
        return {
            "path": self.path,
            "kind": self.manifest.root.get("kind"),
            "nbytes": self.nbytes,
            "segment_bytes": self.header.segment_len,
            "checksum": f"{self.header.checksum:#010x}",
            "entries": len(self.manifest.entries),
            "mapped": self._mapping is not None,
        }


def load(path: str, verify: bool = True) -> IndexStore:
    """Memory-map an index file and attach its structures zero-copy.

    With ``verify`` (the default) the checksums are held: the manifest's
    here, and each array's at the first read of the structure that owns
    it, before anything reads the array. ``verify=False`` skips them
    all; the structural checks stay, which is how a crafted file with
    consistent checksums is tested. The plain-int mirrors stay lazy;
    :func:`repro.store.layout.prime` materializes them (and so checks
    every array) up front for callers that prefer to pay at load time.
    """
    require_little_endian_host("read")
    mapping, header = _open_file(path)
    try:
        raw = mapping[HEADER_SIZE : HEADER_SIZE + header.manifest_len]
        if verify and zlib.crc32(raw) != header.manifest_crc:
            raise StoreChecksumError(
                f"{path}: index manifest checksum != recorded "
                f"{header.manifest_crc:#010x}; the file is corrupt — "
                "rebuild it with 'repro build'"
            )
        entries, root = decode_manifest(raw, path)
        manifest = Manifest(
            entries=entries,
            root=root,
            nbytes=header.segment_len,
            path=os.path.abspath(path),
            base=header.segment_offset,
        )
        structure = attach_buffer(manifest, mapping, verify)
    except Exception:
        mapping.close()
        raise
    return IndexStore(path, header, manifest, structure, mapping)
