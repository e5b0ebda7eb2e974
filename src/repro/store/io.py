"""Index files and carrier attachments: save, load, attach.

:func:`save` flattens a structure tree (:func:`repro.store.layout.
flatten`) and writes header + manifest + segment atomically (temp file
+ ``os.replace``), so a crashed build never leaves a half-written index
at the target path.

:func:`load` validates the header, memory-maps the whole file
read-only, optionally verifies the payload checksum, and rebuilds the
structures as zero-copy numpy views over the mapping
(:func:`repro.store.layout.attach_buffer`). Nothing is deserialized:
until a page is touched, it is not even read.

:func:`attach` is what a pool worker does with the picklable
:class:`~repro.store.layout.Manifest` it was started with: open the
carrier it names — a shared-memory segment or an index file — and
rebuild the same structures over it.

Lifecycle: an :class:`Attachment` (and so an :class:`IndexStore`) owns
its mapping. The attached structures hold numpy views *into* it, so the
mapping must outlive every structure reference; ``close`` drops the
attachment's own structure reference first and tolerates a caller who
kept views alive (the OS unmaps at process exit regardless). An attacher
never unlinks a shared segment — its creator owns that. An
already-attached file mapping survives even deletion of the file, so a
parent may rebuild an index while a warm pool is still serving the old
one.
"""

from __future__ import annotations

import mmap
import os
from typing import Any

from repro.store.format import (
    HEADER_SIZE,
    Header,
    checksum_parts,
    decode_manifest,
    encode_manifest,
    pack_header,
    payload_checksum,
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
    :class:`~repro.engines.database.GraphDatabase` for ``repro build``,
    or a single succinct structure in tests. Only the succinct
    structures travel: for a database, the raw graph and K-NN tables
    are not part of the artifact (exactly as with worker attachment).
    """
    require_little_endian_host("write")
    builder = SegmentBuilder()
    root = flatten(structure, builder)
    segment = bytearray(builder.nbytes)
    builder.write(segment)
    manifest = encode_manifest(builder.entries, root)
    pad_len = _align8(HEADER_SIZE + len(manifest)) - HEADER_SIZE - len(manifest)
    pad = b"\0" * pad_len
    checksum = checksum_parts(manifest, pad, segment)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(pack_header(len(manifest), len(segment), checksum))
            handle.write(manifest)
            handle.write(pad)
            handle.write(segment)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - error path only
            os.unlink(tmp)
    return HEADER_SIZE + len(manifest) + len(pad) + len(segment)


def _open_file(path: str, verify: bool) -> tuple[mmap.mmap, Header]:
    """Memory-map ``path`` read-only and validate its header.

    Returns ``(mapping, header)``; with ``verify`` the payload checksum
    is confirmed too. Every failure is a typed store error and leaves
    nothing mapped.
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
            if verify:
                got = payload_checksum(mapping, HEADER_SIZE, header.total_size)
                if got != header.checksum:
                    raise StoreChecksumError(
                        f"{path}: index payload checksum {got:#010x} != "
                        f"recorded {header.checksum:#010x}; the file is "
                        "corrupt — rebuild it with 'repro build'"
                    )
        except Exception:
            mapping.close()
            raise
        return mapping, header


class Attachment:
    """A structure rebuilt zero-copy over a carrier, plus the carrier.

    ``carrier`` is the open mapping (an ``mmap`` or an attached
    ``SharedMemory``); ``structure`` holds views into it.
    """

    def __init__(self, manifest: Manifest, structure: Any, carrier: Any) -> None:
        self.manifest = manifest
        self.structure = structure
        self._carrier = carrier

    def close(self) -> None:
        """Drop the rebuilt structure and the mapping.

        The structure reference is dropped first so CPython refcounting
        frees the numpy views immediately; a caller who kept a view
        alive only defers the unmap to process exit.
        """
        self.structure = None
        carrier = self._carrier
        self._carrier = None
        if carrier is not None:
            try:
                carrier.close()
            except BufferError:  # pragma: no cover - caller kept views
                pass


class IndexStore(Attachment):
    """One loaded index file: its attachment plus the file's facts."""

    def __init__(
        self,
        path: str,
        header: Header,
        manifest: Manifest,
        structure: Any,
        mapping: mmap.mmap,
    ) -> None:
        super().__init__(manifest, structure, mapping)
        self.path = path
        self.header = header
        if manifest.root.get("kind") == "database":
            # Back-reference so worker pools can detect a store-backed
            # database and attach workers to the file mapping directly.
            structure._store = self

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
            "mapped": self._carrier is not None,
        }


def load(path: str, verify: bool = True) -> IndexStore:
    """Memory-map an index file and attach its structures zero-copy.

    With ``verify`` (the default) the payload checksum is confirmed
    before anything is attached — one streaming read of the file, still
    orders of magnitude cheaper than an index build. ``verify=False``
    skips it for the pure O(page faults) cold start. The plain-int
    mirrors stay lazy; :func:`repro.store.layout.prime` materializes
    them up front for callers that prefer to pay at load time.
    """
    require_little_endian_host("read")
    mapping, header = _open_file(path, verify)
    try:
        entries, root = decode_manifest(
            mapping[HEADER_SIZE : HEADER_SIZE + header.manifest_len], path
        )
        manifest = Manifest(
            entries=entries,
            root=root,
            nbytes=header.segment_len,
            path=os.path.abspath(path),
            base=header.segment_offset,
        )
        structure = attach_buffer(manifest, mapping)
    except Exception:
        mapping.close()
        raise
    return IndexStore(path, header, manifest, structure, mapping)


#: ``multiprocessing.shared_memory``, imported by the first attach to a
#: shared segment — a process that only maps an index file (``repro
#: query --from-index``) never imports :mod:`multiprocessing`. The leak
#: sanitizer rebinds this name to its recording twin.
shared_memory: Any = None


def attach(manifest: Manifest) -> Attachment:
    """Open the carrier ``manifest`` names and rebuild its structure.

    This is the worker side of both carriers: a shared segment is
    attached by name, an index file is memory-mapped. No checksum
    verification — the parent verified the file when it loaded the
    store, and worker attach must stay near-free; only the cheap
    structural sanity (magic/version/length) is repeated.
    """
    global shared_memory
    carrier: Any
    if manifest.path is None:
        if shared_memory is None:
            from multiprocessing import shared_memory
        carrier = shared_memory.SharedMemory(name=manifest.segment)
        buf = carrier.buf
    else:
        require_little_endian_host("attach")
        carrier, _header = _open_file(manifest.path, verify=False)
        buf = carrier
    try:
        structure = attach_buffer(manifest, buf)
    except Exception:
        # No owner exists yet: a failed attach must close the mapping
        # here or it leaks.
        carrier.close()
        raise
    return Attachment(manifest, structure, carrier)
