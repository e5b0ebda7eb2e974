"""On-disk index format: header layout, manifest codec, validation.

An index file is::

    +--------------------------------------------------------------+
    | header (40 bytes, little-endian struct "<8sIIQQII")          |
    |   magic          8s  b"REPROIDX"                             |
    |   version        u32 FORMAT_VERSION                          |
    |   flags          u32 bit0 = payload is little-endian         |
    |   manifest_len   u64 bytes of manifest JSON                  |
    |   segment_len    u64 bytes of the flattened segment          |
    |   checksum       u32 crc32 over everything after the header  |
    |   manifest_crc   u32 crc32 of the manifest JSON              |
    +--------------------------------------------------------------+
    | manifest JSON (UTF-8), zero-padded to an 8-byte boundary     |
    |   {"entries": [[nbytes, crc32], ...], "root": {...}}         |
    +--------------------------------------------------------------+
    | segment: the 8-byte-aligned array pack of                    |
    | repro.store.layout; array i starts where array i - 1 ends,   |
    | rounded up to 8 bytes                                        |
    +--------------------------------------------------------------+

The manifest JSON carries the ``entries`` and ``root`` of a
:class:`~repro.store.layout.Manifest` — one ``[nbytes, crc32]`` pair an
array and the nested structure tree — so loading a file is the layout
walker's attach over the mapped segment. An entry stores neither its
offset, which is the 8-byte-aligned running sum of the lengths before
it (exactly as the flatten layer lays the arrays out), nor its dtype,
which the referring field declares. The segment start is aligned so
every array keeps the 8-byte alignment the flatten layer guarantees.

What a load checks: the header, and the manifest against its CRC-32 —
no payload byte is read at attach. Each array is held to its own CRC-32
at the first read of the structure node that owns it
(:func:`repro.succinct.fields.check_sums`), so an attach costs about
what the query reads. The whole-file ``checksum`` is still written; it
names the file's contents (:attr:`GraphDatabase.epoch
<repro.engines.database.GraphDatabase.epoch>`, a pool's check that its
workers open the file it meant) and is not verified on load.

Versioning policy: the format is versioned without migration shims. An
index file is a cache of a deterministic build, so a reader that sees
any other version refuses with :class:`StoreVersionError` and the
remedy is ``repro build``, not an in-place upgrade. Anything that
changes the segment layout, the manifest schema, or a flattened
structure's fields must bump :data:`FORMAT_VERSION`. Version 2 stored
a bitvector's rank directory per 512-bit block and every count, offset
and id in four bytes (``docs/persistence.md``); version 3 lays each
wavelet sequence out as a wavelet matrix and drops its per-symbol count
table; version 4 builds each Ring column and its ``A_j`` over that
column's own alphabet (``sigma_c`` = 1 + its largest value, not the
domain), and stores member ranks instead of node ids in the K-NN
sequences ``S``/``S'`` and the distance sequence ``D``, with each
member table's id bound kept as a scalar; version 5 records one CRC-32
an array in the manifest (with its length; offsets and dtypes are
derived) and a CRC-32 of the manifest in the header, and reads no
payload at attach. A file of any earlier version is refused like any
other skew: read by this reader, a version-3 file's node ids would pass
for ranks and answer wrongly, and a version-4 manifest has no CRCs.

Every validation failure raises a typed :mod:`repro.utils.errors`
exception (:class:`StoreFormatError`, :class:`StoreVersionError`,
:class:`StoreChecksumError`, :class:`StoreEndiannessError`) — a
corrupt or foreign file is never attached.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from typing import Any

from repro.store.layout import Entry, _align8
from repro.utils.errors import (
    StoreEndiannessError,
    StoreFormatError,
    StoreVersionError,
)
from repro.utils.record import Frozen

MAGIC = b"REPROIDX"
FORMAT_VERSION = 5

#: Header flag bit: the payload (manifest offsets + segment arrays) is
#: little-endian. Always set by :func:`pack_header`; readers refuse
#: files without it rather than byte-swap on attach.
FLAG_LITTLE_ENDIAN = 0x1

_HEADER = struct.Struct("<8sIIQQII")
HEADER_SIZE = _HEADER.size


def require_little_endian_host(action: str) -> None:
    """Refuse to read or write index files on a big-endian host.

    The zero-copy contract maps ``<u8``/``<i4``/``<f8`` buffers
    directly into the hot path's plain-int caches; a big-endian host
    would need a byte-swapping copy, which this format deliberately
    does not provide. (``sys.byteorder`` is read at call time so the
    guard is testable.)
    """
    if sys.byteorder != "little":
        raise StoreEndiannessError(
            f"cannot {action} an index file on a big-endian host: the "
            "format is little-endian and attaches buffers zero-copy"
        )


def encode_manifest(entries: tuple[Entry, ...], root: dict[str, Any]) -> bytes:
    """Serialize the entry table + structure tree to manifest JSON: an
    entry is written as ``[nbytes, crc32]``, its offset left to
    :func:`decode_manifest`."""
    doc = {
        "entries": [[nbytes, crc] for _offset, nbytes, crc in entries],
        "root": root,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def decode_manifest(
    raw: bytes, path: str
) -> tuple[tuple[Entry, ...], dict[str, Any]]:
    """Parse manifest JSON back into ``(entries, root)``, each entry's
    offset derived as the segment builder laid it out: where the one
    before it ends, rounded up to 8 bytes."""
    try:
        doc = json.loads(raw.decode("utf-8"))
        entries = []
        offset = 0
        for nbytes, crc in doc["entries"]:
            nbytes, crc = int(nbytes), int(crc)
            if nbytes < 0 or not 0 <= crc <= 0xFFFFFFFF:
                raise ValueError(f"entry {len(entries)} is {[nbytes, crc]}")
            entries.append((offset, nbytes, crc))
            offset = _align8(offset + nbytes)
        root = doc["root"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise StoreFormatError(
            f"{path}: malformed index manifest ({exc})"
        ) from exc
    if not isinstance(root, dict) or "kind" not in root:
        raise StoreFormatError(
            f"{path}: index manifest root carries no structure kind"
        )
    return tuple(entries), root


def pack_header(
    manifest_len: int, segment_len: int, checksum: int, manifest_crc: int
) -> bytes:
    return _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        FLAG_LITTLE_ENDIAN,
        manifest_len,
        segment_len,
        checksum & 0xFFFFFFFF,
        manifest_crc & 0xFFFFFFFF,
    )


class Header(Frozen):
    """Decoded and validated index-file header."""

    __slots__ = ("manifest_len", "segment_len", "checksum", "manifest_crc")
    manifest_len: int
    segment_len: int
    checksum: int
    manifest_crc: int

    def __init__(
        self, manifest_len: int, segment_len: int, checksum: int,
        manifest_crc: int,
    ) -> None:
        self._set(
            manifest_len=manifest_len,
            segment_len=segment_len,
            checksum=checksum,
            manifest_crc=manifest_crc,
        )

    @property
    def segment_offset(self) -> int:
        return _align8(HEADER_SIZE + self.manifest_len)

    @property
    def total_size(self) -> int:
        return self.segment_offset + self.segment_len


def unpack_header(raw: bytes, path: str) -> Header:
    """Decode + validate a header; raises typed store errors."""
    if len(raw) < HEADER_SIZE:
        raise StoreFormatError(
            f"{path}: truncated index file ({len(raw)} bytes, header "
            f"needs {HEADER_SIZE})"
        )
    magic, version, flags, manifest_len, segment_len, checksum, manifest_crc = (
        _HEADER.unpack_from(raw)
    )
    if magic != MAGIC:
        raise StoreFormatError(
            f"{path}: not a repro index file (magic {magic!r})"
        )
    if version != FORMAT_VERSION:
        raise StoreVersionError(
            f"{path}: index format version {version} != {FORMAT_VERSION}; "
            "rebuild the index with 'repro build'"
        )
    if not flags & FLAG_LITTLE_ENDIAN:
        raise StoreEndiannessError(
            f"{path}: index file is not marked little-endian; this "
            "format attaches buffers zero-copy and performs no byte swap"
        )
    return Header(
        manifest_len=int(manifest_len),
        segment_len=int(segment_len),
        checksum=int(checksum),
        manifest_crc=int(manifest_crc),
    )


def checksum_parts(*parts: Any) -> int:
    """crc32 chained over several buffers (the save-side counterpart)."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF
