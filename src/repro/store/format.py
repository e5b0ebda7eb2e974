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
    |   reserved       u32 zero                                    |
    +--------------------------------------------------------------+
    | manifest JSON (UTF-8), zero-padded to an 8-byte boundary     |
    +--------------------------------------------------------------+
    | segment: the 8-byte-aligned array pack of                    |
    | repro.store.layout                                           |
    +--------------------------------------------------------------+

The manifest JSON carries the ``entries`` and ``root`` of a
:class:`~repro.store.layout.Manifest` — the ``(offset, dtype, shape)``
entry table and the nested structure tree — so loading a file is the
layout walker's attach over the mapped segment. The segment start is
aligned so every array keeps the 8-byte alignment the flatten layer
guarantees.

Versioning policy: the format is versioned without migration shims. An
index file is a cache of a deterministic build, so a reader that sees
any other version refuses with :class:`StoreVersionError` and the
remedy is ``repro build``, not an in-place upgrade. Anything that
changes the segment layout, the manifest schema, or a flattened
structure's fields must bump :data:`FORMAT_VERSION`. Version 2 stored
a bitvector's rank directory per 512-bit block and every count, offset
and id in four bytes (``docs/persistence.md``); version 3 lays each
wavelet sequence out as a wavelet matrix and drops its per-symbol count
table. A version-1 or version-2 file is refused like any other skew.

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
from dataclasses import dataclass
from typing import Any

from repro.store.layout import Entry, _align8
from repro.utils.errors import (
    StoreEndiannessError,
    StoreFormatError,
    StoreVersionError,
)

MAGIC = b"REPROIDX"
FORMAT_VERSION = 3

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
    """Serialize the entry table + structure tree to manifest JSON."""
    doc = {
        "entries": [
            [offset, dtype, list(shape)] for offset, dtype, shape in entries
        ],
        "root": root,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def decode_manifest(
    raw: bytes, path: str
) -> tuple[tuple[Entry, ...], dict[str, Any]]:
    """Parse manifest JSON back into ``(entries, root)``."""
    try:
        doc = json.loads(raw.decode("utf-8"))
        entries = tuple(
            (int(offset), str(dtype), tuple(int(d) for d in shape))
            for offset, dtype, shape in doc["entries"]
        )
        root = doc["root"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise StoreFormatError(
            f"{path}: malformed index manifest ({exc})"
        ) from exc
    if not isinstance(root, dict) or "kind" not in root:
        raise StoreFormatError(
            f"{path}: index manifest root carries no structure kind"
        )
    return entries, root


def pack_header(
    manifest_len: int, segment_len: int, checksum: int
) -> bytes:
    return _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        FLAG_LITTLE_ENDIAN,
        manifest_len,
        segment_len,
        checksum & 0xFFFFFFFF,
        0,
    )


@dataclass(frozen=True)
class Header:
    """Decoded and validated index-file header."""

    manifest_len: int
    segment_len: int
    checksum: int

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
    magic, version, flags, manifest_len, segment_len, checksum, _reserved = (
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
    )


def payload_checksum(buf: Any, start: int, end: int) -> int:
    """crc32 over ``buf[start:end]`` without copying the range."""
    return zlib.crc32(memoryview(buf)[start:end]) & 0xFFFFFFFF


def checksum_parts(*parts: Any) -> int:
    """crc32 chained over several buffers (the save-side counterpart)."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF
