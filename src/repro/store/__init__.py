"""Persistent on-disk index store with mmap zero-copy instant load.

The Ring + K-NN structures are build-once artifacts: :func:`save`
writes them to a versioned index file — a fixed header (magic, format
version, endianness flag, checksum, JSON manifest) followed by the
8-byte-aligned little-endian segment of :mod:`repro.store.layout` — and
:func:`load` memory-maps that file and rebuilds the structures as
read-only numpy views over it with zero deserialization. Cold start
becomes O(page faults) instead of O(index build). The index file is the
only way the structures leave a process: worker pools hand their
workers a path, and each worker opens it with :func:`load`.

See ``docs/persistence.md`` for the format layout, the versioning
policy, and the mmap lifecycle rules.
"""

from repro.store.format import FORMAT_VERSION, HEADER_SIZE, MAGIC
from repro.store.io import IndexStore, load, save
from repro.store.layout import Manifest, prime

__all__ = [
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "Manifest",
    "IndexStore",
    "load",
    "prime",
    "save",
]
