"""The one flat layout of the index structures, and its walker.

A structure tree — anything from a single :class:`BitVector` to the
whole :class:`GraphDatabase` — *flattens* into one segment: its
canonical arrays packed back to back at 8-byte-aligned offsets, plus a
:class:`Manifest` of ``(offset, dtype, shape)`` entries and a nested
``root`` dict of plain scalars and array indices. *Attaching* rebuilds
the tree as read-only numpy views over a buffer holding those bytes,
with nothing deserialized. Which fields a structure persists is
declared once, on the class (:mod:`repro.succinct.fields`); the walker
here — :func:`flatten`, :func:`attach_buffer`, :func:`prime`,
:func:`persisted_bytes` — follows the declarations and knows no
structure by name.

The same bytes travel on two carriers: an anonymous shared-memory
segment for worker pools (:mod:`repro.parallel.shm`) and, behind a
checksummed header, the persistent index file (:mod:`repro.store.io`).
Dtypes are explicit little-endian strings, so a manifest is valid
regardless of the attaching interpreter's native byte order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.engines.database import GraphDatabase
from repro.succinct.fields import Array, Child, Layout, Scalar, Transient
from repro.utils.errors import StoreFormatError, StructureError

Entry = tuple[int, str, tuple[int, ...]]


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class Manifest:
    """Picklable description of one flattened structure tree.

    ``entries[i]`` locates array ``i`` inside the segment as ``(byte
    offset, little-endian dtype string, shape)``; ``root`` is the nested
    structure meta whose leaves reference arrays by index. The carrier
    is either a shared-memory ``segment`` name or an index file ``path``
    whose segment starts at byte ``base``. Pool workers receive this
    through their initializer and attach the carrier directly.
    """

    entries: tuple[Entry, ...]
    root: dict[str, Any] = field(hash=False)
    nbytes: int
    segment: str | None = None
    path: str | None = None
    base: int = 0

    @property
    def carrier(self) -> str:
        """The carrier's name, for error messages."""
        return self.path or f"shm segment {self.segment}"


class SegmentBuilder:
    """Collects arrays during flattening; writes them into one buffer."""

    def __init__(self) -> None:
        self._pending: list[tuple[int, np.ndarray]] = []
        self._entries: list[Entry] = []
        self._size = 0

    @property
    def nbytes(self) -> int:
        """Segment length in bytes (never zero: neither carrier maps an
        empty buffer)."""
        return max(self._size, 1)

    @property
    def entries(self) -> tuple[Entry, ...]:
        return tuple(self._entries)

    def put(self, array: np.ndarray, dtype: str, field: str) -> int:
        """Register one canonical array; returns its manifest index.

        The array is stored as ``dtype``; ``field`` names it in the
        error raised when a value does not fit (``astype`` would wrap).
        """
        arr = np.ascontiguousarray(np.asarray(array))
        if arr.dtype != dtype:
            if arr.size and np.dtype(dtype).kind == "i":
                info = np.iinfo(dtype)
                low, high = int(arr.min()), int(arr.max())
                if low < info.min or high > info.max:
                    raise StructureError(
                        f"{field} holds values in [{low}, {high}], which "
                        f"do not fit its declared dtype {dtype!r}"
                    )
            arr = arr.astype(dtype)
        offset = _align8(self._size)
        self._entries.append((offset, dtype, tuple(arr.shape)))
        self._pending.append((offset, arr))
        self._size = offset + arr.nbytes
        return len(self._entries) - 1

    def write(self, buf: Any) -> None:
        """Write every registered array into ``buf`` at its offset."""
        for offset, arr in self._pending:
            view = np.frombuffer(
                buf, dtype=arr.dtype, count=arr.size, offset=offset
            )
            view[:] = arr.reshape(-1)
            del view


class SegmentView:
    """Validated read-only numpy views over one attached buffer."""

    def __init__(self, manifest: Manifest, buf: Any) -> None:
        self._manifest = manifest
        self._buf = buf
        self.carrier = manifest.carrier

    def get(self, index: Any, dtype: str, kind: str, key: str) -> np.ndarray:
        """Array ``index`` of the manifest, which must hold ``dtype``.

        ``kind``/``key`` name the referring field in error messages.
        """
        manifest = self._manifest
        if type(index) is not int or not 0 <= index < len(manifest.entries):
            raise StoreFormatError(
                f"{self.carrier}: {kind}.{key} names array {index!r}, "
                f"outside the {len(manifest.entries)} manifest entries"
            )
        offset, got, shape = manifest.entries[index]
        if got != dtype:
            raise StoreFormatError(
                f"{self.carrier}: {kind}.{key} is stored as {got!r}, "
                f"expected {dtype!r}"
            )
        count = math.prod(shape)
        end = offset + count * np.dtype(dtype).itemsize
        if offset < 0 or min(shape, default=0) < 0 or end > manifest.nbytes:
            raise StoreFormatError(
                f"{self.carrier}: {kind}.{key} spans bytes [{offset}, {end}) "
                f"of a {manifest.nbytes}-byte segment"
            )
        arr = np.frombuffer(
            self._buf, dtype=dtype, count=count, offset=manifest.base + offset
        )
        if len(shape) != 1:  # frombuffer is already 1-D
            arr = arr.reshape(shape)
        arr.setflags(write=False)
        return arr


def _layout_of(structure: object) -> Layout:
    layout = getattr(type(structure), "LAYOUT", None)
    if layout is None:
        raise StructureError(
            f"{type(structure).__name__} declares no persisted layout"
        )
    return layout


def _map_children(spec: Child, value: Any, fn: Callable[[Any], Any]) -> Any:
    """Apply ``fn`` to each child under ``value``, keeping its shape."""
    if spec.many == "list":
        return [fn(child) for child in value]
    if spec.many == "dict":
        return {key: fn(value[key]) for key in spec.keys or sorted(value)}
    if spec.many == "optional" and value is None:
        return None
    return fn(value)


def flatten(structure: object, builder: SegmentBuilder) -> dict[str, Any]:
    """Register a structure tree's arrays in ``builder``; returns its
    ``root`` meta (scalars, array indices, nested children)."""
    layout = _layout_of(structure)
    meta: dict[str, Any] = {"kind": layout.kind}
    for key, spec in layout.persisted:
        value = getattr(structure, spec.name)
        if isinstance(spec, Array):
            value = builder.put(value, spec.dtype, f"{layout.kind}.{key}")
        elif isinstance(spec, Child):
            value = _map_children(
                spec, value, lambda child: flatten(child, builder)
            )
        meta[key] = value
    return meta


def _kinds(cls: type, found: dict[str, type]) -> dict[str, type]:
    found[cls.LAYOUT.kind] = cls
    for _key, spec in cls.LAYOUT.persisted:
        if isinstance(spec, Child):
            _kinds(spec.cls, found)
    return found


#: Every attachable structure class by manifest ``kind``: the database
#: and whatever its declaration reaches.
KINDS: dict[str, type] = _kinds(GraphDatabase, {})


def _attach(cls: type, meta: Any, view: SegmentView) -> Any:
    layout: Layout = cls.LAYOUT
    kind = layout.kind
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise StoreFormatError(
            f"{view.carrier}: expected a '{kind}' node, found {meta!r:.80}"
        )
    obj = cls.__new__(cls)
    for spec in layout.transients:
        setattr(obj, spec.name, copy.copy(spec.reset))
    for key, spec in layout.persisted:
        if key not in meta:
            raise StoreFormatError(f"{view.carrier}: {kind} node lacks '{key}'")
        value = meta[key]
        if isinstance(spec, Array):
            value = view.get(value, spec.dtype, kind, key)
        elif isinstance(spec, Scalar):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise StoreFormatError(
                    f"{view.carrier}: {kind}.{key} is {value!r}, not a number"
                )
            value = spec.cast(value)
        else:
            container = {"list": list, "dict": dict}.get(spec.many)
            if container is not None and not isinstance(value, container):
                raise StoreFormatError(
                    f"{view.carrier}: {kind}.{key} is not a {container.__name__}"
                )
            if any(k not in value for k in spec.keys or ()):
                raise StoreFormatError(
                    f"{view.carrier}: {kind}.{key} lacks one of {spec.keys}"
                )
            value = _map_children(
                spec, value, lambda m: _attach(spec.cls, m, view)
            )
        setattr(obj, spec.name, value)
    return obj


def attach_buffer(manifest: Manifest, buf: Any) -> Any:
    """Rebuild a flattened structure zero-copy over ``buf``.

    ``buf`` holds the carrier's bytes (a shared segment's ``.buf`` or a
    whole memory-mapped index file). The caller owns its lifetime and
    must keep it alive while the structure is in use — numpy views into
    it are handed out, never copies. A structurally bad manifest raises
    :class:`StoreFormatError` with no view left behind, so the caller
    can still close the buffer.
    """
    kind = manifest.root.get("kind")
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise StoreFormatError(
            f"{manifest.carrier}: unknown structure kind {kind!r}"
        )
    try:
        return _attach(cls, manifest.root, SegmentView(manifest, buf))
    except StoreFormatError as exc:
        message = str(exc)
    # Raised afresh, outside the handler: the original's traceback pins
    # the walker's frames, and with them the views of the half-built
    # tree, which would make closing the buffer a BufferError.
    raise StoreFormatError(message)


def prime(structure: object) -> None:
    """Materialize every plain-scalar mirror of an attached tree.

    Attached structures start without their ``_*_i`` mirrors and derived
    tables and rebuild each lazily on first touch — mid-query. Calling
    this at the attach boundary (worker initializer, store warm-up)
    moves that cost into the explicit one-time warm-up instead.
    Idempotent, and free on built structures, whose mirrors exist.
    """
    layout = _layout_of(structure)
    for name in layout.derived:
        getattr(structure, name)
    for _key, spec in layout.persisted:
        if isinstance(spec, Array) and spec.mirrored:
            getattr(structure, spec.name + "_i")
        elif isinstance(spec, Child):
            _map_children(spec, getattr(structure, spec.name), prime)


def persisted_bytes(structure: object) -> int:
    """Bytes of a structure tree's arrays in their declared dtypes.

    What :func:`flatten` packs, less alignment padding and the manifest
    — the one source of every ``size_in_bytes()``, so the space
    experiment and the index file count the same fields at the same
    widths.
    """
    total = 0

    def add(child: object) -> None:
        nonlocal total
        total += persisted_bytes(child)

    for _key, spec in _layout_of(structure).persisted:
        value = getattr(structure, spec.name)
        if isinstance(spec, Array):
            total += int(value.size) * np.dtype(spec.dtype).itemsize
        elif isinstance(spec, Child):
            _map_children(spec, value, add)
    return total
