"""Persisted-field declarations: what of a structure *is* the database.

Each index structure names its persisted state once, as a class-level
:class:`Layout` written next to its constructor. That single declaration
drives everything that used to enumerate the fields by hand: flattening
into a segment, zero-copy attachment, cache priming, space accounting
(:mod:`repro.store.layout`) and the lazy plain-int mirrors
(:class:`LazyMirrors`). Adding a persisted field to a structure is one
line in that structure's own file.

Widths are declared, not negotiated: a count, offset or id array is
``<i4`` in every file (:data:`INT`), so there is one reader and the
byte layout is a function of the declarations alone. A value that does
not fit is refused when the structure is flattened.

A field's manifest key is its attribute name without the leading
underscore; fields flatten in declaration order, which fixes the byte
layout of the segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Literal

import numpy as np

from repro.utils.errors import StoreFormatError

#: The stored dtype of every count, offset and node id, and its width:
#: 2^31 positions is far past what a pure-Python index can hold.
INT: Literal["<i4"] = "<i4"
INT_BYTES = 4


@dataclass(frozen=True)
class Scalar:
    """A plain ``int``/``float`` kept in the manifest itself."""

    name: str
    cast: type[int] | type[float] = int


@dataclass(frozen=True)
class Array:
    """A canonical numpy array stored in the segment.

    ``dtype`` is an explicit little-endian string: ``<u8`` bit words,
    ``<i4`` counts/offsets/ids (:data:`INT`), ``<f8`` distances.
    ``mirrored`` arrays carry a plain-scalar ``<name>_i`` list, never
    persisted and rebuilt on first touch, so hot paths never unbox a
    numpy scalar.
    """

    name: str
    dtype: Literal["<u8", "<i4", "<f8"]
    mirrored: bool = False


@dataclass(frozen=True)
class Child:
    """One nested structure, or a list / dict / optional one of them.

    ``keys`` fixes a dict's keys and their flatten order; without it a
    dict flattens in sorted key order.
    """

    name: str
    cls: type
    many: Literal["one", "list", "dict", "optional"] = "one"
    keys: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Transient:
    """Runtime-only state: never persisted, ``reset`` after attach."""

    name: str
    reset: Any = None


@dataclass(frozen=True)
class Derived:
    """A plain-scalar table recomputed from the persisted fields.

    Never persisted and absent after attach; the first touch (or
    ``prime``) calls the structure's method ``build`` and keeps what it
    returns.
    """

    name: str
    build: str


Field = Scalar | Array | Child | Transient | Derived


def _corrupt(what: str, rule: str) -> StoreFormatError:
    return StoreFormatError(
        f"{what} {rule}; the index is corrupt — rebuild it with "
        "'repro build'"
    )


def checked_offsets(
    what: str, array: np.ndarray, size: int, total: int
) -> list[int]:
    """A stored offsets table as plain ints, once it is ``size``
    offsets that do not decrease from 0 to ``total``.

    The build of a derived mirror, in the idiom of the bitvector's
    recount: a flipped bit that breaks this structure is a
    :class:`StoreFormatError` here, never an ``IndexError`` or a range
    past the data later; one that keeps it is the checksum's to catch.
    """
    if (
        array.size != size
        or array[0] != 0
        or array[-1] != total
        or (np.diff(array) < 0).any()
    ):
        raise _corrupt(what, f"are not {size} offsets from 0 up to {total}")
    offsets: list[int] = array.tolist()
    return offsets


def checked_ids(what: str, array: np.ndarray, bound: int) -> list[int]:
    """A stored sorted id table as plain ints, once its ids strictly
    increase inside ``[0, bound)`` (see :func:`checked_offsets`)."""
    if array.size and (
        array[0] < 0 or array[-1] >= bound or (np.diff(array) <= 0).any()
    ):
        raise _corrupt(what, f"are not strictly increasing ids in [0, {bound})")
    ids: list[int] = array.tolist()
    return ids


class Layout:
    """The declared fields of one structure class.

    ``persisted`` pairs each persisted field with its manifest key, in
    flatten order; ``transients`` are reset on attach; ``mirrored``
    names the arrays that carry a ``<name>_i`` mirror and ``derived``
    maps each derived table to the method that builds it. A structure
    whose derived tables start as readers over the mapping names in
    ``promote`` the method that replaces them by the full tables;
    ``prime`` calls it first.
    """

    def __init__(
        self, kind: str, *fields: Field, promote: str | None = None
    ) -> None:
        self.kind = kind
        self.promote = promote
        self.transients = tuple(f for f in fields if isinstance(f, Transient))
        self.persisted = tuple(
            (f.name.lstrip("_"), f)
            for f in fields
            if isinstance(f, (Scalar, Array, Child))
        )
        self.mirrored = frozenset(
            f.name for f in fields if isinstance(f, Array) and f.mirrored
        )
        self.derived = {
            f.name: f.build for f in fields if isinstance(f, Derived)
        }


class _Lazy:
    """A mirror (``source.tolist()``) or derived table (``source()``),
    built on first read and then kept in the instance ``__dict__``,
    which shadows this non-data descriptor from then on."""

    def __init__(self, name: str, source: str, derived: bool) -> None:
        self._name = name
        self._source = source
        self._derived = derived

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        source = getattr(obj, self._source)
        value = source() if self._derived else source.tolist()
        obj.__dict__[self._name] = value
        return value


class LazyMirrors:
    """Rebuilds a declared mirror or derived table on first touch.

    An attached structure starts without them: each is a descriptor on
    the class that fills one in on first read — a mirror with a single
    ``tolist()``, a derived table with its declared method — and caches
    it on the instance, where later reads find it first. A descriptor,
    not ``__getattr__``: a class with ``__getattr__`` gets no
    specialized attribute reads, and these are the hot path's objects.
    """

    LAYOUT: ClassVar[Layout]

    if TYPE_CHECKING:  # the lazy names are not declared attributes

        def __getattr__(self, name: str) -> Any: ...

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        layout = cls.__dict__.get("LAYOUT")
        if layout is None:
            return
        for name in layout.mirrored:
            setattr(cls, name + "_i", _Lazy(name + "_i", name, False))
        for name, build in layout.derived.items():
            setattr(cls, name, _Lazy(name, build, True))

    def size_in_bytes(self) -> int:
        """Bytes this structure persists, in its declared dtypes."""
        # Imported here: the walker's module imports every structure.
        from repro.store.layout import persisted_bytes

        return persisted_bytes(self)
