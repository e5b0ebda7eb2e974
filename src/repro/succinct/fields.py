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
from typing import Any, ClassVar, Literal

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


class Layout:
    """The declared fields of one structure class.

    ``persisted`` pairs each persisted field with its manifest key, in
    flatten order; ``transients`` are reset on attach; ``mirrored``
    names the arrays that carry a ``<name>_i`` mirror and ``derived``
    maps each derived table to the method that builds it.
    """

    def __init__(self, kind: str, *fields: Field) -> None:
        self.kind = kind
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


class LazyMirrors:
    """Rebuilds a declared mirror or derived table on first touch.

    An attached structure starts without them, so ``__getattr__``
    (reached only on a miss) fills one in — a mirror with a single
    ``tolist()``, a derived table with its declared method — and caches
    it on the instance.
    """

    LAYOUT: ClassVar[Layout]

    def __getattr__(self, name: str) -> Any:
        layout = self.LAYOUT
        if name.endswith("_i") and name[:-2] in layout.mirrored:
            value = getattr(self, name[:-2]).tolist()
        elif name in layout.derived:
            value = getattr(self, layout.derived[name])()
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def size_in_bytes(self) -> int:
        """Bytes this structure persists, in its declared dtypes."""
        # Imported here: the walker's module imports every structure.
        from repro.store.layout import persisted_bytes

        return persisted_bytes(self)
