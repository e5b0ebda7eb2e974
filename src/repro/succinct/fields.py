"""Persisted-field declarations: what of a structure *is* the database.

Each index structure names its persisted state once, as a class-level
:class:`Layout` written next to its constructor. That single declaration
drives everything that used to enumerate the fields by hand: flattening
into a segment, zero-copy attachment, cache priming
(:mod:`repro.store.layout`) and the lazy plain-int mirrors
(:class:`LazyMirrors`). Adding a persisted field to a structure is one
line in that structure's own file.

A field's manifest key is its attribute name without the leading
underscore; fields flatten in declaration order, which fixes the byte
layout of the segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Literal


@dataclass(frozen=True)
class Scalar:
    """A plain ``int``/``float`` kept in the manifest itself."""

    name: str
    cast: type[int] | type[float] = int


@dataclass(frozen=True)
class Array:
    """A canonical numpy array stored in the segment.

    ``dtype`` is an explicit little-endian string (``<u8``/``<i8``/
    ``<f8``). ``mirrored`` arrays carry a plain-scalar ``<name>_i``
    list, never persisted and rebuilt on first touch, so hot paths
    never unbox a numpy scalar.
    """

    name: str
    dtype: Literal["<u8", "<i8", "<f8"]
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


Field = Scalar | Array | Child | Transient


class Layout:
    """The declared fields of one structure class.

    ``persisted`` pairs each persisted field with its manifest key, in
    flatten order; ``transients`` are the rest; ``mirrored`` names the
    arrays that carry a ``<name>_i`` mirror.
    """

    def __init__(self, kind: str, *fields: Field) -> None:
        self.kind = kind
        self.transients = tuple(f for f in fields if isinstance(f, Transient))
        self.persisted = tuple(
            (f.name.lstrip("_"), f)
            for f in fields
            if not isinstance(f, Transient)
        )
        self.mirrored = frozenset(
            f.name for f in fields if isinstance(f, Array) and f.mirrored
        )


class LazyMirrors:
    """Rebuilds a declared ``<array>_i`` mirror on first touch.

    Constructors build the mirrors eagerly; an attached structure starts
    without them, so ``__getattr__`` (reached only on a miss) fills one
    in with a single ``tolist()`` and caches it on the instance.
    """

    LAYOUT: ClassVar[Layout]

    def __getattr__(self, name: str) -> Any:
        if name.endswith("_i") and name[:-2] in self.LAYOUT.mirrored:
            value = getattr(self, name[:-2]).tolist()
            self.__dict__[name] = value
            return value
        raise AttributeError(name)
