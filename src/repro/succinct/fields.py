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

import weakref
import zlib
from collections.abc import Iterator, Sequence
from operator import le, lt
from typing import TYPE_CHECKING, Any, ClassVar, Literal

from repro.utils.errors import StoreChecksumError, StoreFormatError
from repro.utils.record import Frozen

#: The stored dtype of every count, offset and node id, and its width:
#: 2^31 positions is far past what a pure-Python index can hold.
INT: Literal["<i4"] = "<i4"
INT_BYTES = 4

#: Per stored dtype: the ``memoryview`` format an attached array is read
#: through (the host is little-endian, as the index file is) and the
#: width of one item.
FORMATS: dict[str, tuple[str, int]] = {
    "<u8": ("Q", 8), INT: ("i", INT_BYTES), "<f8": ("d", 8)
}


class Scalar(Frozen):
    """A plain ``int``/``float`` kept in the manifest itself."""

    __slots__ = ("name", "cast")
    name: str
    cast: type[int] | type[float]

    def __init__(self, name: str, cast: type[int] | type[float] = int) -> None:
        self._set(name=name, cast=cast)


class Array(Frozen):
    """A one-dimensional array stored in the segment: a numpy array
    on a built structure, a read-only ``memoryview`` of the mapping on
    an attached one.

    ``dtype`` is an explicit little-endian string: ``<u8`` bit words,
    ``<i4`` counts/offsets/ids (:data:`INT`), ``<f8`` distances.
    ``what`` names the array in the error its checksum raises.
    ``mirrored`` arrays carry a plain-scalar ``<name>_i`` list, never
    persisted and rebuilt on first touch, so hot paths read a list.
    """

    __slots__ = ("name", "dtype", "what", "mirrored")
    name: str
    dtype: Literal["<u8", "<i4", "<f8"]
    what: str
    mirrored: bool

    def __init__(
        self,
        name: str,
        dtype: Literal["<u8", "<i4", "<f8"],
        what: str,
        mirrored: bool = False,
    ) -> None:
        self._set(name=name, dtype=dtype, what=what, mirrored=mirrored)


class Child(Frozen):
    """One nested structure, or a list / dict / optional one of them.

    ``keys`` fixes a dict's keys and their flatten order; without it a
    dict flattens in sorted key order.
    """

    __slots__ = ("name", "cls", "many", "keys")
    name: str
    cls: type
    many: Literal["one", "list", "dict", "optional"]
    keys: tuple[str, ...] | None

    def __init__(
        self,
        name: str,
        cls: type,
        many: Literal["one", "list", "dict", "optional"] = "one",
        keys: tuple[str, ...] | None = None,
    ) -> None:
        self._set(name=name, cls=cls, many=many, keys=keys)


class Transient(Frozen):
    """Runtime-only state: never persisted, ``reset`` after attach."""

    __slots__ = ("name", "reset")
    name: str
    reset: Any

    def __init__(self, name: str, reset: Any = None) -> None:
        self._set(name=name, reset=reset)


class Derived(Frozen):
    """A plain-scalar table recomputed from the persisted fields.

    Never persisted and absent after attach; the first touch (or
    ``prime``) calls the structure's method ``build`` and keeps what it
    returns. What it returns may be a :class:`ColdReader` over the
    mapping, which the structure's promotion replaces by the full table.
    """

    __slots__ = ("name", "build")
    name: str
    build: str

    def __init__(self, name: str, build: str) -> None:
        self._set(name=name, build=build)


Field = Scalar | Array | Child | Transient | Derived


def _corrupt(what: str, rule: str) -> StoreFormatError:
    return StoreFormatError(
        f"{what} {rule}; the index is corrupt — rebuild it with "
        "'repro build'"
    )


def checked_offsets(
    owner: LazyMirrors, what: str, table: Sequence[int], size: int, total: int
) -> Sequence[int]:
    """``owner``'s stored offsets table that must hold ``size`` offsets
    that do not decrease from 0 to ``total``, as a :class:`ColdTable`
    over it.

    A flipped bit that breaks this structure is a
    :class:`StoreFormatError` at the first read of an entry it breaks,
    never an ``IndexError`` or a range past the data later; one that
    keeps it is the checksum's to catch.
    """
    if len(table) != size:
        raise _corrupt(what, f"are not {size} offsets from 0 up to {total}")
    return ColdTable(owner, what, table, 0, total, 0, True)


def checked_ids(
    owner: LazyMirrors, what: str, table: Sequence[int], bound: int
) -> Sequence[int]:
    """``owner``'s stored sorted id table whose ids must strictly
    increase inside ``[0, bound)``, as a :class:`ColdTable` over it (see
    :func:`checked_offsets`)."""
    return ColdTable(owner, what, table, 0, bound - 1, 1, False)


#: The fixed part of a promotion's cost, in cold reads: a derivation
#: costs about 25 us plus its per-entry part, a cold read a fraction of
#: a microsecond (2-core host; ``docs/performance.md``).
FIXED_READS = 64

#: A checked table's per-entry part, in entries a cold read pays for: a
#: cold read costs about 0.35 us, the whole check about 50 ns an entry.
#: Long unprimed queries measured no different from 0 to one read an
#: entry (``docs/performance.md``, "Long unprimed queries").
_ENTRIES_PER_READ = 8


class ColdReader:
    """A derived table of an attached structure read from the mapping,
    in its owner's place until the owner *promotes*.

    It pays while an unprimed attach reads few of its entries — a
    lookup, a first answer. Every read is counted, and once the reads
    have cost about what the full list costs (:data:`FIXED_READS` plus
    ``budget``), the reader derives its full, checked list once and
    calls its owner's promotion (``_promote``, which the owner's
    ``Layout(..., promote=...)`` names for ``prime``), which puts that
    list in the reader's place. A reader kept past that — a
    seeker's closure, a relation's field — answers from the same list
    without checks or counts, and never derives again. ``prime`` calls
    the promotion up front.
    """

    __slots__ = ("_left", "_owner", "_hot")

    def __init__(self, owner: LazyMirrors, budget: int) -> None:
        self._left = FIXED_READS + budget
        # Weak: the owner holds this reader, and a cycle would keep the
        # mapping's views alive past the store's close.
        self._owner = weakref.ref(owner)
        self._hot: list[int] | None = None

    def _derive(self) -> list[int]:
        """The whole table as a checked plain-int list."""
        raise NotImplementedError

    def full(self) -> list[int]:
        """The whole table as a checked plain-int list, derived once."""
        hot = self._hot
        if hot is None:
            hot = self._hot = self._derive()
        return hot

    def _spent(self) -> None:
        """The budget is spent: derive the list, then promote the owner."""
        self.full()
        owner = self._owner()
        if owner is not None:
            owner._promote()


class ColdTable(ColdReader):
    """A stored ``<i4`` table of an attached structure, read from the
    mapping (a :class:`ColdReader`): each entry a read touches is
    checked against its bounds ``[low, high]`` and against its
    neighbours (each at least ``gap`` above the one before), and with
    ``pinned`` the first entry must be ``low`` and the last ``high``.
    Its budget is one read per ``_ENTRIES_PER_READ`` entries.
    """

    __slots__ = ("_what", "_table", "_low", "_high", "_gap", "_pinned", "_size")

    def __init__(
        self,
        owner: LazyMirrors,
        what: str,
        table: Sequence[int],
        low: int,
        high: int,
        gap: int,
        pinned: bool,
    ) -> None:
        super().__init__(owner, len(table) // _ENTRIES_PER_READ)
        self._what = what
        self._table = table
        self._low = low
        self._high = high
        self._gap = gap
        self._pinned = pinned
        self._size = len(table)

    def _broken(self) -> StoreFormatError:
        if self._gap:
            rule = f"are not strictly increasing ids in [0, {self._high + 1})"
        else:
            rule = f"are not {self._size} offsets from 0 up to {self._high}"
        return _corrupt(self._what, rule)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        return map(self.__getitem__, range(self._size))

    def __getitem__(self, i: int) -> int:
        hot = self._hot
        if hot is not None:
            return hot[i]
        size = self._size
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"entry {i} of a {size}-entry table")
        table = self._table
        value = table[i]
        gap = self._gap
        if not self._low <= value <= self._high:
            raise self._broken()
        if i:
            if table[i - 1] + gap > value:
                raise self._broken()
        elif self._pinned and value != self._low:
            raise self._broken()
        if i + 1 < size:
            if value + gap > table[i + 1]:
                raise self._broken()
        elif self._pinned and value != self._high:
            raise self._broken()
        self._left -= 1
        if self._left <= 0:
            self._spent()
        return value

    def _derive(self) -> list[int]:
        values: list[int] = self._table.tolist()  # type: ignore[attr-defined]
        low, high = self._low, self._high
        if values and (
            not low <= values[0] <= values[-1] <= high
            or (self._pinned and (values[0], values[-1]) != (low, high))
            or not all(map(lt if self._gap else le, values, values[1:]))
        ):
            raise self._broken()
        return values


class Layout:
    """The declared fields of one structure class.

    ``persisted`` pairs each persisted field with its manifest key, in
    flatten order, and ``arrays`` lists its arrays in that order;
    ``transients`` are reset on attach; ``mirrored``
    names the arrays that carry a ``<name>_i`` mirror and ``derived``
    maps each derived table to the method that builds it. A structure
    whose derived tables start as readers over the mapping names in
    ``promote`` the method that replaces them by the full tables
    (:meth:`LazyMirrors._promote` does it for each :class:`ColdReader`);
    ``prime`` calls it first, and so does a reader whose budget is spent.
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
        self.arrays = tuple(f for f in fields if isinstance(f, Array))
        self.mirrored = frozenset(
            f.name for f in fields if isinstance(f, Array) and f.mirrored
        )
        self.derived = {
            f.name: f.build for f in fields if isinstance(f, Derived)
        }


def check_sums(node: LazyMirrors) -> None:
    """Hold each array of an attached ``node`` to the CRC-32 its
    manifest entry records, once, before anything reads the array.

    A mismatch is a :class:`StoreChecksumError` naming the array, and
    stays one: the node keeps its sums, so every later read raises
    again. Two threads may both check a node; neither reads it first.
    """
    sums = node._sums
    if not sums:
        return
    carrier, crcs = sums
    for spec, crc in zip(node.LAYOUT.arrays, crcs):
        got = zlib.crc32(getattr(node, spec.name))
        if got != crc:
            raise StoreChecksumError(
                f"{carrier}: the {spec.what} have checksum {got:#010x}, not "
                f"the recorded {crc:#010x}; the index is corrupt — rebuild "
                "it with 'repro build'"
            )
    node._sums = ()


class _Lazy:
    """A mirror (``source.tolist()``) or derived table (``source()``),
    built on first read and then kept in the instance ``__dict__``,
    which shadows this non-data descriptor from then on. The node's
    arrays are held to their checksums first (:func:`check_sums`)."""

    def __init__(self, name: str, source: str, derived: bool) -> None:
        self._name = name
        self._source = source
        self._derived = derived

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        if obj._sums:
            check_sums(obj)
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

    #: The checksums an attach holds this node's arrays to: ``(carrier,
    #: one CRC-32 per array of the layout)`` until :func:`check_sums`
    #: has held them, ``()`` after; ``None`` when there are none to hold
    #: (a built node, or an attach that skips the checksums).
    _sums: tuple[Any, ...] | None = None

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

    def _promote(self) -> None:
        """Put the full list of each derived table that is a
        :class:`ColdReader` in its place (a structure that names this in
        ``Layout(..., promote=...)``)."""
        for name in self.LAYOUT.derived:
            table = getattr(self, name)
            if isinstance(table, ColdReader):
                setattr(self, name, table.full())

    def size_in_bytes(self) -> int:
        """Bytes this structure persists, in its declared dtypes."""
        # Imported here: the walker's module imports every structure.
        from repro.store.layout import persisted_bytes

        return persisted_bytes(self)
