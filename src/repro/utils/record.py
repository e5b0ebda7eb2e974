"""Plain ``__slots__`` value classes for the modules a fresh query
process imports.

:class:`Record` gives what ``@dataclass`` gave them — equality and a
``repr`` over the fields, pickling, a :meth:`Record.replace` — without
importing :mod:`dataclasses`, which imports :mod:`inspect`: about 6 ms
of every ``repro query`` process. A class names its fields once, in
``__slots__`` (a subclass's follow its bases'), and writes its own
``__init__``, whose parameters are the fields in that order.
:class:`Frozen` adds hashing and refuses assignment after ``__init__``.
"""

from __future__ import annotations

from typing import Any, ClassVar, TypeVar

_R = TypeVar("_R", bound="Record")


class Record:
    """Equality, ``repr``, pickling and :meth:`replace` over the fields
    named by ``__slots__``. Mutable and unhashable, as a ``@dataclass``
    with ``eq`` is."""

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _astuple(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._astuple()

    def replace(self: _R, **changes: Any) -> _R:
        """A new instance with ``changes`` applied, built (and so
        validated) by ``__init__``."""
        return type(self)(**{**dict(zip(self._fields, self._astuple())), **changes})


class Frozen(Record):
    """A hashable :class:`Record` whose fields ``__init__`` sets once,
    through :meth:`_set`."""

    __slots__ = ()

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(self._astuple())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, **values: Any) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)
