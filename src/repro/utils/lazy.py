"""Lazy package exports (PEP 562): a package re-exports its submodules'
public names, each imported at its first access, so importing the
package or one of its submodules loads no other submodule. Each package
imports the same names under ``TYPE_CHECKING``, for type checkers.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable
from typing import Any


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``package``'s ``__getattr__`` and ``__dir__``: ``exports`` lists
    the names of each submodule (relative to the package). A resolved
    name is stored in the package; ``__dir__`` adds ``__all__``."""
    namespace = vars(sys.modules[package])
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{where[name]}", package)
        namespace[name] = getattr(module, name)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__
