"""The packages' public names resolve lazily to the objects their
defining modules hold.

``repro`` and its subpackages export by PEP 562 (``repro.utils.lazy``):
a name's module is imported at the name's first access. Each package
also imports every name under ``TYPE_CHECKING`` for type checkers;
these tests read those imports from the package's source and hold the
runtime to them, so the typed view and the running one cannot drift.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.bounds", "repro.engines", "repro.graph", "repro.knn",
    "repro.ltj", "repro.obs", "repro.parallel", "repro.query",
]


def _declared(package: str) -> tuple[dict[str, str], set[str]]:
    """Name → defining module of each name ``package``'s ``__init__``
    imports from ``repro`` (eagerly or under ``TYPE_CHECKING``), and the
    names it assigns itself."""
    path = Path(importlib.import_module(package).__file__)
    imported, assigned = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            imported.update((alias.name, node.module) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned.update(t.id for t in targets if isinstance(t, ast.Name))
    return imported, assigned


# repro.parallel declares no names for type checkers (its callers import
# from its submodules), so there is no declaration to hold it to.
@pytest.mark.parametrize("package", [p for p in PACKAGES if p != "repro.parallel"])
def test_every_export_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    imported, assigned = _declared(package)
    for name in module.__all__:
        value = getattr(module, name)
        if name in imported:
            source = importlib.import_module(imported[name])
            assert value is getattr(source, name), (package, name)
        else:
            # The package's own: the engine tables, the version.
            assert name in assigned and name in vars(module), (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    module = importlib.import_module(package)
    namespace: dict[str, object] = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        module.no_such_name  # noqa: B018


def test_engine_names_are_the_engines():
    from repro.engines import ENGINE_NAMES, ENGINES, INDEX_ENGINES

    assert set(ENGINE_NAMES) == set(ENGINES)
    assert len(ENGINE_NAMES) == len(ENGINES)
    assert set(INDEX_ENGINES) <= set(ENGINES)


def _fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter over this checkout."""
    src = str(Path(repro.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_a_fresh_import_resolves_nothing_and_dir_lists_every_export():
    """``import repro`` loads no subpackage, and each package's ``dir()``
    lists its whole ``__all__`` before any name of it is resolved."""
    _fresh(
        "import importlib, sys\n"
        "import repro\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "assert loaded == ['repro', 'repro.utils', 'repro.utils.lazy'], loaded\n"
        f"for name in {PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    assert set(package.__all__) <= set(dir(package)), name\n"
    )


def test_importing_the_explain_module_leaves_repro_explain_the_function():
    """``repro.explain`` is the function even when the submodule of that
    name is imported first, as it was when ``repro`` imported it eagerly."""
    _fresh(
        "import repro.explain, repro\n"
        "from repro.explain import explain\n"
        "assert repro.explain is explain, repro.explain\n"
        "from repro import explain as again\n"
        "assert again is explain\n"
    )
