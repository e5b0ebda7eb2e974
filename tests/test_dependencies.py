"""scipy is no dependency: no module of the repo imports it.

numpy is the one runtime dependency (``pyproject.toml``). This scan
parses every ``.py`` file under ``src/``, ``tests/``, ``benchmarks/`` and
``examples/`` and fails on an ``import scipy...``, a ``from scipy...``
or a dynamic import (``importlib.import_module``, ``__import__``,
``pytest.importorskip``) of a ``scipy`` module, so a check that needs
scipy cannot come back as one that skips where scipy is missing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DYNAMIC = {"import_module", "__import__", "importorskip"}


def _is_scipy(module: str | None) -> bool:
    return (module or "").split(".")[0] == "scipy"


def _scipy_imports(path: Path) -> list[int]:
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            hit = any(_is_scipy(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and _is_scipy(node.module)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            arg = node.args[0]
            hit = (
                name in DYNAMIC
                and isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and _is_scipy(arg.value)
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line in _scipy_imports(path)
    ]
    assert not found, "scipy is imported at: " + ", ".join(found)


def test_the_scan_sees_every_form_of_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import os, scipy.spatial\n"
        "from scipy import optimize\n"
        "import importlib\n"
        "importlib.import_module('scipy.optimize')\n"
        "__import__('scipy')\n"
        "pytest.importorskip('scipy.optimize')\n"
        "from . import scipy\n"
        "import scipyx\n"
        "names = ['scipy']\n"
    )
    assert _scipy_imports(source) == [1, 2, 4, 5, 6]


def test_pyproject_lists_no_scipy():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert not [line for line in lines if "scipy" in line.split("#")[0]]
