"""Every public definition in ``src/repro`` has a caller outside ``tests/``.

A method that only a test calls is code the program carries for nothing:
the search never runs it, so a test that pins it pins nothing the program
does. This scan parses ``src/repro/**/*.py`` and lists each public
(non-underscore) function, method or class whose name nothing in
``src/repro``, ``benchmarks/`` or ``examples/`` loads.

A name counts as used when it appears as a ``Name`` load, an
``Attribute`` load, or an import outside an ``__init__.py``. A re-export
in an ``__init__.py`` or an ``__all__`` entry is not a caller. Names are
matched without their owner, so a method shares its reach with every
other definition of that name: the scan is cheap and errs towards
keeping code.

A definition that stays without a caller needs an entry in ``KEPT``,
with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Qualified name (module path below ``repro``, then the definition) →
#: why it stays although nothing outside ``tests/`` calls it.
KEPT: dict[str, str] = {
    "serve.app.ServerThread":
        "the in-process server the serve tests boot; repro.serve exports it",
    "bounds.constraint_graph.ConstraintGraph.topological_order":
        "Thm. 2's recipe for an acyclic constraint graph; tests pin it",
    "bounds.constraint_graph.ConstraintGraph.scc_id":
        "Def. 11's strongly connected components; tests pin them",
    "bounds.constraint_graph.ConstraintGraph.minimal_variables":
        "Def. 11's minimal variables; tests pin them",
    "ltj.ordering.TopologicalOrdering":
        "Thm. 2's ordering as a strategy; tests pin its choices",
    "bounds.linear_program.verify_weights":
        "checks a weight vector against the paper's LP (docs/theory.md)",
    "query.rewrite.orient_clauses":
        "the paper's orientation of a symmetric clause (docs/theory.md)",
    "datasets.query_log.generate_workload_from_log":
        "builds a workload from a mined log, as Sec. 6.1 does",
    "engines.database.GraphDatabase.bump_epoch":
        "invalidates the result cache after the data changes",
    "serve.protocol.validate_query_response": "wire schema of a /query reply",
    "serve.protocol.validate_explain_response": "wire schema of a /explain reply",
    "serve.protocol.validate_error_response": "wire schema of an error reply",
    "succinct.bitvector.BitVector.select0":
        "the checked entry through which tests pin _select0_u",
    "succinct.wavelet_tree.WaveletTree.distinct_values":
        "the checked entry through which tests pin _range_values_u, the "
        "range report a short seeker bisects (Sec. 2.3's range_symbols)",
}


def _sources(*dirs: Path) -> list[Path]:
    return sorted(p for d in dirs for p in d.rglob("*.py"))


def _used_names() -> set[str]:
    used: set[str] = set()
    for path in _sources(SRC, ROOT / "benchmarks", ROOT / "examples"):
        reexport = path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexport:
                used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return used


def _definitions() -> dict[str, str]:
    """Qualified name → bare name of each public def or class in ``src/repro``."""
    found: dict[str, str] = {}

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[f"{prefix}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}.{node.name}")

    for path in _sources(SRC):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text(), str(path)).body, module)
    return found


def test_every_public_definition_has_a_caller_outside_tests():
    used = _used_names()
    unreached = sorted(
        qualified for qualified, name in _definitions().items()
        if name not in used and qualified not in KEPT
    )
    assert not unreached, (
        "only tests reach these definitions; delete them, or give KEPT "
        "the reason each stays:\n  " + "\n  ".join(unreached)
    )


def test_every_kept_name_exists_and_is_still_unreached():
    definitions = _definitions()
    used = _used_names()
    stale = sorted(
        qualified for qualified in KEPT
        if qualified not in definitions or definitions[qualified] in used
    )
    assert not stale, "KEPT names a definition that is gone or now has a caller: " + ", ".join(stale)
