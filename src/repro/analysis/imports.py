"""Import-graph construction and reachability for reprolint.

RPL004 bans wall-clock and unseeded-randomness calls in any code
"reachable from the traced op-count pass". That reachability is
computed here: parse every project module's import statements, keep the
edges that stay inside the project, and BFS from the configured roots
(the Figure-2 setup and the engine entry points).

The walker is intentionally syntactic — it reads ``import``/``from``
statements, it does not execute anything. Conditional and
``TYPE_CHECKING``-guarded imports still count as edges: an
over-approximation is the right failure mode for a determinism gate.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.core import ModuleInfo, Project


def module_imports(module: "ModuleInfo") -> set[str]:
    """Absolute dotted names imported by ``module`` (project or not)."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(module.name, node)
            if base is None:
                continue
            names.add(base)
            for alias in node.names:
                if alias.name != "*":
                    names.add(f"{base}.{alias.name}")
    return names


def _resolve_from(module_name: str, node: ast.ImportFrom) -> str | None:
    """Absolute base module of a ``from X import Y`` statement."""
    if node.level == 0:
        return node.module
    # Relative import: climb ``level`` packages from the current module.
    parts = module_name.split(".")
    # ``from . import x`` inside package ``a.b`` (module a.b.c) climbs to
    # a.b; inside a package __init__ the module name already *is* the
    # package, which _module_name() gives us (no "__init__" suffix), so
    # one level strips the last segment either way.
    if len(parts) < node.level:
        return None
    base_parts = parts[: len(parts) - node.level]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts) if base_parts else None


def build_import_graph(project: "Project") -> dict[str, set[str]]:
    """module name -> names of *project* modules it imports.

    ``from pkg import name`` resolves to the submodule ``pkg.name`` when
    one exists in the project, and also keeps the ``pkg`` edge (package
    ``__init__`` side effects run on import).
    """
    known = {m.name for m in project.modules}
    graph: dict[str, set[str]] = {}
    for module in project.modules:
        edges: set[str] = set()
        for name in module_imports(module):
            # Longest known prefix: ``repro.ring.index.RingIndex`` ->
            # ``repro.ring.index``; plain ``numpy`` -> no edge.
            candidate = name
            while candidate:
                if candidate in known:
                    edges.add(candidate)
                    break
                if "." not in candidate:
                    break
                candidate = candidate.rsplit(".", 1)[0]
        edges.discard(module.name)
        graph[module.name] = edges
    return graph


def reachable(graph: dict[str, set[str]], roots: tuple[str, ...]) -> set[str]:
    """Modules reachable from any module matching a root prefix.

    Roots are dotted prefixes (``"repro.engines"`` seeds every
    ``repro.engines.*`` module). The result includes the roots.
    """
    queue: deque[str] = deque(
        name
        for name in graph
        if any(name == r or name.startswith(r + ".") for r in roots)
    )
    seen: set[str] = set(queue)
    while queue:
        current = queue.popleft()
        for nxt in graph.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen
