"""Shared AST helpers for the reprolint rules."""

from __future__ import annotations

import ast
from collections.abc import Iterator


def attach_parents(tree: ast.AST) -> ast.AST:
    """Annotate every node with a ``_rpl_parent`` backlink."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._rpl_parent = node  # type: ignore[attr-defined]
    return tree


def parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_rpl_parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Walk from ``node``'s parent up to the module root."""
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def dotted(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``, else None.

    Subscripts and calls break the chain (``a.b().c`` is not a plain
    dotted expression).
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def enclosing_function(node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for anc in ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc
    return None


def enclosing_loop(node: ast.AST, stop: ast.AST | None = None) -> ast.AST | None:
    """Innermost ``for``/``while``/comprehension around ``node``.

    Stops climbing at ``stop`` (typically the enclosing function), so a
    loop in an *outer* function does not count.
    """
    for anc in ancestors(node):
        if anc is stop:
            return None
        if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
            return anc
        if isinstance(anc, (ast.ListComp, ast.SetComp, ast.DictComp,
                            ast.GeneratorExp)):
            return anc
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda, ast.ClassDef)):
            return None
    return None


def terminates(stmts: list[ast.stmt]) -> bool:
    """Whether a statement block always leaves the enclosing block."""
    if not stmts:
        return False
    last = stmts[-1]
    if isinstance(last, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
        return True
    if isinstance(last, ast.If):
        return (
            bool(last.orelse)
            and terminates(last.body)
            and terminates(last.orelse)
        )
    return False


def is_none_check(test: ast.expr) -> tuple[str, bool] | None:
    """Decompose ``X is None`` / ``X is not None`` tests.

    Returns ``(dotted_chain, is_not_none)`` when ``test`` compares a
    plain dotted expression against ``None`` with ``is``/``is not``,
    else ``None``.
    """
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    op = test.ops[0]
    if not isinstance(op, (ast.Is, ast.IsNot)):
        return None
    left, right = test.left, test.comparators[0]
    none_side = None
    expr_side = None
    for a, b in ((left, right), (right, left)):
        if isinstance(b, ast.Constant) and b.value is None:
            none_side, expr_side = b, a
            break
    if none_side is None or expr_side is None:
        return None
    chain = dotted(expr_side)
    if chain is None:
        return None
    return chain, isinstance(op, ast.IsNot)


def call_name(node: ast.Call) -> str | None:
    """Dotted name of the called object, if it is a plain chain."""
    return dotted(node.func)
