"""RPL002 — op counter must be bumped before the memo lookup.

The wavelet tree memoizes ``rank``/``range_next_value`` per query. The
traced logical op counts are the repo's ground truth (the golden
Figure-2 fixture diffs them exactly), so they must be *memo-invariant*:
a memo hit has to count exactly like a miss. The convention that
guarantees this is ordering — the ``self.ops.<op> += 1`` increment
happens before the ``self._memo_*`` cache is consulted.

This rule approximates "increment dominates lookup" with a linear
statement-order walk (sound for the straight-line wrapper methods it
patrols): inside each class of a memoized module, any public method
that reads a ``_memo_*`` attribute — directly or via private helpers
of the same class — must contain an ``ops`` counter increment at an
earlier source line. ``_memo_users`` and friends are refcounting
bookkeeping, not caches, and are ignored. The counted-but-unchecked
twins that other modules call directly (``COUNTED_UNCHECKED_ENTRIES``)
are private by name but entry points in fact, and are judged like
public methods.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis import astutil
from repro.analysis.config import (
    COUNTED_UNCHECKED_ENTRIES,
    MEMO_ATTR_PREFIX,
    MEMO_BOOKKEEPING_ATTRS,
    MEMOIZED_PREFIXES,
    in_scope,
)
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.core import Finding, ModuleInfo, Project


def _memo_read_line(func: ast.FunctionDef | ast.AsyncFunctionDef) -> int | None:
    """First line where ``func`` reads a ``self._memo_*`` cache."""
    first: int | None = None
    for node in ast.walk(func):
        if not isinstance(node, ast.Attribute):
            continue
        if not node.attr.startswith(MEMO_ATTR_PREFIX):
            continue
        if node.attr in MEMO_BOOKKEEPING_ATTRS:
            continue
        if isinstance(node.ctx, ast.Load):
            if first is None or node.lineno < first:
                first = node.lineno
    return first


def _ops_increment_line(func: ast.FunctionDef | ast.AsyncFunctionDef) -> int | None:
    """First line where ``func`` bumps an op counter (``x.ops.y += 1``)."""
    first: int | None = None
    for node in ast.walk(func):
        if not isinstance(node, ast.AugAssign):
            continue
        chain = astutil.dotted(node.target)
        if chain is None:
            continue
        segments = chain.split(".")
        if "ops" in segments[:-1] or segments[0] == "ops":
            if first is None or node.lineno < first:
                first = node.lineno
    return first


def _self_calls(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[str, int]]:
    """``(method_name, lineno)`` for every ``self.<m>(...)`` call."""
    calls: list[tuple[str, int]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        chain = astutil.call_name(node)
        if chain is None:
            continue
        segments = chain.split(".")
        if len(segments) == 2 and segments[0] == "self":
            calls.append((segments[1], node.lineno))
    return calls


class CounterBeforeMemo(Rule):
    code = "RPL002"
    name = "counter-before-memo"
    summary = (
        "in memoized wrappers the op-counter increment must precede the "
        "memo lookup (traced counts stay memo-invariant)"
    )

    def check(self, module: "ModuleInfo", project: "Project") -> Iterator["Finding"]:
        if not in_scope(module.name, MEMOIZED_PREFIXES):
            return
        for klass in ast.walk(module.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            yield from self._check_class(module, klass)

    def _check_class(
        self, module: "ModuleInfo", klass: ast.ClassDef
    ) -> Iterator["Finding"]:
        methods = {
            stmt.name: stmt
            for stmt in klass.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        memo_line = {name: _memo_read_line(f) for name, f in methods.items()}
        inc_line = {name: _ops_increment_line(f) for name, f in methods.items()}

        # ``exposed[m]`` = earliest line at which method ``m`` reaches a
        # memo lookup that is NOT preceded (in source order) by an op
        # increment inside ``m`` itself. Propagate through self-calls to
        # a fixpoint so private helpers inherit their callers' cover.
        exposed: dict[str, int | None] = {}
        for name in methods:
            line = memo_line[name]
            if line is not None and (inc_line[name] is None or inc_line[name] >= line):
                exposed[name] = line
            else:
                exposed[name] = None
        changed = True
        while changed:
            changed = False
            for name, func in methods.items():
                for callee, call_line in _self_calls(func):
                    if callee == name or exposed.get(callee) is None:
                        continue
                    covered = inc_line[name] is not None and inc_line[name] < call_line
                    if not covered and (
                        exposed[name] is None or call_line < exposed[name]
                    ):
                        exposed[name] = call_line
                        changed = True

        for name, func in methods.items():
            if name.startswith("_") and name not in COUNTED_UNCHECKED_ENTRIES:
                continue  # private helpers are judged via their callers
            line = exposed.get(name)
            if line is not None:
                yield module.finding(
                    self.code,
                    f"'{klass.name}.{name}' consults a _memo_* cache "
                    "without first incrementing the op counter; a memo "
                    "hit must count exactly like a miss or traced op "
                    "counts become cache-dependent",
                    line=line,
                )
