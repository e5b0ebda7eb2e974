"""RPL003 — observability touches must be guarded.

PR-1's observability layer is opt-in: engines and indexes carry
``trace``/``obs``/``ops`` references that default to ``None`` and are
only populated when the caller asks for instrumentation. The
zero-overhead-when-disabled guarantee holds because every counter bump
and trace call sits behind an ``is not None`` guard. This rule enforces
that shape everywhere outside ``repro.obs`` (which *is* the recorder and
may touch freely).

A "touch" is a method call, attribute read or attribute write *through*
an observability reference — a dotted chain whose non-final segment is
one of the configured obs names (``self.obs.bump(...)``,
``trace.engine = ...``, ``vc.leap += 1``). Binding the reference itself
(``obs = self.obs``, ``self._trace = trace``) is free: that is how the
guard pattern starts.

Recognised guards, matching the idioms in the tree:

* ``if X is not None:`` with the touch in the body (or ``if X is
  None:`` with the touch in the orelse),
* conditional expressions — ``f(trace) if trace is not None else None``,
* early-return — a preceding ``if X is None: return ...`` whose body
  always leaves the block guards everything after it,
* ``assert X is not None`` before the touch in the same block.

``X`` may be the touched chain's own prefix or any obs-named alias —
the alias-binding idiom (``obs = self.obs; if obs is not None:``)
renames the reference, so guard matching is deliberately loose: a
None-guard on *some* obs reference in scope accepts the touch.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis import astutil
from repro.analysis.config import (
    OBS_EXEMPT_PREFIXES,
    OBS_GUARD_PREFIXES,
    OBS_SEGMENTS,
    in_scope,
)
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.core import Finding, ModuleInfo, Project


def _obs_chain(chain: str) -> bool:
    """True when a non-final segment of ``chain`` is an obs name."""
    segments = chain.split(".")
    return any(seg in OBS_SEGMENTS for seg in segments[:-1])


def _is_guard_test(test: ast.expr) -> tuple[str, bool] | None:
    """Recognise ``X is (not) None`` where X is an obs-ish chain."""
    decomposed = astutil.is_none_check(test)
    if decomposed is None:
        return None
    chain, is_not_none = decomposed
    if chain.split(".")[-1] in OBS_SEGMENTS or _obs_chain(chain):
        return chain, is_not_none
    return None


def _guarded(node: ast.AST) -> bool:
    """Whether an obs touch at ``node`` sits behind a None-guard."""
    current: ast.AST = node
    for anc in astutil.ancestors(node):
        # Conditional expression: touch in the not-None arm.
        if isinstance(anc, ast.IfExp):
            guard = _is_guard_test(anc.test)
            if guard is not None:
                _, is_not_none = guard
                if is_not_none and current is anc.body:
                    return True
                if not is_not_none and current is anc.orelse:
                    return True
        # Guarding if-statement: touch in the matching branch.
        if isinstance(anc, ast.If):
            guard = _is_guard_test(anc.test)
            if guard is not None:
                _, is_not_none = guard
                in_body = any(current is s or _contains(s, current)
                              for s in anc.body)
                in_orelse = any(current is s or _contains(s, current)
                                for s in anc.orelse)
                if is_not_none and in_body:
                    return True
                if not is_not_none and in_orelse:
                    return True
        # Preceding early-return guard or assert in any enclosing block.
        for block in _blocks_of(anc):
            if current in block:
                idx = block.index(current)
                if _block_guards_tail(block[:idx]):
                    return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            break
        current = anc
    return False


def _contains(tree: ast.AST, target: ast.AST) -> bool:
    return any(n is target for n in ast.walk(tree))


def _blocks_of(node: ast.AST) -> list[list[ast.stmt]]:
    blocks = []
    for field in ("body", "orelse", "finalbody"):
        stmts = getattr(node, field, None)
        if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
            blocks.append(stmts)
    for handler in getattr(node, "handlers", []) or []:
        blocks.append(handler.body)
    return blocks


def _block_guards_tail(prefix: list[ast.stmt]) -> bool:
    """Does some statement in ``prefix`` guard everything after it?"""
    for stmt in prefix:
        if isinstance(stmt, ast.If):
            guard = _is_guard_test(stmt.test)
            if guard is not None and not guard[1] and astutil.terminates(stmt.body):
                return True  # if X is None: return/raise/continue
        if isinstance(stmt, ast.Assert):
            guard = _is_guard_test(stmt.test)
            if guard is not None and guard[1]:
                return True  # assert X is not None
    return False


class ObsGuard(Rule):
    code = "RPL003"
    name = "obs-guard"
    summary = (
        "trace/counter touches outside repro.obs must sit behind an "
        "'is not None' guard (zero overhead when disabled)"
    )

    def check(self, module: "ModuleInfo", project: "Project") -> Iterator["Finding"]:
        if not in_scope(module.name, OBS_GUARD_PREFIXES):
            return
        if in_scope(module.name, OBS_EXEMPT_PREFIXES):
            return
        reported: set[tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            touch = self._touch_chain(node)
            if touch is None:
                continue
            key = (node.lineno, node.col_offset)
            if key in reported:
                continue
            if _guarded(node):
                continue
            reported.add(key)
            yield module.finding(
                self.code,
                f"unguarded observability touch '{touch}': wrap in "
                "'if <ref> is not None:' (or the early-return / "
                "conditional-expression variant) so disabled tracing "
                "stays zero-overhead",
                node,
            )

    @staticmethod
    def _touch_chain(node: ast.AST) -> str | None:
        """Dotted chain when ``node`` is an obs touch, else None."""
        if isinstance(node, ast.Call):
            chain = astutil.call_name(node)
            if chain is not None and _obs_chain(chain):
                return chain
            return None
        if isinstance(node, ast.AugAssign):
            chain = astutil.dotted(node.target)
            if chain is not None and _obs_chain(chain):
                return chain
            return None
        if isinstance(node, ast.Assign):
            for target in node.targets:
                chain = astutil.dotted(target)
                if chain is not None and _obs_chain(chain):
                    return chain
            return None
        return None
