"""RPL004 — determinism of the traced op-count pass.

The golden fixtures replay every query of the Figure-2 setup under a
trace and compare the logical op counts *exactly* — across runs,
machines and Python versions. Anything reachable from that pass
(computed over the import graph from ``repro.experiments`` — the setup
and its dataset/workload generators — and ``repro.engines``) therefore
must not:

* consult wall-clock time (``time.time``, ``datetime.now`` — only
  ``time.perf_counter`` is sanctioned, and only for wall-time fields,
  which nothing compares exactly),
* iterate a ``set`` where the order can leak into results
  (``for x in set(...)``, ``list({...})`` — sort first).

Unseeded randomness is checked *repo-wide*, not just in the reachable
set: ``np.random.default_rng()`` without a seed, the legacy global
``np.random.*`` entry points, and the stateful ``random`` module all
make dataset builders and demos irreproducible, which is how a
"repro" repo dies. Pass an explicit seed (``default_rng(seed)``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis import astutil
from repro.analysis.config import (
    DETERMINISM_ROOTS,
    NUMPY_GLOBAL_RNG_FNS,
    WALL_CLOCK_CALLS,
)
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.core import Finding, ModuleInfo, Project


def _imports_random_module(module: "ModuleInfo") -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                return True
    return False


#: Consumers that erase iteration order: a set iterated directly inside
#: one of these calls cannot leak hash order into results.
_ORDER_INSENSITIVE_CONSUMERS: frozenset[str] = frozenset(
    {"sorted", "min", "max", "sum", "len", "set", "frozenset",
     "any", "all", "Counter"}
)


def _order_erased(node: ast.AST) -> bool:
    """Whether ``node`` feeds an order-insensitive consumer.

    ``sorted(x for x in some_set)`` iterates the set but cannot leak its
    order; climb the expression ancestors looking for such a call.
    """
    for anc in astutil.ancestors(node):
        if isinstance(anc, ast.stmt):
            return False
        if isinstance(anc, ast.Call):
            chain = astutil.call_name(anc)
            if chain is not None and chain.split(".")[-1] in (
                _ORDER_INSENSITIVE_CONSUMERS
            ):
                return True
    return False


def _is_set_producer(expr: ast.expr) -> bool:
    """Syntactically a set: ``set(...)`` call, set literal, set comp."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        chain = astutil.call_name(expr)
        if chain == "set":
            return True
        # ``a | b`` unions etc. are out of syntactic reach; methods that
        # obviously return sets:
        if chain is not None and chain.split(".")[-1] in {
            "intersection", "union", "difference", "symmetric_difference",
        }:
            return True
    return False


class Determinism(Rule):
    code = "RPL004"
    name = "determinism"
    summary = (
        "no wall-clock reads or order-leaking set iteration reachable "
        "from the traced pass; no unseeded randomness anywhere"
    )

    def check(self, module: "ModuleInfo", project: "Project") -> Iterator["Finding"]:
        if not module.name.startswith("repro"):
            return
        reachable = module.name in project.reachable_from(DETERMINISM_ROOTS)
        uses_random_mod = _imports_random_module(module)

        # Names bound to set-producing expressions, per function scope,
        # for the iteration-order check.
        set_names = _set_bound_names(module.tree)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, reachable, uses_random_mod
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)) and reachable:
                yield from self._check_iteration(module, node.iter, set_names)
            elif isinstance(node, ast.comprehension) and reachable:
                yield from self._check_iteration(module, node.iter, set_names)

    # ------------------------------------------------------------------
    def _check_call(
        self,
        module: "ModuleInfo",
        node: ast.Call,
        reachable: bool,
        uses_random_mod: bool,
    ) -> Iterator["Finding"]:
        chain = astutil.call_name(node)
        if chain is None:
            return
        segments = chain.split(".")

        # Unseeded np.random.default_rng() — repo-wide.
        if segments[-1] == "default_rng" and not node.args and not node.keywords:
            yield module.finding(
                self.code,
                "np.random.default_rng() without a seed: results are "
                "irreproducible; pass an explicit seed",
                node,
            )
            return

        # Legacy global numpy RNG (np.random.rand & co) — repo-wide.
        if (
            len(segments) >= 2
            and segments[-2] == "random"
            and segments[-1] in NUMPY_GLOBAL_RNG_FNS
            and segments[0] in {"np", "numpy"}
        ):
            yield module.finding(
                self.code,
                f"legacy global numpy RNG 'np.random.{segments[-1]}': "
                "use a seeded np.random.default_rng(seed) generator",
                node,
            )
            return

        # Stateful ``random`` module — repo-wide (when imported).
        if uses_random_mod and len(segments) == 2 and segments[0] == "random":
            yield module.finding(
                self.code,
                f"stateful 'random.{segments[1]}' call: global RNG state "
                "is unseeded/shared; use a seeded "
                "np.random.default_rng(seed) or random.Random(seed)",
                node,
            )
            return

        # Wall clock — only in code reachable from the traced pass.
        if reachable and (
            chain in WALL_CLOCK_CALLS
            or any(chain.endswith("." + w) for w in WALL_CLOCK_CALLS)
        ):
            yield module.finding(
                self.code,
                f"wall-clock read '{chain}' is reachable from the traced "
                "op-count pass; op counts must not depend on time "
                "(time.perf_counter is allowed for wall-time fields)",
                node,
            )

    def _check_iteration(
        self,
        module: "ModuleInfo",
        iter_expr: ast.expr,
        set_names: set[str],
    ) -> Iterator["Finding"]:
        leaky = _is_set_producer(iter_expr) or (
            isinstance(iter_expr, ast.Name) and iter_expr.id in set_names
        )
        if leaky and not _order_erased(iter_expr):
            yield module.finding(
                self.code,
                "iteration over a set in code reachable from the traced "
                "pass: hash order can leak into results; iterate "
                "sorted(...) instead",
                iter_expr,
            )


def _set_bound_names(tree: ast.AST) -> set[str]:
    """Local names assigned from set-producing expressions.

    Names later re-bound to sorted(...)/list(...) are removed — the
    common fix pattern ``s = set(...); items = sorted(s)`` must not
    keep flagging ``s`` if it is never iterated.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if _is_set_producer(node.value):
                    names.add(target.id)
                elif target.id in names:
                    names.discard(target.id)
    return names
