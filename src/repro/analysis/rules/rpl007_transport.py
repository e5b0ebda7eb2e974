"""RPL007 — shm-only index transport inside ``repro.parallel``.

The PR-5 worker pool shipped the succinct indexes to workers by
pickling them (directly, or implicitly via fork-less ``Pool`` initargs
carrying the database through ``__getstate__``), which made the
parallel executor *slower* than serial at every pool size. PR-6
replaced that transport with flatten/attach over shared memory (the
declared layout of :mod:`repro.store.layout`, carried by
:mod:`repro.parallel.shm`): workers rebuild the structures zero-copy
over segments, and nothing per-dispatch scales with index size.

This rule keeps the pickling transport from creeping back. Inside the
``repro.parallel`` package it flags:

* imports of pickle-family modules (``pickle``, ``dill``, ...);
* calls to their ``dump``/``dumps``/``load``/``loads`` entry points;
* explicit ``__getstate__``/``__reduce__``-family calls; and
* (re)definitions of those state dunders.

Plain dataclasses of scalars still cross the pool pipe via the default
pickling — that is fine and unflagged; what is banned is *writing
serialization code* for the index structures in the parallel package.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis import astutil
from repro.analysis.config import (
    PARALLEL_TRANSPORT_PREFIXES,
    PICKLE_MODULES,
    STATE_DUNDERS,
    in_scope,
)
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.core import Finding, ModuleInfo, Project

_PICKLE_ENTRY_POINTS = frozenset({"dump", "dumps", "load", "loads"})


class ShmOnlyTransport(Rule):
    code = "RPL007"
    name = "shm-only-transport"
    summary = (
        "repro.parallel must not pickle indexes: no pickle-family "
        "imports/calls or __getstate__-family dunders (the declared "
        "layout is the sanctioned transport)"
    )

    def check(self, module: "ModuleInfo", project: "Project") -> Iterator["Finding"]:
        if not in_scope(module.name, PARALLEL_TRANSPORT_PREFIXES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in PICKLE_MODULES:
                        yield module.finding(
                            self.code,
                            f"import of '{alias.name}' in the parallel "
                            "package; index transport must go through "
                            "the repro.store.layout declarations",
                            node,
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in PICKLE_MODULES:
                    yield module.finding(
                        self.code,
                        f"import from '{node.module}' in the parallel "
                        "package; index transport must go through the "
                        "repro.store.layout declarations",
                        node,
                    )
            elif isinstance(node, ast.Call):
                chain = astutil.call_name(node)
                if chain is None:
                    continue
                segments = chain.split(".")
                if (
                    len(segments) > 1
                    and segments[0] in PICKLE_MODULES
                    and segments[-1] in _PICKLE_ENTRY_POINTS
                ):
                    yield module.finding(
                        self.code,
                        f"'{chain}()' serializes an object graph in the "
                        "parallel package; flatten/attach it through "
                        "its declared layout (repro.store.layout) instead",
                        node,
                    )
                elif segments[-1] in STATE_DUNDERS:
                    yield module.finding(
                        self.code,
                        f"explicit '{segments[-1]}()' call in the "
                        "parallel package; pickle-based index transport "
                        "is banned (declare the structure's layout for "
                        "repro.store.layout instead)",
                        node,
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in STATE_DUNDERS:
                    yield module.finding(
                        self.code,
                        f"definition of '{node.name}' in the parallel "
                        "package re-introduces pickle-based transport; "
                        "declare the structure's persisted fields for "
                        "repro.store.layout instead",
                        node,
                    )
