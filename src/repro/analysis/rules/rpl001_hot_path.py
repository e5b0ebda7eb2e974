"""RPL001 — hot-path purity.

The PR-3 kernel overhaul split every ``BitVector`` operation into a
validated public entry point (``rank1``/``select1``/...) and an
unchecked ``_*_u`` twin. Hot-path modules — the LTJ engine, the Ring,
the succinct K-NN structure and the wavelet tree itself — sit inside
per-result loops where the public ops' argument re-validation measured
as a multiple-x constant-factor tax, so they must call the ``_*_u``
kernels. The same modules must not fall back to ``np.searchsorted``
inside a loop: the plain-int ``bisect`` caches added in PR-3 exist
precisely because per-call numpy dispatch dominated the profile.

Note the banned set is the *BitVector* surface only.
``WaveletTree.rank/select/access`` are the paper's counted logical
operations — hot paths are *supposed* to call those (the golden
Figure-2 fixture counts them); their internals then bottom out in
``_*_u`` kernels, which is what this rule verifies.

Inside the wavelet tree itself the descents inline the rank arithmetic
on each level's plain-int mirrors; there the rule holds every read of a
BitVector's ``_words_i``/``_cum1_i``/``_cum0_i`` to the level-view
builder (``config.LEVEL_VIEW_BUILDERS``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis import astutil
from repro.analysis.config import (
    BITVECTOR_MIRROR_ATTRS,
    HOT_PATH_PREFIXES,
    INT_MIRRORED_ARRAY_ATTRS,
    LEVEL_VIEW_BUILDERS,
    LEVEL_VIEW_PREFIXES,
    VALIDATED_BITVECTOR_OPS,
    in_scope,
)
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.core import Finding, ModuleInfo, Project


class HotPathPurity(Rule):
    code = "RPL001"
    name = "hot-path-purity"
    summary = (
        "hot-path modules must use unchecked _*_u BitVector kernels, "
        "bisect instead of np.searchsorted in loops, and the plain-int "
        "_i mirrors instead of indexing canonical numpy arrays; the "
        "wavelet tree reaches BitVector mirrors through its level view"
    )

    def check(self, module: "ModuleInfo", project: "Project") -> Iterator["Finding"]:
        if not in_scope(module.name, HOT_PATH_PREFIXES):
            return
        level_views = in_scope(module.name, LEVEL_VIEW_PREFIXES)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript):
                yield from self._check_subscript(module, node)
                continue
            if level_views and isinstance(node, ast.Attribute):
                yield from self._check_mirror_read(module, node)
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = astutil.call_name(node)
            if chain is None:
                continue
            segments = chain.split(".")
            op = segments[-1]
            if op in VALIDATED_BITVECTOR_OPS and len(segments) > 1:
                yield module.finding(
                    self.code,
                    f"validated BitVector op '.{op}()' on the hot path; "
                    f"call the unchecked '._{op}_u()' kernel (arguments "
                    "here are in-range by construction)",
                    node,
                )
            elif op == "searchsorted":
                mirrored = self._mirrored_searchsorted_arg(node)
                if mirrored is not None:
                    yield module.finding(
                        self.code,
                        f"np.searchsorted over a slice of canonical "
                        f"array '.{mirrored}' allocates a view and "
                        f"re-enters numpy dispatch per call; use "
                        f"bisect with lo/hi bounds on the plain "
                        f"'.{mirrored}_i' mirror instead",
                        node,
                    )
                    continue
                func = astutil.enclosing_function(node)
                if astutil.enclosing_loop(node, stop=func) is not None:
                    yield module.finding(
                        self.code,
                        "np.searchsorted inside a loop on the hot path; "
                        "use bisect over a plain-int cache (per-call "
                        "numpy dispatch dominates the profile here)",
                        node,
                    )

    @staticmethod
    def _mirrored_searchsorted_arg(node: ast.Call) -> str | None:
        """The mirrored-attribute name when ``searchsorted``'s haystack
        is (a slice of) a canonical mirrored array.

        Fires with or without an enclosing loop: range_within-style
        helpers are themselves called once per leap, so the loop is in
        the caller and invisible to a file-local check.
        """
        if not node.args:
            return None
        haystack = node.args[0]
        if isinstance(haystack, ast.Subscript):
            haystack = haystack.value
        if (
            isinstance(haystack, ast.Attribute)
            and haystack.attr in INT_MIRRORED_ARRAY_ATTRS
        ):
            return haystack.attr
        return None

    def _check_mirror_read(
        self, module: "ModuleInfo", node: ast.Attribute
    ) -> Iterator["Finding"]:
        """Flag reads of another object's BitVector mirrors outside the
        level-view builder (see ``LEVEL_VIEW_BUILDERS``)."""
        if node.attr not in BITVECTOR_MIRROR_ATTRS:
            return
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return
        func = astutil.enclosing_function(node)
        if func is not None and func.name in LEVEL_VIEW_BUILDERS:
            return
        yield module.finding(
            self.code,
            f"BitVector mirror '.{node.attr}' read outside the level "
            "view; descents read each level's (words, cum1) pair from "
            "the view its builder binds once per tree",
            node,
        )

    def _check_subscript(
        self, module: "ModuleInfo", node: ast.Subscript
    ) -> Iterator["Finding"]:
        """Flag element reads of canonical arrays that have ``_i`` mirrors.

        ``x._counts[c]`` yields a ``numpy.int64`` that re-enters numpy
        dispatch on every later arithmetic op — and on shm/mmap-attached
        structures the canonical array is a view over a shared buffer,
        making the ``_i`` mirror the coercion boundary that keeps numpy
        scalars out of the hot path. Slices and writes stay vectorized
        and are exempt.
        """
        if not isinstance(node.ctx, ast.Load):
            return
        if isinstance(node.slice, ast.Slice):
            return
        value = node.value
        if not isinstance(value, ast.Attribute):
            return
        if value.attr not in INT_MIRRORED_ARRAY_ATTRS:
            return
        yield module.finding(
            self.code,
            f"element read of canonical array '.{value.attr}[...]' on "
            f"the hot path yields a numpy scalar; index the plain-int "
            f"'.{value.attr}_i' mirror instead (slices are exempt — "
            "they stay vectorized)",
            node,
        )
