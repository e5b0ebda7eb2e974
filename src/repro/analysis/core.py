"""Core machinery of reprolint: projects, findings, suppressions.

A :class:`Project` is the unit of analysis — a set of parsed modules
plus the import graph over them. Rules receive one module at a time but
may consult the project (e.g. RPL004's "reachable from the traced
pass" computation).

Suppressions are inline and must carry a justification::

    foo.rank1(i)  # reprolint: disable=RPL001 -- construction-time, not hot

    # reprolint: disable-file=RPL004 -- fixture exercising RPL001 only

A ``disable`` comment applies to its own physical line (or, when a line
holds only the comment, to the following line). A disable *without* the
``-- justification`` text is itself reported as RPL000: the point of a
suppression is to record why the invariant does not apply, not to make
the linter quiet.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.astutil import attach_parents
from repro.utils.errors import ValidationError

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<codes>RPL\d{3}(?:\s*,\s*RPL\d{3})*)"
    r"(?:\s+--\s*(?P<why>\S.*?))?\s*$"
)

#: Magic comment letting fixture files impersonate an in-scope module:
#: ``# reprolint-module: repro.ltj.fake`` (first five lines only).
_MODULE_OVERRIDE_RE = re.compile(
    r"#\s*reprolint-module:\s*(?P<name>[\w.]+)\s*$"
)


@dataclass
class Finding:
    """One rule violation (or suppression problem) at a source location."""

    code: str
    message: str
    module: str
    path: str
    line: int
    col: int = 0
    suppressed: bool = False
    justification: str | None = None

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}{tag}"

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


@dataclass
class _Suppression:
    codes: frozenset[str]
    line: int
    file_level: bool
    justification: str | None
    used: bool = False


class ModuleInfo:
    """One parsed source module."""

    def __init__(self, path: Path, name: str, source: str) -> None:
        self.path = path
        self.name = name
        self.source = source
        self.lines = source.splitlines()
        self.tree = attach_parents(ast.parse(source, filename=str(path)))
        self.suppressions = self._parse_suppressions()

    # ------------------------------------------------------------------
    def _parse_suppressions(self) -> list[_Suppression]:
        found: list[_Suppression] = []
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            codes = frozenset(
                c.strip() for c in match.group("codes").split(",")
            )
            # A comment-only line covers the next line of code.
            target = lineno
            if text.lstrip().startswith("#") and match.group("kind") == "disable":
                target = lineno + 1
            found.append(
                _Suppression(
                    codes=codes,
                    line=target,
                    file_level=match.group("kind") == "disable-file",
                    justification=match.group("why"),
                )
            )
        return found

    def suppression_for(self, code: str, line: int) -> _Suppression | None:
        for sup in self.suppressions:
            if code in sup.codes and (sup.file_level or sup.line == line):
                return sup
        return None

    def finding(self, code: str, message: str, node: ast.AST | None = None,
                line: int | None = None, col: int | None = None) -> Finding:
        """Build a Finding anchored at ``node`` (or an explicit line)."""
        at_line = line if line is not None else getattr(node, "lineno", 1)
        at_col = col if col is not None else getattr(node, "col_offset", 0)
        return Finding(
            code=code,
            message=message,
            module=self.name,
            path=str(self.path),
            line=at_line,
            col=at_col,
        )


class Project:
    """A set of modules to lint, with a lazily built import graph."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = sorted(modules, key=lambda m: m.name)
        self._by_name = {m.name: m for m in self.modules}
        self._import_graph: dict[str, set[str]] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_paths(cls, paths: list[str | Path]) -> "Project":
        """Discover ``.py`` files under the given files/directories.

        A path that does not exist, or paths that hold no module at
        all, raise :class:`ValidationError`: a mistyped path must not
        lint nothing and pass.
        """
        files: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif not path.exists():
                raise ValidationError(f"{path}: no such file or directory")
            elif path.suffix == ".py":
                files.append(path)
        if not files:
            raise ValidationError(
                f"no Python modules under {', '.join(map(str, paths))}"
            )
        modules = []
        seen: set[Path] = set()
        for file in files:
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            source = file.read_text(encoding="utf-8")
            modules.append(ModuleInfo(file, _module_name(file, source), source))
        return cls(modules)

    def module(self, name: str) -> ModuleInfo | None:
        return self._by_name.get(name)

    # ------------------------------------------------------------------
    @property
    def import_graph(self) -> dict[str, set[str]]:
        """module name -> project-module names it imports."""
        if self._import_graph is None:
            from repro.analysis.imports import build_import_graph

            self._import_graph = build_import_graph(self)
        return self._import_graph

    def reachable_from(self, prefixes: tuple[str, ...]) -> set[str]:
        """Project modules reachable (via imports) from root prefixes."""
        from repro.analysis.imports import reachable

        return reachable(self.import_graph, prefixes)


def _module_name(path: Path, source: str) -> str:
    """Dotted module name: magic override, else derived from the path."""
    for text in source.splitlines()[:5]:
        match = _MODULE_OVERRIDE_RE.search(text)
        if match is not None:
            return match.group("name")
    parts = list(path.resolve().with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("repro",):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            return ".".join(parts[idx:])
    return parts[-1] if parts else str(path)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    modules_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def lint(project: Project, rules=None) -> LintResult:
    """Run rules over every module; apply and police suppressions."""
    from repro.analysis.rules import ALL_RULES

    active = list(ALL_RULES if rules is None else rules)
    result = LintResult(rules_run=[r.code for r in active])
    for module in project.modules:
        result.modules_checked += 1
        for rule in active:
            for finding in rule.check(module, project):
                sup = module.suppression_for(finding.code, finding.line)
                if sup is not None:
                    sup.used = True
                    finding.suppressed = True
                    finding.justification = sup.justification
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)
        # Suppressions without justification are findings themselves.
        for sup in module.suppressions:
            if not sup.justification:
                result.findings.append(
                    Finding(
                        code="RPL000",
                        message=(
                            "reprolint suppression without justification: "
                            "append ' -- <why the invariant does not "
                            "apply here>'"
                        ),
                        module=module.name,
                        path=str(module.path),
                        line=sup.line,
                    )
                )
    result.findings.sort(key=lambda f: (f.path, f.line, f.code))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.code))
    return result


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def format_findings(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report."""
    out: list[str] = []
    for finding in result.findings:
        out.append(finding.format())
    if verbose:
        for finding in result.suppressed:
            why = finding.justification or ""
            out.append(f"{finding.format()} -- {why}")
    counts: dict[str, int] = {}
    for finding in result.findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    summary = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
    out.append(
        f"reprolint: {len(result.findings)} finding(s) "
        f"({summary or 'clean'}), {len(result.suppressed)} suppressed, "
        f"{result.modules_checked} module(s) checked"
    )
    return "\n".join(out)


def format_json(result: LintResult) -> str:
    """Machine-readable report (the CI gate consumes this)."""
    return json.dumps(
        {
            "ok": result.ok,
            "rules": result.rules_run,
            "modules_checked": result.modules_checked,
            "findings": [f.as_dict() for f in result.findings],
            "suppressed": [f.as_dict() for f in result.suppressed],
        },
        indent=2,
        sort_keys=True,
    )
