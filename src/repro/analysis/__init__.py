"""``reprolint``: AST-based static analysis for the repo's invariants.

The wco guarantees reproduced from Arroyuelo et al. (SIGMOD 2024)
survive in this codebase as *coding conventions*: hot-path modules must
call the unchecked ``_*_u`` succinct kernels, logical op counters must
be bumped before memo lookups so traced op counts stay deterministic,
observability must be zero-overhead when disabled, the traced pass must
be bit-for-bit reproducible, every engine must honour the relation and
result contracts, and worker pools must get the index through the
declared shared layout, never by pickling. ``repro.analysis`` turns
those conventions into six syntactic rules (RPL001-RPL005, RPL007) run
as ``repro lint`` and as a CI gate — see ``docs/static-analysis.md``
for the rule catalogue, the invariant each protects, and where the
checks of the deleted rules are held now. Resource lifecycles are
checked at run time instead, by :mod:`repro.analysis.sanitize`.

Public API::

    from repro.analysis import Project, lint, ALL_RULES

    project = Project.from_paths(["src/repro"])
    result = lint(project)
    for finding in result.findings:
        print(finding.format())
"""

from repro.analysis.core import (
    Finding,
    LintResult,
    ModuleInfo,
    Project,
    format_findings,
    format_json,
    lint,
)
from repro.analysis.rules import ALL_RULES, get_rules, rule_catalog

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Project",
    "lint",
    "format_findings",
    "format_json",
    "ALL_RULES",
    "get_rules",
    "rule_catalog",
]
