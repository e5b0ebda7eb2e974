"""Rule registry for reprolint.

Rules register by being instantiated into :data:`ALL_RULES`; the CLI
and the test-suite fixtures address them by code.
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule
from repro.analysis.rules.rpl001_hot_path import HotPathPurity
from repro.analysis.rules.rpl002_counter_memo import CounterBeforeMemo
from repro.analysis.rules.rpl003_obs_guard import ObsGuard
from repro.analysis.rules.rpl004_determinism import Determinism
from repro.analysis.rules.rpl005_engine_contract import EngineContract
from repro.analysis.rules.rpl007_transport import FileOnlyTransport

ALL_RULES: tuple[Rule, ...] = (
    HotPathPurity(),
    CounterBeforeMemo(),
    ObsGuard(),
    Determinism(),
    EngineContract(),
    FileOnlyTransport(),
)

_BY_CODE = {rule.code: rule for rule in ALL_RULES}


def get_rules(codes: list[str] | None = None) -> tuple[Rule, ...]:
    """Resolve rule codes (``["RPL001", ...]``) to rule instances."""
    if codes is None:
        return ALL_RULES
    unknown = [c for c in codes if c not in _BY_CODE]
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return tuple(_BY_CODE[c] for c in codes)


def rule_catalog() -> list[tuple[str, str, str]]:
    """``(code, name, summary)`` rows for ``repro lint --list-rules``."""
    return [(r.code, r.name, r.summary) for r in ALL_RULES]


__all__ = ["Rule", "ALL_RULES", "get_rules", "rule_catalog"]
