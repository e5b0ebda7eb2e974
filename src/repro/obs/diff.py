"""Diff two JSON query traces across runs.

``repro trace`` records one document per (query, engine) pair; after
an optimization (or a regression) the interesting question is *which
counters moved* — did a new ordering cut the number of ``leap`` calls,
did the Ring open more ranges, did a phase get slower.``diff_traces``
flattens both documents to dotted counter paths and reports every
numeric leaf that changed beyond a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CounterDelta:
    """One numeric leaf that differs between two traces."""

    path: str
    before: float | None
    """Value in the first trace (None = the counter is new)."""

    after: float | None
    """Value in the second trace (None = the counter disappeared)."""

    @property
    def delta(self) -> float | None:
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def ratio(self) -> float | None:
        """``after / before`` (None when undefined)."""
        if not self.before or self.after is None:
            return None
        return self.after / self.before


def flatten_counters(trace: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a trace document, keyed by dotted path.

    Relations (a list) are keyed by their ``label`` so the paths stay
    stable across runs even if compilation order changes.
    """
    out: dict[str, float] = {}

    def walk(value: object, path: str) -> None:
        if isinstance(value, bool):
            out[path] = float(value)
        elif isinstance(value, (int, float)):
            out[path] = float(value)
        elif isinstance(value, dict):
            for key, sub in value.items():
                walk(sub, f"{path}.{key}" if path else str(key))
        elif isinstance(value, list):
            for index, sub in enumerate(value):
                key = index
                if isinstance(sub, dict) and "label" in sub:
                    key = sub["label"]
                walk(sub, f"{path}[{key}]")

    walk(trace, prefix)
    return out


def diff_traces(
    before: dict,
    after: dict,
    rel_tolerance: float = 0.0,
    ignore_timings: bool = False,
) -> list[CounterDelta]:
    """Changed counters between two trace documents.

    Args:
        before, after: trace dicts (``QueryTrace.to_dict()`` output).
        rel_tolerance: relative change below which a counter counts as
            unchanged (e.g. ``0.05`` to ignore 5% jitter — useful for
            the timing leaves).
        ignore_timings: drop ``elapsed``/``phases`` leaves entirely
            (operation counts are deterministic, timings are not).

    Returns:
        Deltas sorted by descending absolute change.
    """
    flat_before = flatten_counters(before)
    flat_after = flatten_counters(after)
    deltas: list[CounterDelta] = []
    for path in sorted(set(flat_before) | set(flat_after)):
        if ignore_timings and (
            path == "elapsed" or path.startswith("phases.")
        ):
            continue
        a = flat_before.get(path)
        b = flat_after.get(path)
        if a is None or b is None:
            deltas.append(CounterDelta(path, a, b))
            continue
        if a == b:
            continue
        if rel_tolerance > 0 and a != 0:
            if abs(b - a) / abs(a) <= rel_tolerance:
                continue
        deltas.append(CounterDelta(path, a, b))
    deltas.sort(
        key=lambda d: abs(d.delta) if d.delta is not None else float("inf"),
        reverse=True,
    )
    return deltas


def format_diff(deltas: list[CounterDelta], limit: int = 40) -> str:
    """Human-readable rendering of a trace diff."""
    if not deltas:
        return "traces identical"
    lines = [f"{len(deltas)} counters changed"]
    for d in deltas[:limit]:
        if d.before is None:
            lines.append(f"  + {d.path} = {d.after:g}")
        elif d.after is None:
            lines.append(f"  - {d.path} (was {d.before:g})")
        else:
            ratio = f" ({d.ratio:.3g}x)" if d.ratio is not None else ""
            lines.append(
                f"  {d.path}: {d.before:g} -> {d.after:g}{ratio}"
            )
    if len(deltas) > limit:
        lines.append(f"  ... ({len(deltas) - limit} more)")
    return "\n".join(lines)
