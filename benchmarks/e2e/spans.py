"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``(request id, span id, parent span id, name, start, end,
attributes)``. Spans of one operation share the request id; they are
kept in memory and written out as JSON lines when the run ends. The
layer table charges each span its *self* time — its duration minus the
part its children cover — to the span's name, and reports what the root
spans could not attribute.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = 0

    def add(self, request: str, name: str, parent: int | None,
            start: float, end: float, **attrs) -> dict:
        """Record a span whose bounds were stamped by the caller."""
        self._ids += 1
        record = {"request": request, "id": self._ids, "parent": parent,
                  "name": name, "attrs": attrs, "start": start, "end": end}
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, request: str, name: str, parent: int | None = None, **attrs):
        """Time a block; yields the span so the block can add attributes
        and open children under ``span["id"]``. Children finish first,
        so they precede their parent in ``spans``."""
        self._ids += 1
        record = {"request": request, "id": self._ids, "parent": parent,
                  "name": name, "attrs": attrs, "start": perf_counter()}
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self.spans.append(record)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True, default=str) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_table(spans: list[dict], root: str) -> dict:
    """Self time per span name under roots called ``root``.

    Returns ``{"wall": seconds, "operations": n, "rows": [(name, self
    seconds, share of wall)], "unattributed": (seconds, share)}``; the
    root's own self time is the unattributed remainder.
    """
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    roots = [s for s in spans if s["parent"] is None and s["name"] == root]
    self_time: dict[str, float] = {}
    unattributed = 0.0
    wall = 0.0

    def visit(span: dict, top: bool) -> None:
        nonlocal unattributed
        kids = children.get(span["id"], [])
        own = (span["end"] - span["start"]) - _covered(
            span["start"], span["end"], [(k["start"], k["end"]) for k in kids]
        )
        if top:
            unattributed += own
        else:
            self_time[span["name"]] = self_time.get(span["name"], 0.0) + own
        for kid in kids:
            visit(kid, False)

    for span in roots:
        wall += span["end"] - span["start"]
        visit(span, True)
    rows = sorted(self_time.items(), key=lambda item: -item[1])
    return {
        "wall": wall,
        "operations": len(roots),
        "rows": [(name, t, t / wall if wall else 0.0) for name, t in rows],
        "unattributed": (unattributed, unattributed / wall if wall else 0.0),
    }


def format_table(table: dict, title: str) -> list[str]:
    lines = [
        f"layer table: {title} — {table['operations']} operations, "
        f"{table['wall']:.3f} s of operation wall"
    ]
    for name, seconds, share in table["rows"]:
        lines.append(f"  {name:<24s} {seconds:9.4f} s  {share:6.1%}")
    seconds, share = table["unattributed"]
    lines.append(f"  {'(unattributed)':<24s} {seconds:9.4f} s  {share:6.1%}")
    return lines
