"""Cost-aware, epoch-invalidated cross-query result cache.

:class:`QueryCache` stores fully-enumerated query results keyed on the
canonical form of :mod:`repro.cache.canonical`:

* **Key** — ``(signature, profile, engine)``. The signature groups
  isomorphic queries; the profile restricts reuse to pure variable
  renamings (the only transformation guaranteed to preserve the
  engines' solution enumeration order, see the canonical module); the
  engine name keeps ``ring-knn`` and ``ring-knn-s`` entries apart
  (they enumerate in different orders).

* **Payload** — the result's ``int64`` rows, flat (the form the
  search loop emits and the worker pipe ships), their columns permuted
  to the variables' first-seen order and frozen as ``bytes`` — a hit
  copies them out, so no reader can change an entry — plus the
  :class:`~repro.ltj.stats.EvaluationStats` counters with variables
  recorded as first-seen *ranks* so a hit can rebuild byte-identical
  stats under the probing query's own variable names.

* **Admission** — a completed result is admitted unless it timed out
  (it is truncated at a wall-clock-dependent point), its query has no
  canonical form, a variable is unbound in its rows (a projection), or
  it would take more than :data:`MAX_ENTRY_FRACTION` of the byte
  budget.

* **Eviction** — cost×recency: when the byte budget overflows, the
  entry with the lowest ``elapsed / age`` score goes first, where
  ``elapsed`` is the entry's own cold evaluation time, so cheap stale
  entries make room before expensive recent ones.

* **Invalidation** — every entry is stamped with the database's
  mutation epoch (:attr:`repro.engines.database.GraphDatabase.epoch`,
  seeded from the persistent store's payload checksum) and checked on
  lookup; a bumped epoch or a hot-swapped index file silently
  invalidates on first probe.

All counters and the table are guarded by one lock: the serve layer
mutates the cache from its dispatch thread while ``/metrics`` scrapes
:meth:`QueryCache.stats` from the asyncio loop thread.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.cache.canonical import (
    CanonicalizationError,
    canonicalize,
    first_seen_variables,
)
from repro.engines.result import QueryResult, Solutions
from repro.ltj.stats import EvaluationStats
from repro.obs.spans import Spans, now
from repro.query.model import ExtendedBGP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import QueryTrace

#: Default byte budget for the entries' packed rows (32 MiB).
DEFAULT_MAX_BYTES = 32 << 20

#: A single entry larger than this fraction of the byte budget is
#: inadmissible outright (it would evict half the cache).
MAX_ENTRY_FRACTION = 0.5

#: Fixed per-entry overhead charged against the byte budget (keys,
#: counters, dict slots) on top of the packed rows themselves.
ENTRY_OVERHEAD_BYTES = 512


@dataclass
class _Entry:
    engine: str
    packed: bytes  # the rows, flat, as native int64
    n_rows: int
    stat_counters: tuple[int, int, int, int]  # solutions/bindings/attempts/leaps
    descent_ranks: tuple[int, ...]
    sim_ranks: tuple[int, ...]
    epoch: int
    elapsed: float  # the cold run's seconds: the eviction weight
    nbytes: int
    last_used: int = 0
    hits: int = 0


def database_epoch(db) -> int:
    """Mutation epoch of ``db`` (0 for objects that predate epochs)."""
    epoch = getattr(db, "epoch", None)
    return int(epoch) if epoch is not None else 0


class QueryCache:
    """Size-bounded semantic result cache shared across queries."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        #: Byte budget over all entries' packed rows.
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._bytes = 0
        self._tick = 0
        self._hits = 0
        self._misses = 0
        self._fills = 0
        self._evictions = 0
        self._invalidations = 0
        self._inadmissible = 0

    # -- canonical forms -------------------------------------------------
    def _canonical(self, query: ExtendedBGP):
        try:
            return canonicalize(query)
        except CanonicalizationError:
            return None

    # -- result cache -----------------------------------------------------
    def evaluate(
        self,
        db,
        query: ExtendedBGP,
        *,
        engine: str,
        run: Callable[[], QueryResult],
        trace: QueryTrace | None = None,
    ) -> QueryResult:
        """Answer ``query`` from the cache, else ``run()`` it and admit
        the result.

        The one probe → evaluate → fill sequence: ``AutoEngine.evaluate``
        and ``explain(analyze=True)`` call it, and every single-query
        door (CLI, the scheduler's pool of one, the server's direct
        route) goes through those. ``run`` evaluates cold under
        ``engine`` (and under ``trace``, when the caller has one). On a
        hit the trace is finished from the replayed counters — never
        silent zeros; either way ``trace.meta["cache"]`` records the
        outcome (``hit`` / ``miss`` / ``inadmissible``, the signature,
        and after a miss whether the result was stored).
        """
        info: dict[str, object] = {}
        result = self.probe(db, query, engine=engine, meta=info,
                            spans=None if trace is None else trace.spans)
        if result is None:
            result = run()
            self.fill(db, query, result, engine=engine, meta=info)
        elif trace is not None:
            if trace.engine is None:
                trace.engine = result.engine
            trace.finish(result.stats)
            result.trace = trace
        if trace is not None:
            trace.meta["cache"] = info
        return result

    def probe(
        self,
        db,
        query: ExtendedBGP,
        *,
        engine: str,
        meta: dict | None = None,
        spans: Spans | None = None,
    ) -> QueryResult | None:
        """Look up ``query`` for ``engine``; rebuild the result on a hit.

        The returned :class:`QueryResult` carries ``cached=True``,
        solutions byte-identical to the producing cold run (remapped to
        this query's variable names), the producer's replayed counters,
        and the real retrieval time as ``elapsed`` — the ``cache_probe``
        span it records into ``spans`` (a fresh recorder by default). A
        miss records its ``cache_probe`` span only into given ``spans``.
        """
        started = now()
        form = self._canonical(query)
        if form is None:
            if meta is not None:
                meta["outcome"] = "inadmissible"
                meta["reason"] = "uncanonical"
            with self._lock:
                self._inadmissible += 1
            if spans is not None:
                spans.add("cache_probe", started, now())
            return None
        key = (form.signature, form.profile, engine)
        epoch = database_epoch(db)
        with self._lock:
            self._tick += 1
            entry = self._entries.get(key)
            if entry is not None and entry.epoch != epoch:
                self._drop_locked(key, entry)
                self._invalidations += 1
                entry = None
            if entry is None:
                self._misses += 1
            else:
                entry.last_used = self._tick
                entry.hits += 1
                self._hits += 1
        if entry is None:
            if meta is not None:
                meta["outcome"] = "miss"
                meta["signature"] = form.signature
            if spans is not None:
                spans.add("cache_probe", started, now())
            return None
        variables = form.variables
        stats = EvaluationStats()
        (
            stats.solutions,
            stats.bindings,
            stats.attempts,
            stats.leap_calls,
        ) = entry.stat_counters
        stats.first_descent_order = [
            variables[rank] for rank in entry.descent_ranks
        ]
        stats.sim_variables = frozenset(
            variables[rank] for rank in entry.sim_ranks
        )
        if meta is not None:
            meta["event"] = "cache_hit"
            meta["outcome"] = "hit"
            meta["signature"] = form.signature
            meta["engine"] = entry.engine
        spans = Spans() if spans is None else spans
        stats.elapsed = spans.add("cache_probe", started, now()).seconds
        return QueryResult(
            engine=entry.engine,
            solutions=Solutions.from_flat(
                variables, array("q", entry.packed), entry.n_rows
            ),
            stats=stats,
            spans=spans,
            cached=True,
        )

    def fill(
        self,
        db,
        query: ExtendedBGP,
        result: QueryResult,
        *,
        engine: str | None = None,
        meta: dict | None = None,
    ) -> bool:
        """Admit a cold ``result`` if the policy allows; returns success.

        The entry's eviction weight is the result's own ``elapsed``.
        """
        engine_name = engine if engine is not None else result.engine

        def note(stored: bool, reason: str) -> bool:
            if meta is not None:
                meta["stored"] = stored
                if not stored:
                    meta["store_reason"] = reason
            return stored

        if result.timed_out:
            with self._lock:
                self._inadmissible += 1
            return note(False, "timed out")
        form = self._canonical(query)
        if form is None:
            with self._lock:
                self._inadmissible += 1
            return note(False, "uncanonical")
        if meta is not None:
            meta.setdefault("signature", form.signature)
        variables = form.variables
        try:
            packed = result.solutions.columns(variables).tobytes()
        except KeyError:
            # A projected/partial solution set cannot be replayed.
            with self._lock:
                self._inadmissible += 1
            return note(False, "unbound variable")
        nbytes = len(packed) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.max_bytes * MAX_ENTRY_FRACTION:
            with self._lock:
                self._inadmissible += 1
            return note(False, "over byte budget")

        rank_of = {var: i for i, var in enumerate(variables)}
        stats = result.stats
        entry = _Entry(
            engine=engine_name,
            packed=packed,
            n_rows=len(result.solutions),
            stat_counters=(
                int(stats.solutions),
                int(stats.bindings),
                int(stats.attempts),
                int(stats.leap_calls),
            ),
            descent_ranks=tuple(
                rank_of[var]
                for var in stats.first_descent_order
                if var in rank_of
            ),
            sim_ranks=tuple(
                sorted(
                    rank_of[var]
                    for var in stats.sim_variables
                    if var in rank_of
                )
            ),
            epoch=database_epoch(db),
            elapsed=float(result.elapsed),
            nbytes=nbytes,
        )
        key = (form.signature, form.profile, engine_name)
        with self._lock:
            self._tick += 1
            entry.last_used = self._tick
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._evict_locked(nbytes)
            self._entries[key] = entry
            self._bytes += nbytes
            self._fills += 1
        return note(True, "")

    def _drop_locked(self, key: tuple, entry: _Entry) -> None:
        del self._entries[key]
        self._bytes -= entry.nbytes

    def _evict_locked(self, incoming: int) -> None:
        while self._entries and self._bytes + incoming > self.max_bytes:
            victim_key = min(
                self._entries,
                key=lambda k: self._score_locked(self._entries[k]),
            )
            victim = self._entries.pop(victim_key)
            self._bytes -= victim.nbytes
            self._evictions += 1

    def _score_locked(self, entry: _Entry) -> float:
        age = self._tick - entry.last_used + 1
        return entry.elapsed / age

    # -- maintenance --------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (counters are kept — they are lifetime totals)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict[str, int]:
        """Lifetime counters plus current occupancy (thread-safe snapshot)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "fills": self._fills,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "inadmissible": self._inadmissible,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
