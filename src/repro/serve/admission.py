"""Admission control for the query server: a bounded in-flight window.

The server admits at most ``capacity`` queries at a time — queued for
the dispatcher plus currently evaluating. Beyond that it *sheds*
immediately (HTTP 429) instead of queueing unboundedly: under overload
a bounded queue keeps tail latency flat and tells clients when to come
back, which is the behaviour the ROADMAP's "heavy traffic" north star
needs (and what the openGauss-DBMind exporter apps model).

The ``Retry-After`` hint is derived from measured service times: the
mean seconds of a completed request — read by the caller from the
server's ``request`` span histograms and passed to :meth:`admit` — times
the number of queries ahead of the rejected one, divided by the
effective parallelism. Before any request completes it is one second.

Everything here runs on the asyncio event loop thread — admission is a
control-plane decision — so no locking is needed; completions arriving
from executor threads are marshalled back via
``loop.call_soon_threadsafe`` by the caller (:mod:`repro.serve.app`).
"""

from __future__ import annotations

import math

from repro.utils.errors import AdmissionRejected, ServerDraining


class AdmissionController:
    """Bounded admission window with load-shedding and drain support."""

    def __init__(self, capacity: int, parallelism: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"admission capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.parallelism = max(1, int(parallelism))
        self.inflight = 0
        self.draining = False
        #: Monotonically increasing counters for /metrics.
        self.admitted_total = 0
        self.shed_total = 0
        self.rejected_draining_total = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, seconds: float | None = None) -> None:
        """Claim one admission slot or raise a typed rejection.

        Raises :class:`ServerDraining` once a shutdown has begun (the
        caller maps it to 503) and :class:`AdmissionRejected` when the
        window is full (mapped to 429 with ``Retry-After``). ``seconds``
        is the mean service time measured so far (None: nothing has
        completed yet).
        """
        if self.draining:
            self.rejected_draining_total += 1
            raise ServerDraining(
                "server is draining: in-flight queries finish, new "
                "queries are not admitted"
            )
        if self.inflight >= self.capacity:
            self.shed_total += 1
            raise AdmissionRejected(
                f"admission queue full ({self.inflight} in flight, "
                f"capacity {self.capacity}); retry later",
                retry_after=self.retry_after(seconds),
            )
        self.inflight += 1
        self.admitted_total += 1

    def release(self) -> None:
        """Return one slot."""
        if self.inflight <= 0:
            raise RuntimeError("admission release without a matching admit")
        self.inflight -= 1

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting; already-admitted queries keep their slots."""
        self.draining = True

    @property
    def drained(self) -> bool:
        """True once draining has begun and nothing is in flight."""
        return self.draining and self.inflight == 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def retry_after(self, seconds: float | None) -> int:
        """Suggested client back-off in whole seconds, >= 1.

        ``mean service seconds x queries ahead / parallelism``, rounded
        up and clamped to [1, 60] so a misbehaving estimate can never
        tell clients to wait arbitrarily long; 1 with no measurement.
        """
        if seconds is None:
            return 1
        estimate = seconds * self.inflight / self.parallelism
        return max(1, min(60, math.ceil(estimate)))
