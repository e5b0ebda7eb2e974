"""The query-timeout stopwatch (span timing lives in :mod:`repro.obs.spans`)."""

from __future__ import annotations

import time


class Stopwatch:
    """Monotonic stopwatch with an optional budget, used for query timeouts.

    A ``budget`` of ``None`` means unlimited. The stopwatch starts on
    construction; :meth:`expired` is cheap enough to be polled inside the
    LTJ main loop every few thousand steps.
    """

    def __init__(self, budget: float | None = None) -> None:
        self.budget = budget
        self._start = time.monotonic()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.monotonic() - self._start

    def expired(self) -> bool:
        """Whether the budget (if any) has been exhausted."""
        return self.budget is not None and self.elapsed() > self.budget

    def restart(self) -> None:
        """Reset the stopwatch to zero elapsed time."""
        self._start = time.monotonic()
