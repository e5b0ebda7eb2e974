"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one base class for all
library-originated failures while letting genuine bugs (``TypeError``,
``IndexError`` from internal misuse) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StructureError(ReproError):
    """A succinct data structure was built or queried inconsistently."""


class QueryError(ReproError):
    """An extended BGP is malformed or unsupported by the chosen engine."""


class ValidationError(ReproError):
    """An argument failed validation (bad range, negative size, ...)."""


class StoreError(ReproError):
    """Base class for persistent index-store (``repro.store``) failures."""


class StoreFormatError(StoreError):
    """An index file is structurally invalid (bad magic, truncated,
    malformed manifest) and cannot be attached safely."""


class StoreVersionError(StoreError):
    """An index file's format version is not the one this code writes.

    The format is intentionally versioned without migration shims: an
    index is a cache of a build, so the remedy is ``repro build``, not
    an in-place upgrade.
    """


class StoreChecksumError(StoreError):
    """An index file's payload does not match its recorded checksum."""


class StoreEndiannessError(StoreError):
    """The index file or host violates the little-endian contract."""


class WorkerLost(ReproError):
    """A worker-pool process died while the parent waited on the pool.

    The task it held is never answered, so the batch fails with this
    error; the pool is closed and restarts for the next batch.
    """


class ServeError(ReproError):
    """Base class for long-running query-server (``repro.serve``) failures."""


class AdmissionRejected(ServeError):
    """The server's bounded admission queue is full; retry later.

    Attributes:
        retry_after: suggested client back-off in whole seconds, derived
            from the observed service rate at rejection time.
    """

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


class ServerDraining(ServeError):
    """The server received a shutdown signal and admits no new queries;
    in-flight queries are drained to completion first."""


class TimeoutExceeded(ReproError):
    """Query evaluation exceeded its time budget.

    Attributes:
        elapsed: seconds spent before the engine gave up.
        partial_count: number of solutions produced before the timeout.
    """

    def __init__(self, elapsed: float, partial_count: int = 0) -> None:
        super().__init__(
            f"query evaluation timed out after {elapsed:.3f}s "
            f"({partial_count} solutions produced)"
        )
        self.elapsed = elapsed
        self.partial_count = partial_count
