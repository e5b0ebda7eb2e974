"""Runtime resource-leak sanitizer (``REPRO_SANITIZE=1``).

This is the repo's one resource-lifecycle check: the tests that drive
acquire/release paths, the exception paths included, run under this
ledger. When ``REPRO_SANITIZE=1`` is set, :func:`install` swaps the
process-wide resource primitives the runtime layers acquire —
index-file mappings (``repro.store.io``), worker pools
(``repro.parallel.executor``), the test server thread
(``repro.serve.app``) — for instrumented twins that record every
acquisition with its full allocation stack in a process-local
:class:`Ledger` and strike it out on release.

``tests/conftest.py`` wraps each test in :func:`test_leak_check`: a
resource acquired during a test and still live when the test ends fails
*that test*, printing the allocation traceback — the exact thing a
"too many open mappings" post-mortem never has.

Facets: each entry names the releases it owes (``close`` for a mapping
or a pool, ``shutdown`` for the server thread) and stays live until
every facet is released.

Sanctioned owners: the executor's ``_POOLS`` LRU deliberately keeps
pools alive across tests — that is a cache, not a leak.
:func:`_owned_serials` exempts the running executors of the pools it
holds, while a started pool outside it still trips the check.

Patching happens in the parent test process only: spawn-start workers
re-import clean modules, and fork children inherit an (unchecked) copy
of the ledger — worker-side acquisitions are the worker initializer's
to balance, and the parent-side ledger never sees them.
"""

from __future__ import annotations

import mmap as _mmap_mod
import os
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Iterator

#: Attribute stashed on instrumented instances linking them to their
#: ledger entry (survives subclassing; never pickled — workers get a
#: path, not a resource handle).
_SERIAL_ATTR = "_repro_sanitize_serial"


def enabled() -> bool:
    """Whether sanitizer mode is requested via the environment."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


@dataclass
class Acquisition:
    serial: int
    kind: str
    detail: str
    facets: set[str]
    stack: list[traceback.FrameSummary]

    def describe(self) -> str:
        frames = "".join(traceback.format_list(self.stack[-12:]))
        return (
            f"[{self.kind}] {self.detail} — unreleased facet(s): "
            f"{', '.join(sorted(self.facets))}\n"
            f"acquired at:\n{frames}"
        )


class Ledger:
    """Process-local acquire/release journal of instrumented resources."""

    def __init__(self) -> None:
        self._next = 0
        self._live: dict[int, Acquisition] = {}

    def acquire(self, kind: str, detail: str, facets: set[str]) -> int:
        self._next += 1
        stack = list(traceback.extract_stack())[:-2]  # sans acquire+wrapper
        self._live[self._next] = Acquisition(
            self._next, kind, detail, set(facets), stack
        )
        return self._next

    def release(self, serial: int | None, facet: str | None = None) -> None:
        if serial is None:
            return
        entry = self._live.get(serial)
        if entry is None:
            return
        if facet is None:
            entry.facets.clear()
        else:
            entry.facets.discard(facet)
        if not entry.facets:
            del self._live[serial]

    def live(self) -> dict[int, Acquisition]:
        return dict(self._live)


LEDGER = Ledger()


def _serial_of(obj: Any) -> int | None:
    return getattr(obj, _SERIAL_ATTR, None)


# ----------------------------------------------------------------------
# instrumented primitives
# ----------------------------------------------------------------------
class _SanitizedMmap(_mmap_mod.mmap):
    """``mmap.mmap`` recording its close obligation."""

    def __new__(cls, *args: Any, **kwargs: Any) -> "_SanitizedMmap":
        obj = super().__new__(cls, *args, **kwargs)
        setattr(
            obj,
            _SERIAL_ATTR,
            LEDGER.acquire("mmap", f"args={args!r}", {"close"}),
        )
        return obj

    def close(self) -> None:
        # Released only once the mapping is closed: a close refused with
        # BufferError (a view of the mapping still alive) stays a leak.
        super().close()
        LEDGER.release(_serial_of(self), "close")


def _wrap_pool_class(pool_cls: type) -> None:
    """Record each executor a pool starts (its processes, and a built
    database's scratch file), released by the pool's ``close``: a pool
    restarts after a lost worker, and each start owes its own close."""
    orig_start = pool_cls._start
    orig_close = pool_cls.close

    def start(self: Any) -> Any:
        fresh = self._executor is None
        executor = orig_start(self)
        if fresh:
            setattr(
                self,
                _SERIAL_ATTR,
                LEDGER.acquire(
                    "worker-pool",
                    f"workers={self.workers} start={self.start_method}",
                    {"close"},
                ),
            )
        return executor

    def close(self: Any) -> None:
        orig_close(self)
        LEDGER.release(_serial_of(self), "close")

    pool_cls._start = start  # type: ignore[method-assign]
    pool_cls.close = close  # type: ignore[method-assign]


def _wrap_server_thread(thread_cls: type) -> None:
    orig_start = thread_cls.start
    orig_shutdown = thread_cls.shutdown

    def start(self: Any, timeout: float = 180.0) -> Any:
        serial = LEDGER.acquire(
            "server-thread", f"host={self.host}", {"shutdown"}
        )
        setattr(self, _SERIAL_ATTR, serial)
        try:
            return orig_start(self, timeout)
        except BaseException:
            # Failed startup joined the thread already; nothing runs.
            LEDGER.release(serial, "shutdown")
            raise

    def shutdown(self: Any, timeout: float = 120.0) -> None:
        orig_shutdown(self, timeout)
        LEDGER.release(_serial_of(self), "shutdown")

    thread_cls.start = start  # type: ignore[method-assign]
    thread_cls.shutdown = shutdown  # type: ignore[method-assign]


_installed = False


def install() -> None:
    """Swap the runtime layers' resource primitives for recorded twins.

    Idempotent; patches only this process. Module-attribute patching is
    deliberate: ``repro.store.io`` names its primitive through its own
    namespace (``mmap.mmap``), so rebinding *that* attribute instruments
    every mapping the repro tree makes without touching the stdlib for
    other libraries.
    """
    global _installed
    if _installed:
        return
    _installed = True

    import repro.parallel.executor as executor
    import repro.serve.app as app
    import repro.store.io as io

    io.mmap = SimpleNamespace(  # type: ignore[assignment]
        mmap=_SanitizedMmap, ACCESS_READ=_mmap_mod.ACCESS_READ
    )
    _wrap_pool_class(executor.WorkerPool)
    _wrap_server_thread(app.ServerThread)


def _owned_serials() -> set[int]:
    """Ledger entries owned by a sanctioned cross-test cache.

    The executor's ``_POOLS`` LRU is the one registry allowed to hold
    resources across tests; its pools are exempt from the per-test
    check — ``shutdown_pools`` releases them at session end.
    """
    import repro.parallel.executor as executor

    return {
        serial
        for serial in map(_serial_of, executor._POOLS.values())
        if serial is not None
    }


@contextmanager
def test_leak_check(name: str) -> Iterator[None]:
    """Fail ``name`` if it acquires a resource it never releases."""
    before = set(LEDGER.live())
    yield
    leaked = [
        entry
        for serial, entry in sorted(LEDGER.live().items())
        if serial not in before and serial not in _owned_serials()
    ]
    if leaked:
        details = "\n".join(entry.describe() for entry in leaked)
        # Strike the entries so one leak fails one test, not every
        # test that follows it.
        for entry in leaked:
            LEDGER.release(entry.serial)
        raise ResourceLeakError(
            f"{name} leaked {len(leaked)} resource(s):\n{details}"
        )


class ResourceLeakError(AssertionError):
    """A test finished with unreleased instrumented resources."""
