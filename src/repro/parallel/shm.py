"""Shared-memory segments: the anonymous carrier of the index layout.

A worker pool ships its database to the workers as one
:class:`multiprocessing.shared_memory.SharedMemory` segment holding the
flattened structure tree (:mod:`repro.store.layout` — the very bytes an
index file carries behind its header) plus a tiny picklable
:class:`~repro.store.layout.Manifest` naming the segment. Workers
:func:`attach`: they map the same segment and rebuild the structures as
zero-copy numpy views over it, so the canonical buffers are shared
pages that cost no per-worker copy. This module is the creator's side:
making the segment, tracking it, unlinking it. (A store-backed database
needs none of it: its workers map the index file.)

Lifecycle: the *creator* (the parent process that owns the pool) is the
only party that ever ``unlink``\\ s a segment. Creation registers the
segment in a process-local registry (:func:`active_segments`), unlink
removes it — the shm-lifecycle leak tests assert the registry is empty
and ``/dev/shm`` is clean after a pool closes and after a worker raises
mid-batch. Workers only ``close``
their attachment (and tolerate a late close while views are alive: the
OS unmaps everything at process exit anyway). POSIX resource-tracker
accounting stays balanced because registrations are a *set*: the
creator's register and any number of attach-side registrations collapse
to one entry, removed by the creator's single unlink — the segment is
created before the workers are, so they inherit its creator's tracker.
"""

from __future__ import annotations

from multiprocessing import shared_memory

from repro.store.io import attach
from repro.store.layout import Manifest, SegmentBuilder, flatten

__all__ = [
    "StructureShm",
    "attach",
    "active_segments",
]

# Every segment this process *created* and has not yet unlinked. The
# lifecycle tests assert this is empty after pools close; the
# atexit pool shutdown drains it even on abnormal paths.
_CREATED: dict[str, "StructureShm"] = {}


def active_segments() -> tuple[str, ...]:
    """Names of shared segments created here and not yet unlinked."""
    return tuple(sorted(_CREATED))


class StructureShm:
    """Creator-side owner of one flattened structure's shared segment."""

    def __init__(self, manifest: Manifest, shm: shared_memory.SharedMemory) -> None:
        self.manifest = manifest
        self._shm: shared_memory.SharedMemory | None = shm
        _CREATED[shm.name] = self

    @classmethod
    def create(cls, structure: object) -> "StructureShm":
        """Flatten ``structure`` into a fresh shared segment."""
        builder = SegmentBuilder()
        root = flatten(structure, builder)
        shm = shared_memory.SharedMemory(create=True, size=builder.nbytes)
        try:
            builder.write(shm.buf)
            manifest = Manifest(
                entries=builder.entries,
                root=root,
                nbytes=builder.nbytes,
                segment=shm.name,
            )
        except BaseException:
            # A failed flatten must not strand the OS segment: nobody
            # else holds its name yet, so close-and-unlink here is the
            # only release point (held by tests/test_layout.py::
            # test_failed_segment_write_strands_no_segment).
            shm.close()
            shm.unlink()
            raise
        return cls(manifest, shm)

    @property
    def name(self) -> str:
        return self.manifest.segment

    def close(self) -> None:
        """Close the creator's mapping and unlink the segment."""
        shm = self._shm
        self._shm = None
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        _CREATED.pop(self.manifest.segment, None)
