"""Semantic cross-query caching (ROADMAP item 4).

Canonical BGP signatures (:mod:`repro.cache.canonical`), a cost-aware
epoch-invalidated result/subplan store (:mod:`repro.cache.store`), and
the glue the engines, scheduler and server thread through.
"""

from repro.cache.canonical import (
    CanonicalizationError,
    CanonicalQuery,
    canonicalize,
    first_seen_variables,
    profile_of,
)
from repro.cache.store import (
    DEFAULT_MAX_BYTES,
    QueryCache,
    database_epoch,
)

__all__ = [
    "CanonicalQuery",
    "CanonicalizationError",
    "DEFAULT_MAX_BYTES",
    "QueryCache",
    "canonicalize",
    "database_epoch",
    "first_seen_variables",
    "profile_of",
]
