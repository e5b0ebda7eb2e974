"""Scope configuration of the reprolint rules.

Each constant names the part of the tree a rule patrols. Scopes are
dotted-module *prefixes*: ``"repro.ltj"`` covers ``repro.ltj`` and every
``repro.ltj.*`` module. Keeping them here (rather than inside each
rule) makes the protected surface reviewable in one place — widening a
scope is a deliberate, diffable act.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# RPL001 — hot-path purity.
#
# Modules on the succinct hot path (every query bottoms out here) must
# use the unchecked ``_*_u`` BitVector kernels: the public operations
# re-validate arguments that are in-range by construction, which the
# PR-3 kernel overhaul measured as a large constant-factor tax.
# ----------------------------------------------------------------------
HOT_PATH_PREFIXES: tuple[str, ...] = (
    "repro.ltj",
    "repro.ring",
    "repro.knn.succinct",
    "repro.knn.distance_index",
    "repro.succinct.wavelet_tree",
)

#: The validated public BitVector operations (each has a ``_*_u``
#: unchecked twin). ``access`` is deliberately absent: the name is
#: shared with :meth:`WaveletTree.access`, which *is* the counted
#: logical operation hot paths are expected to call.
VALIDATED_BITVECTOR_OPS: frozenset[str] = frozenset(
    {"rank1", "rank0", "select1", "select0", "next_one", "rank1_range"}
)

#: Canonical numpy arrays that carry a lazily-built plain-int mirror
#: (``<name>_i``). Hot-path code must index the mirror, never the
#: array: a raw element read yields a ``numpy.int64`` scalar whose
#: arithmetic re-enters numpy dispatch on every later use — the
#: scalar-leak tax the PR-3 plain-int caches eliminated. This matters
#: doubly for shm/mmap-attached structures (worker pools, ``repro
#: build`` indexes), where the canonical arrays are views over a shared
#: buffer and the mirrors are the coercion boundary that keeps numpy
#: scalars out of query evaluation. Slice reads are fine — they stay
#: arrays and feed vectorized code.
INT_MIRRORED_ARRAY_ATTRS: frozenset[str] = frozenset(
    {
        "_words",
        "_cum",
        "_counts",
        "_members",
        "_s_offsets",
        # Float-valued, but mirrored for the same reason: the distance
        # index binary-searches one region per leap, and searchsorted
        # over a slice of the attached array pays a view allocation
        # plus numpy dispatch per call (``_distances_i`` + bounded
        # bisect is the sanctioned form).
        "_distances",
    }
)

#: Inside the wavelet tree, descents inline the bitvector rank
#: arithmetic on each level's ``_words_i`` mirror and derived
#: ``_cum1_i`` table (the per-word counts are not stored). The
#: sanctioned way to reach another object's mirrors from there is the
#: level view: the functions named in ``LEVEL_VIEW_BUILDERS`` bind them
#: once per tree (lazily, so an attached tree rebuilds them on first
#: use) and every descent reads the view. A ``bv._words_i`` anywhere
#: else in the module is a per-level attribute chase — and a second
#: place that decides when an attached mirror gets built.
LEVEL_VIEW_PREFIXES: tuple[str, ...] = ("repro.succinct.wavelet_tree",)
LEVEL_VIEW_BUILDERS: frozenset[str] = frozenset({"_level_view"})
BITVECTOR_MIRROR_ATTRS: frozenset[str] = frozenset(
    {"_words_i", "_cum1_i", "_cum0_i"}
)

# ----------------------------------------------------------------------
# RPL002 — counter-before-memo.
#
# Modules holding memoized succinct wrappers: the logical op counter
# must be incremented before any memo lookup, so traced op counts are
# identical with and without memoization (the golden Figure-2 fixture
# depends on this).
# ----------------------------------------------------------------------
MEMOIZED_PREFIXES: tuple[str, ...] = ("repro.succinct.wavelet_tree",)

#: Attribute prefix marking a per-query memo container.
MEMO_ATTR_PREFIX = "_memo_"

#: Memo attributes that are bookkeeping, not caches (reading them is
#: not a lookup).
MEMO_BOOKKEEPING_ATTRS: frozenset[str] = frozenset({"_memo_users"})

#: Private-named methods that are nevertheless entry points: the
#: counted-but-unchecked twins other modules call with arguments that
#: are in range by construction (relation adapters leaping in a range
#: they resolved at bind time). They are judged like public methods —
#: the bump must precede the memo read in their own body.
COUNTED_UNCHECKED_ENTRIES: frozenset[str] = frozenset(
    {"_range_next_value_u", "_range_values_u"}
)

# ----------------------------------------------------------------------
# RPL003 — obs guards.
#
# Engine and index code may only touch a trace/counter object behind an
# ``is not None`` guard (the zero-overhead-when-disabled pattern).
# ``repro.obs`` itself is exempt — it *is* the recorder.
# ----------------------------------------------------------------------
OBS_GUARD_PREFIXES: tuple[str, ...] = (
    "repro.engines",
    "repro.ltj",
    "repro.ring",
    "repro.knn",
    "repro.succinct",
    "repro.graph",
    "repro.parallel",
    # The query server's metrics/trace plumbing handles trace objects
    # the same way engines do: only ever behind an `is not None` guard.
    "repro.serve",
    # The cross-query cache replays traced stats into hit results and
    # annotates trace.meta on probe/fill; same guard discipline applies.
    "repro.cache",
)

OBS_EXEMPT_PREFIXES: tuple[str, ...] = ("repro.obs",)

#: A dotted expression whose final segment is one of these names is
#: treated as a trace/counter reference (``self.obs``, ``obs``,
#: ``self._state.obs``, ``trace``, ``self._trace``, ``vc`` — the
#: engine's per-variable counter alias).
OBS_SEGMENTS: frozenset[str] = frozenset(
    {"obs", "ops", "trace", "_trace", "tracer", "vc"}
)

# ----------------------------------------------------------------------
# RPL004 — determinism of the traced op-count pass.
#
# The golden fixtures (tests/golden/) re-run every query of the
# Figure-2 setup under a trace and compare the op counts *exactly*
# across machines, so code reachable from that setup and from the
# engines must not consult wall-clock time or unseeded randomness, and
# must not let set iteration order leak into results.
# ----------------------------------------------------------------------
DETERMINISM_ROOTS: tuple[str, ...] = (
    "repro.experiments",
    "repro.engines",
)

#: Wall-clock reads banned in reachable code (``time.perf_counter`` is
#: allowed: it only ever feeds wall-time fields, never op counts).
WALL_CLOCK_CALLS: frozenset[str] = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
     "datetime.datetime.now", "datetime.datetime.utcnow"}
)

#: Legacy seedless numpy RNG entry points (the seeded
#: ``default_rng(seed)`` generator API is the only sanctioned one).
NUMPY_GLOBAL_RNG_FNS: frozenset[str] = frozenset(
    {"rand", "randn", "randint", "random", "choice", "shuffle",
     "permutation", "seed", "random_sample"}
)

# ----------------------------------------------------------------------
# RPL005 — engine/relation contract.
# ----------------------------------------------------------------------
RELATION_MODULE_PREFIXES: tuple[str, ...] = ("repro.ltj",)

#: Modules inside the relation scope that define the interface itself
#: (not adapters).
RELATION_EXEMPT_MODULES: frozenset[str] = frozenset(
    {"repro.ltj.relation", "repro.ltj.engine", "repro.ltj.ordering",
     "repro.ltj.stats"}
)

ENGINE_MODULE_PREFIXES: tuple[str, ...] = (
    "repro.engines",
    "repro.parallel",
    # The query server sits on top of engines; anything in it that
    # grows an `evaluate` method owes the same QueryResult contract.
    "repro.serve",
    # The cross-query cache sits between engines: anything in it that
    # grows an `evaluate` method owes the same QueryResult contract.
    "repro.cache",
)

#: Call-name last segments whose return value counts as a blessed
#: ``QueryResult`` inside an engine's ``evaluate``: the constructor
#: itself, a delegated ``.evaluate(...)``, and ``QueryCache.probe``,
#: which is typed ``QueryResult | None`` and only ever returned behind
#: an ``is not None`` guard (the cache-hit fast path in
#: ``AutoEngine.evaluate``).
ENGINE_RESULT_FACTORIES: frozenset[str] = frozenset(
    {"QueryResult", "evaluate", "probe"}
)

# ----------------------------------------------------------------------
# RPL007 — shm-only index transport in the parallel package.
#
# PR-6 replaced pickle-the-index dispatch with flatten/attach over
# shared memory (now ``repro.store.layout``, carried by
# ``repro.parallel.shm``); the 0.66-0.84x scaling of the pickling
# transport must not creep back. Inside ``repro.parallel``, serializing
# an index — importing pickle-family modules, calling their dump/load
# entry points, or (re)defining the ``__getstate__``-family dunders —
# is banned; the declared layout is the only sanctioned path for index
# bytes.
# ----------------------------------------------------------------------
PARALLEL_TRANSPORT_PREFIXES: tuple[str, ...] = ("repro.parallel",)

#: Pickle-family modules whose import (or use) marks a serialization
#: transport.
PICKLE_MODULES: frozenset[str] = frozenset(
    {"pickle", "cPickle", "dill", "cloudpickle", "marshal"}
)

#: State dunders that re-introduce object-graph serialization hooks.
STATE_DUNDERS: frozenset[str] = frozenset(
    {"__getstate__", "__setstate__", "__reduce__", "__reduce_ex__"}
)


def in_scope(module_name: str, prefixes: tuple[str, ...]) -> bool:
    """Whether ``module_name`` falls under one of the dotted prefixes."""
    for prefix in prefixes:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return True
    return False
