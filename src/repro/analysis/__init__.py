"""Runtime checks of the repo's invariants.

The one module here is :mod:`repro.analysis.sanitize`, the resource
ledger that ``REPRO_SANITIZE=1`` installs under the test suite. The
invariants the wco guarantees rest on (unchecked kernels on the hot
path, memo-invariant op counts, reproducible traced passes, the
relation and engine contracts, the file-only pool transport) are held
by tier-1 tests that exercise them where they run; see
``docs/static-analysis.md`` for which test fails on which defect.
Nothing on the query path imports this package.
"""
