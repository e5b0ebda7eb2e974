# reprolint-module: repro.succinct.wavelet_tree.fixture
"""RPL002 fixture: memo lookup before the op-counter increment."""

_MISS = object()


class BadMemoTree:
    def __init__(self):
        self.ops = None
        self._memo_rank = None
        self._memo_next = None
        self._memo_values = None
        self._memo_users = 0

    def rank(self, c, i):
        memo = self._memo_rank  # looked up BEFORE the counter bump
        if memo is not None:
            hit = memo.get((c, i), _MISS)
            if hit is not _MISS:
                return hit
        if self.ops is not None:
            self.ops.rank += 1
        return 0

    def helper_entry(self, c, i):
        # Calls a memo-reading private helper without bumping first.
        return self._cached(c, i)

    def _cached(self, c, i):
        memo = self._memo_rank
        if memo is None:
            return 0
        return memo.get((c, i), 0)

    def _range_next_value_u(self, lo, hi, c):
        # Private by name, but the entry other modules call: judged like
        # a public method, and it reads the memo BEFORE the counter bump.
        memo = self._memo_next
        if memo is not None:
            hit = memo.get((lo, hi, c), _MISS)
            if hit is not _MISS:
                return hit
        if self.ops is not None:
            self.ops.range_next += 1
        return None

    def _range_values_u(self, lo, hi):
        # The range-report twin: the same entry-point rule, and the same
        # violation — a memoized report would go uncounted.
        hit = None if self._memo_values is None else self._memo_values.get((lo, hi))
        if hit is not None:
            return hit
        if self.ops is not None:
            self.ops.range_next += 1
        return ()

    def good_rank(self, c, i):
        if self.ops is not None:
            self.ops.rank += 1
        memo = self._memo_rank
        if memo is not None:
            hit = memo.get((c, i), _MISS)
            if hit is not _MISS:
                return hit
        return 0
