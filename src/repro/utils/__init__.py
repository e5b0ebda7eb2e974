"""Shared utilities: errors (:mod:`.errors`), the query-timeout
stopwatch (:mod:`.timing`) and argument checks (:mod:`.validation`)."""
