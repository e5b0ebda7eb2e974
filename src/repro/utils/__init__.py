"""Shared utilities: the typed errors (:mod:`.errors`); the
query-timeout stopwatch lives on the span clock
(:class:`repro.obs.spans.Stopwatch`)."""
