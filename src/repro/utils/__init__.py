"""Shared utilities: errors (:mod:`.errors`) and argument checks
(:mod:`.validation`); the query-timeout stopwatch lives on the span
clock (:class:`repro.obs.spans.Stopwatch`)."""
