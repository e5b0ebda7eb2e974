"""Experiment harnesses regenerating every figure and measurement of
Sec. 6 (and the Sec. 3.2 motivation numbers).

Each harness module is a plain function returning structured rows;
:mod:`repro.experiments.registry` runs them all (``repro experiments``)
and checks the paper's claims against what they return. See DESIGN.md's
per-experiment index (E1-E13) for the mapping to paper artifacts.
"""
