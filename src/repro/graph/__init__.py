"""Graph database substrate: triples, dictionaries, reference evaluators.

A graph database here follows Def. 1 of the paper: a set of labeled edges
``(s, p, o)`` over a universe of integer constants ``[0, D)``. The modules:

* :mod:`repro.graph.triples` — the :class:`GraphData` container with the
  derived quantities the paper uses (``N`` edges, ``D`` domain size,
  ``n`` nodes).
* :mod:`repro.graph.dictionary` — optional string<->id mapping so examples
  can use readable terms.
* :mod:`repro.graph.naive` — brute-force BGP evaluation, the correctness
  oracle for every join engine in the repo.
* :mod:`repro.graph.sixperm` — the classic six-permutation sorted index
  (the "6 tries" of Sec. 2.2), used both as an LTJ backend and as a
  navigation oracle for the Ring.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graph.dictionary import TermDictionary
    from repro.graph.triples import GraphData, Triple

__all__ = ["GraphData", "Triple", "TermDictionary"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "dictionary": ("TermDictionary",), "triples": ("GraphData", "Triple"),
})
