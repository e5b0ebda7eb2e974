"""Precomputed 16-bit popcount/select lookup tables for the hot kernel.

Built once at import, in pure Python (a few milliseconds), and stored
as plain lists so the per-call cost in :mod:`repro.succinct.bitvector`
is a single ``list`` subscript — no numpy scalar boxing on the hot path.

* ``POPCOUNT16[w]`` — number of set bits of the 16-bit word ``w``.
* ``SELECT16[w]`` — the 16 select answers of ``w`` packed into one
  integer, 4 bits per answer: nibble ``j`` (0-based) holds the position
  of the ``(j+1)``-th set bit. Unset nibbles (``j >= popcount``) are 0
  and must never be consulted; callers reduce ``need`` below 16 first.

With these, ``select`` inside a 64-bit word is at most four popcount
table probes plus one packed-select probe, replacing the former
byte-at-a-time loop with an inner per-bit scan.
"""

from __future__ import annotations


def _build_tables() -> tuple[list[int], list[int]]:
    # Doubling: the words with top bit ``bit`` are ``2**bit + w`` for the
    # words ``w`` already built. Their extra set bit is the highest, so
    # its position goes into nibble ``popcount(w)`` of ``w``'s answers.
    popcount = [0]
    packed = [0]
    for bit in range(16):
        packed += [p | bit << (c << 2) for p, c in zip(packed, popcount)]
        popcount += [c + 1 for c in popcount]
    return popcount, packed


POPCOUNT16, SELECT16 = _build_tables()


def select_in_word(word: int, need: int) -> int:
    """0-based position of the ``need``-th (1-based) set bit of ``word``.

    ``word`` is a non-negative int of at most 64 bits; callers guarantee
    ``1 <= need <= popcount(word)``.
    """
    chunk = word & 0xFFFF
    count = POPCOUNT16[chunk]
    offset = 0
    while need > count:
        need -= count
        word >>= 16
        offset += 16
        chunk = word & 0xFFFF
        count = POPCOUNT16[chunk]
    return offset + ((SELECT16[chunk] >> ((need - 1) << 2)) & 0xF)
