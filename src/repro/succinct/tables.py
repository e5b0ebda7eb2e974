"""8-bit popcount/select lookup tables and in-word select for the kernel.

Built once at import, in pure Python (about 0.1 ms, where 16-bit tables
would cost every fresh process 9-17 ms), and stored as plain lists
so the per-call cost in :mod:`repro.succinct.bitvector` is a few
``int.bit_count`` calls and ``list`` subscripts.

* ``POPCOUNT8[w]`` — number of set bits of the 8-bit word ``w``.
* ``SELECT8[w]`` — the 8 select answers of ``w`` packed into one
  integer, 4 bits per answer: nibble ``j`` (0-based) holds the position
  of the ``(j+1)``-th set bit. Unset nibbles (``j >= popcount``) are 0
  and must never be consulted.
"""

from __future__ import annotations


def _build_tables() -> tuple[list[int], list[int]]:
    # Doubling: the words with top bit ``bit`` are ``2**bit + w`` for the
    # words ``w`` already built. Their extra set bit is the highest, so
    # its position goes into nibble ``popcount(w)`` of ``w``'s answers.
    popcount = [0]
    packed = [0]
    for bit in range(8):
        packed += [p | bit << (c << 2) for p, c in zip(packed, popcount)]
        popcount += [c + 1 for c in popcount]
    return popcount, packed


POPCOUNT8, SELECT8 = _build_tables()


def select_in_word(word: int, need: int) -> int:
    """0-based position of the ``need``-th (1-based) set bit of ``word``.

    ``word`` is a non-negative int of at most 64 bits; callers guarantee
    ``1 <= need <= popcount(word)``. Two ``int.bit_count`` halvings
    leave 16 bits, a popcount probe picks the byte, a select probe answers.
    """
    offset = 0
    count = (word & 0xFFFFFFFF).bit_count()
    if need > count:
        need -= count
        word >>= 32
        offset = 32
    count = (word & 0xFFFF).bit_count()
    if need > count:
        need -= count
        word >>= 16
        offset += 16
    chunk = word & 0xFF
    count = POPCOUNT8[chunk]
    if need > count:
        need -= count
        chunk = word >> 8 & 0xFF
        offset += 8
    return offset + ((SELECT8[chunk] >> ((need - 1) << 2)) & 0xF)
