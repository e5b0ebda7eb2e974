# reprolint-module: repro.succinct.wavelet_tree.fixture_level_view
"""RPL001 fixture: BitVector mirrors reached around the level view."""


class LeakyTree:
    def __init__(self, levels):
        self._levels = levels
        self._lv = None

    def _level_view(self):
        # The sanctioned reads: bound once per tree, lazily.
        view = self._lv = [(bv._words_i, bv._cum1_i) for bv in self._levels]
        return view

    def fine_descent(self, i):
        for words, cum in self._lv or self._level_view():
            w = i >> 6
            i = cum[w] + (words[w] & ((1 << (i & 63)) - 1)).bit_count()
        return i

    def leaky_descent(self, i):
        for bv in self._levels:
            w = i >> 6
            i = bv._cum1_i[w] + (  # attribute chase per level
                bv._words_i[w] & ((1 << (i & 63)) - 1)
            ).bit_count()
        return i
