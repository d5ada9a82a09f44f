from __future__ import annotations

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

import mixspec
from mixspec.enumeration import enumerate_integrated, mix_histogram
from mixspec.families import (
    WIRE_PIECES,
    _cycle_class_counts,
    _cycle_weights,
    _path_weights,
    _words,
    comb0,
    cycle_count_closed_form,
    cycle_mix_count,
    cycle_pmf,
    fibonacci,
    ic_biclique,
    ic_complete,
    ic_cycle,
    ic_path,
    lucas,
    necklace_enumerate,
    path_mix_count,
    path_pmf,
    sample_cycle,
    sample_path,
)
from mixspec.graph import (
    BLACK,
    WHITE,
    biclique_graph,
    coloring_from_string,
    coloring_to_string,
    complete_graph,
    cycle_graph,
    is_integrated,
    mix_of_coloring,
    path_graph,
)


def test_sequences():
    assert [fibonacci(n) for n in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert [lucas(n) for n in range(1, 9)] == [1, 3, 4, 7, 11, 18, 29, 47]


def test_ic_complete_values():
    assert ic_complete(4) == (6, 4)
    assert ic_complete(5) == (20, 6)
    assert ic_complete(1) == (2, 0)
    assert ic_complete(2) == (2, 1)


def test_ic_complete_matches_enumeration():
    for r in range(2, 10):
        count, fixed = ic_complete(r)
        hist = mix_histogram(complete_graph(r))
        assert hist.counts == {fixed: count}


def test_ic_biclique_values():
    assert ic_biclique(2, 3) == (2, {6: 2})
    assert ic_biclique(2, 2) == (6, {4: 2, 2: 4})
    assert ic_biclique(4, 2) == (14, {8: 2, 4: 12})


def test_ic_biclique_matches_enumeration():
    for m in range(1, 6):
        for n in range(1, 6):
            count, spectrum = ic_biclique(m, n)
            hist = mix_histogram(biclique_graph(m, n))
            assert hist.ic == count
            assert hist.counts == spectrum


def test_ic_path_values():
    assert ic_path(1) == 2
    assert ic_path(2) == 2
    assert ic_path(3) == 2
    assert ic_path(5) == 6
    assert ic_path(10) == 68


def test_path_recurrence():
    for n in range(4, 40):
        assert ic_path(n) == ic_path(n - 1) + ic_path(n - 2)


def test_path_pmf_values():
    assert path_pmf(4).masses == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert path_pmf(5).masses == {3: Fraction(2, 3), 4: Fraction(1, 3)}
    assert path_pmf(2).masses == {1: Fraction(1)}


def test_path_pmf_support_envelope():
    for n in range(2, 20):
        pmf = path_pmf(n)
        assert sum(pmf.masses.values()) == 1
        lo, hi = (n - 1 + 1) // 2, n - 1
        assert all(lo <= k <= hi for k in pmf.ims)


def test_path_pmf_matches_enumeration():
    for n in range(2, 17):
        pmf = path_pmf(n)
        hist = mix_histogram(path_graph(n))
        assert pmf.ic == hist.ic
        assert pmf.masses == {k: Fraction(c, hist.ic) for k, c in hist.counts.items()}


def test_pmf_counts_are_the_per_k_formulas():
    # The integer counts behind both pmfs, ascending and without zeros, which
    # the CLI prints as numerators over ic.
    for n in list(range(2, 60)) + [401, 402]:
        path = path_pmf(n)
        expected = {k: path_mix_count(n, k) for k in range(n) if path_mix_count(n, k)}
        assert list(path.counts.items()) == list(expected.items())
        assert path.ic == ic_path(n)
        cycle = cycle_pmf(n)
        expected = {k: cycle_mix_count(n, k) for k in range(n + 1) if cycle_mix_count(n, k)}
        assert list(cycle.counts.items()) == list(expected.items())
        assert cycle.ic == ic_cycle(n)


def test_public_names_resolve():
    # Every exported name exists; the pmfs are MixHistograms and the wire
    # pieces plain tuples, so the package exports no FamilyPmf or WirePiece.
    assert all(hasattr(mixspec, name) for name in mixspec.__all__)
    assert "FamilyPmf" not in mixspec.__all__
    assert "WirePiece" not in mixspec.__all__
    assert type(path_pmf(4)) is type(cycle_pmf(4)) is mixspec.MixHistogram


def test_ic_cycle_values():
    assert [ic_cycle(n) for n in (2, 3, 4, 5, 6, 7)] == [2, 6, 6, 10, 20, 28]


def test_cycle_closed_form_agrees():
    for n in range(2, 65):
        assert ic_cycle(n) == cycle_count_closed_form(n)


def test_cycle_pmf_values():
    assert cycle_pmf(4).masses == {2: Fraction(2, 3), 4: Fraction(1, 3)}
    assert cycle_pmf(6).masses == {4: Fraction(9, 10), 6: Fraction(1, 10)}
    assert cycle_pmf(5).masses == {4: Fraction(1)}
    assert cycle_pmf(2).masses == {2: Fraction(1)}
    assert cycle_pmf(2).ic == 2


def test_cycle_pmf_matches_enumeration():
    for n in range(3, 17):
        pmf = cycle_pmf(n)
        hist = mix_histogram(cycle_graph(n))
        assert pmf.ic == hist.ic
        assert pmf.masses == {k: Fraction(c, hist.ic) for k, c in hist.counts.items()}


def test_cycle_support_even_in_envelope():
    for n in range(2, 33):
        for k in cycle_pmf(n).ims:
            assert k % 2 == 0
            assert n <= 2 * k <= 2 * n


def test_sum_identities():
    for n in range(2, 65):
        lo = (n + 1 - 1) // 2
        assert sum(2 * comb0(k - 1, n - k - 1) for k in range(lo, n)) == ic_path(n)
        assert (
            sum(cycle_mix_count(n, 2 * k) for k in range((n + 3) // 4, n // 2 + 1))
            == ic_cycle(n)
        )


# -- wire pieces and necklaces ----------------------------------------------


def test_wire_piece_shapes():
    assert all(type(p) is tuple for p in WIRE_PIECES)
    kinds = {coloring_to_string(p, "BW"): p for p in WIRE_PIECES}
    assert len(kinds) == len(WIRE_PIECES)
    assert set(kinds) == {"BW", "BBW", "BWW", "BBWW"}
    assert [len(kinds[k]) for k in ("BW", "BBW", "BWW", "BBWW")] == [2, 3, 3, 4]


def test_wire_pieces_contribute_two_balanced_edges():
    # Within a chain ...piece | piece..., each piece adds one internal
    # black-to-white step and one closing white-to-black step.
    for piece in WIRE_PIECES:
        internal = sum(1 for a, b in zip(piece, piece[1:]) if a != b)
        assert internal == 1
        assert piece[0] == BLACK == 0 and piece[-1] == WHITE == 1


def test_necklace_counts():
    assert len(list(necklace_enumerate(2))) == 2
    assert len(list(necklace_enumerate(4))) == 6
    assert len(list(necklace_enumerate(5))) == 10
    # On the 2-ring only the piece BW fits, at offset 0 and 1.
    assert set(necklace_enumerate(2)) == {(0, 1), (1, 0)}


def test_necklace_set_equals_enumeration():
    for n in range(3, 17):
        necklaces = list(necklace_enumerate(n))
        assert len(necklaces) == len(set(necklaces)) == ic_cycle(n)
        assert set(necklaces) == set(enumerate_integrated(cycle_graph(n)))


def _necklace_recursive(n: int):
    """Reference: the first piece and the offset of vertex 0 in it, then the
    rest tiled linearly by recursive generators."""

    def linear_tilings(remaining: int):
        if remaining == 0:
            yield ()
            return
        for piece in WIRE_PIECES:
            if len(piece) <= remaining:
                for rest in linear_tilings(remaining - len(piece)):
                    yield piece + rest

    for first in WIRE_PIECES:
        for offset in range(len(first)):
            for rest in linear_tilings(n - len(first)):
                word = first + rest
                yield word[offset:] + word[:offset]


@pytest.mark.parametrize("n", range(2, 19))
def test_necklace_sequence_matches_the_recursive_reference(n):
    assert list(necklace_enumerate(n)) == list(_necklace_recursive(n))


def test_necklace_memory_stays_flat():
    # Per-length word lists would hold every tiling of up to 18 vertices.  An
    # untraced first pass fills the interpreter's free list of 20-tuples,
    # which the traced pass would otherwise count.
    for _ in necklace_enumerate(20):
        pass
    tracemalloc.start()
    try:
        for _ in necklace_enumerate(20):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_necklace_cap():
    with pytest.raises(Exception, match="cap"):
        list(necklace_enumerate(30))
    necklaces = list(necklace_enumerate(22))
    assert len(necklaces) == len(set(necklaces)) == ic_cycle(22) == 39602


# -- samplers -----------------------------------------------------------------


def test_sample_path_small_support():
    seen = set(sample_path(3, 7, 200))
    assert seen == {coloring_from_string("BWB"), coloring_from_string("WBW")}
    seen2 = set(sample_path(2, 7, 200))
    assert seen2 == {coloring_from_string("BW"), coloring_from_string("WB")}


def test_sample_path_outputs_integrated():
    for n in (4, 7, 11):
        g = path_graph(n)
        for c in sample_path(n, 321, 300):
            assert is_integrated(g, c)[0]


def test_sample_cycle_outputs_integrated_even_mix():
    for n in (4, 5, 9):
        g = cycle_graph(n)
        for c in sample_cycle(n, 321, 300):
            assert is_integrated(g, c)[0]
            mix = mix_of_coloring(g, c)
            assert mix % 2 == 0 and n <= 2 * mix <= 2 * n


def test_sample_cycle3_support():
    seen = set(sample_cycle(3, 5, 500))
    assert seen == set(enumerate_integrated(cycle_graph(3)))
    assert len(seen) == 6


def test_sampler_determinism_and_sharding():
    full = list(sample_path(9, 1234, 50))
    again = list(sample_path(9, 1234, 50))
    assert full == again
    # The per-index generator makes prefixes of longer streams identical.
    assert list(sample_path(9, 1234, 20)) == full[:20]
    assert list(sample_cycle(9, 1234, 20)) == list(sample_cycle(9, 1234, 50))[:20]


def test_sample_path_mix_distribution_matches_pmf():
    n, draws = 8, 20000
    counter = Counter(
        mix_of_coloring(path_graph(n), c) for c in sample_path(n, 99, draws)
    )
    pmf = path_pmf(n)
    for k, p in pmf.masses.items():
        expected = float(p) * draws
        assert abs(counter[k] - expected) < 5 * (expected ** 0.5) + 10


def test_sample_cycle_mix_distribution_matches_pmf():
    n, draws = 4, 30000
    counter = Counter(
        mix_of_coloring(cycle_graph(n), c) for c in sample_cycle(n, 99, draws)
    )
    freq = counter[2] / draws
    assert abs(freq - 2 / 3) < 0.01


def test_validation_errors():
    with pytest.raises(ValueError):
        ic_complete(0)
    with pytest.raises(ValueError):
        ic_biclique(0, 3)
    with pytest.raises(ValueError):
        ic_path(0)
    with pytest.raises(ValueError):
        ic_cycle(1)
    with pytest.raises(ValueError, match="^need n >= 1$"):
        path_pmf(0)
    with pytest.raises(ValueError, match="^need n >= 1$"):
        list(sample_path(0, 0, 1))
    with pytest.raises(ValueError, match="^need n >= 2$"):
        list(sample_cycle(1, 0, 1))


# The count vectors come from one ratio walk over consecutive binomials; the
# per-k ``math.comb`` formulas are the oracle.  The ring reads the walks of
# P_n and P_{n+1}, and the orders cover both parities of n and of n + 1.
_WALK_ORDERS = [*range(2, 301), 6000, 6001, 6002, 6003]


def test_path_weights_match_per_k_binomials():
    for n in _WALK_ORDERS:
        expected = [(k, c) for k in range(n // 2, n) if (c := path_mix_count(n, k))]
        assert _path_weights(n) == (expected, sum(c for _, c in expected)), n


def test_cycle_weights_match_per_k_binomials():
    for n in _WALK_ORDERS:
        expected = []
        for k in range(1, n // 2 + 1):
            book, mixed = _cycle_class_counts(n, k)
            if book:
                expected.append((k, True, book))
            if mixed:
                expected.append((k, False, mixed))
        assert _cycle_weights(n) == (expected, sum(w for _, _, w in expected)), n


# -- reference sampler ---------------------------------------------------------
#
# The scalar SplitMix64 samplers that ``_words`` and the packed samplers
# replaced, one generator step per word.  They define the sample stream, so
# the fast samplers must reproduce them word for word.

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix64(seed, index):
    """Output ``index`` of the SplitMix64 stream seeded at ``seed``."""
    z = (seed + (index + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _SplitMix64:
    """Minimal SplitMix64 stream with unbiased bounded draws."""

    def __init__(self, state):
        self.state = state & _MASK64

    def next64(self):
        self.state = (self.state + _GOLDEN64) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, n):
        """Uniform integer in [0, n) by rejection on the top bits."""
        bits = n.bit_length()
        if bits <= 64:
            shift = 64 - bits
            while True:
                r = self.next64() >> shift
                if r < n:
                    return r
        words = (bits + 63) // 64
        shift = words * 64 - bits
        while True:
            r = 0
            for _ in range(words):
                r = (r << 64) | self.next64()
            r >>= shift
            if r < n:
                return r

    def coin(self):
        return self.next64() >> 63

    def index_sample(self, m, k):
        """k distinct uniform indices from range(m), by sparse Fisher-Yates."""
        chosen = []
        swaps = {}
        for i in range(k):
            j = i + self.randbelow(m - i)
            vi = swaps.get(i, i)
            chosen.append(swaps.get(j, j))
            swaps[j] = vi
        return chosen


def _composition(rng, total, parts):
    """Uniform composition of ``total`` into ``parts`` positive parts."""
    if parts == 1:
        return [total]
    cuts = sorted(1 + c for c in rng.index_sample(total - 1, parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _runs_to_word(parts):
    word = []
    for i, run in enumerate(parts):
        if i:
            word.append(False)
        word.extend([True] * run)
    return word


def _sample_path_once(n, weights, total, rng):
    ticket = rng.randbelow(total)
    for k, w in weights:
        if ticket < w:
            break
        ticket -= w
    word = _runs_to_word(_composition(rng, k, n - k))
    colors = [BLACK if rng.coin() == 0 else WHITE]
    for balanced in word:
        colors.append(colors[-1] ^ 1 if balanced else colors[-1])
    return tuple(colors)


def _sample_cycle_once(n, weights, total, rng):
    ticket = rng.randbelow(total)
    for k, bookended, w in weights:
        if ticket < w:
            break
        ticket -= w
    word = _runs_to_word(_composition(rng, 2 * k, n - 2 * k + 1 if bookended else n - 2 * k))
    if not bookended:
        if rng.coin():
            word = [False] + word
        else:
            word = word + [False]
    colors = [BLACK if rng.coin() == 0 else WHITE]
    for balanced in word[: n - 1]:
        colors.append(colors[-1] ^ 1 if balanced else colors[-1])
    return tuple(colors)


def _reference_samples(family, n, seed, count):
    weights, total = _path_weights(n) if family == "path" else _cycle_weights(n)
    once = _sample_path_once if family == "path" else _sample_cycle_once
    return [once(n, weights, total, _SplitMix64(_splitmix64(seed, i))) for i in range(count)]


# Seeds at both ends of the 64-bit range, negative, and wider than 64 bits.
_SEEDS = [0, 1, -1, 2**64 - 1, 2**64 + 5, 0xB7E1_5162_8AED_2A6A_BF71]


@pytest.mark.parametrize("size", [4, 8, 16, 32, 64])
def test_packed_words_match_scalar_stream(size):
    # The last state wraps past 2^64 in the third lane: s + 3 gamma = 2^64 + 7.
    for state in (0, 1, 2**64 - 1, (7 - 3 * _GOLDEN64) % 2**64):
        rng = _SplitMix64(state)
        expected = [rng.next64() for _ in range(300)]
        assert list(islice(_words(state, size), 300)) == expected, (state, size)


def test_per_index_seeds_are_the_seed_stream():
    for seed in _SEEDS:
        got = list(islice(_words(seed % 2**64), 130))
        assert got == [_splitmix64(seed, i) for i in range(130)], seed


@pytest.mark.parametrize("seed", _SEEDS)
def test_samplers_match_scalar_reference(seed):
    cases = [("path", n, 4) for n in [*range(1, 71), 200, 2001]]
    cases += [("cycle", n, 4) for n in [*range(2, 71), 200, 2001]]
    for family, n, count in cases:
        sampler = sample_path if family == "path" else sample_cycle
        got = list(sampler(n, seed, count))
        assert got == _reference_samples(family, n, seed, count), (family, n, seed)


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_samplers_match_scalar_reference_at_6000(family):
    sampler = sample_path if family == "path" else sample_cycle
    for seed in (1, 2**64 + 5):
        assert list(sampler(6000, seed, 3)) == _reference_samples(family, 6000, seed, 3)
