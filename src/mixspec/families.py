"""Closed-form counts, exact mixing distributions, and uniform samplers for
complete graphs, bicliques, paths, and rings.

All counts are exact integers and all probabilities exact rationals; floats
never enter these computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .enumeration import DEFAULT_VERTEX_CAP, CapExceededError
from .graph import BLACK, WHITE, Coloring


def comb0(n: int, k: int) -> int:
    """Binomial coefficient that is 0 whenever the arguments leave its support."""
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def fibonacci(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("index must be positive")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """L_n with L_1 = 1, L_2 = 3."""
    if n < 1:
        raise ValueError("index must be positive")
    a, b = 1, 3
    for _ in range(n - 1):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# Complete graphs and bicliques
# ---------------------------------------------------------------------------


def ic_complete(r: int) -> tuple[int, int]:
    """Count of integrated colorings of K_r and their common mixing number.

    Only the near-equal color splits are integrated: C(2n, n) colorings with
    mix n^2 when r = 2n, and 2*C(2n-1, n) colorings with mix n^2 - n when
    r = 2n - 1.
    """
    if r < 1:
        raise ValueError("order must be positive")
    if r % 2 == 0:
        n = r // 2
        return comb(r, n), n * n
    n = (r + 1) // 2
    return 2 * comb(r, n), n * n - n


def ic_biclique(m: int, n: int) -> tuple[int, dict[int, int]]:
    """Count and mixing spectrum (value -> multiplicity) for K_{m,n}.

    The two part-monochromatic colorings balance all m*n edges.  When both
    parts have even size, splitting each part evenly adds colorings that
    balance exactly half of the edges.
    """
    if m < 1 or n < 1:
        raise ValueError("both parts must be non-empty")
    if m % 2 == 0 and n % 2 == 0:
        extra = comb(m, m // 2) * comb(n, n // 2)
        return 2 + extra, {m * n: 2, m * n // 2: extra}
    return 2, {m * n: 2}


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def ic_path(n: int) -> int:
    """Number of integrated colorings of the n-vertex path: 2 F_{n-1} (2 for n=1)."""
    if n < 1:
        raise ValueError("order must be positive")
    return 2 if n == 1 else 2 * fibonacci(n - 1)


@dataclass(frozen=True)
class FamilyPmf:
    """Exact distribution of the mixing number over a family instance.

    ``masses`` maps each realized mixing number to its probability; entries
    with zero probability are omitted, so the key set is the exact spectrum.
    """

    family: str
    n: int
    ic: int
    masses: dict[int, Fraction]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.masses))


def _family_pmf(family: str, n: int, total: int, counts: dict[int, int]) -> FamilyPmf:
    masses = {mix: Fraction(c, total) for mix, c in counts.items()}
    assert sum(masses.values()) == 1
    return FamilyPmf(family, n, total, masses)


def path_mix_count(n: int, k: int) -> int:
    """Number of integrated path colorings with exactly k balanced edges."""
    return 2 * comb0(k - 1, n - k - 1)


def path_pmf(n: int) -> FamilyPmf:
    """Distribution of the mixing number over integrated colorings of P_n.

    Pr[mix = k] = 2 C(k-1, n-k-1) / ic(P_n) for k in the realized range;
    the count vanishes at k = (n-1)/2 for odd n, and such entries are omitted.
    """
    if n < 2:
        raise ValueError("need at least one edge")
    weights, total = _path_weights(n)
    return _family_pmf("path", n, total, dict(weights))


def _path_weights(n: int) -> tuple[list[tuple[int, int]], int]:
    """The nonzero (k, count) pairs of P_n by balanced-edge count k, and their total."""
    # k runs from ceil((n-1)/2) to n-1.
    weights = [(k, c) for k in range(n // 2, n) if (c := path_mix_count(n, k))]
    total = sum(c for _, c in weights)
    assert total == ic_path(n)
    return weights, total


# ---------------------------------------------------------------------------
# Rings (cyclic paths)
# ---------------------------------------------------------------------------

# 2*cos(2*pi*n/3) is an integer for integer n; index by n mod 3 to stay exact.
_COS_TABLE = (2, -1, -1)


def ic_cycle(n: int) -> int:
    """Number of integrated colorings of the n-ring, by integer recurrence.

    ic(2..5) = 2, 6, 6, 10 and ic(n) = ic(n-2) + 2 ic(n-3) + ic(n-4) after
    that.  ``cycle_count_closed_form`` provides the Lucas-number cross-check.
    The 2-ring is the two-vertex multigraph convention, kept as a constant.
    """
    if n < 2:
        raise ValueError("rings start at two vertices")
    base = {2: 2, 3: 6, 4: 6, 5: 10}
    if n in base:
        return base[n]
    a, b, c, d = 2, 6, 6, 10  # ic(C_2) .. ic(C_5)
    for _ in range(n - 5):
        a, b, c, d = b, c, d, c + 2 * b + a
    return d


def cycle_count_closed_form(n: int) -> int:
    """L_n + 2 cos(2 pi n / 3), evaluated with the exact integer table."""
    if n < 1:
        raise ValueError("index must be positive")
    return lucas(n) + _COS_TABLE[n % 3]


def _cycle_class_counts(n: int, k: int) -> tuple[int, int]:
    """Integrated n-ring colorings with 2k balanced edges, split by whether
    the edge word starts and ends with a balanced edge (bookended) or not."""
    return 2 * comb0(2 * k - 1, n - 2 * k), 4 * comb0(2 * k - 1, n - 2 * k - 1)


def cycle_mix_count(n: int, mix: int) -> int:
    """Number of integrated n-ring colorings with the given mixing number."""
    return 0 if mix % 2 else sum(_cycle_class_counts(n, mix // 2))


def cycle_pmf(n: int) -> FamilyPmf:
    """Distribution of the mixing number over integrated colorings of C_n.

    Every integrated ring coloring has an even mixing number 2k with
    Pr[mix = 2k] = cycle_mix_count(n, 2k) / ic(C_n).
    """
    if n < 2:
        raise ValueError("rings start at two vertices")
    weights, total = _cycle_weights(n)
    counts: dict[int, int] = {}
    for k, _, w in weights:
        counts[2 * k] = counts.get(2 * k, 0) + w
    return _family_pmf("cycle", n, total, counts)


def _cycle_weights(n: int) -> tuple[list[tuple[int, bool, int]], int]:
    """The nonzero (k, bookended, count) classes of C_n with 2k balanced
    edges, and their total."""
    weights = []
    for k in range((n + 3) // 4, n // 2 + 1):
        w_book, w_mixed = _cycle_class_counts(n, k)
        if w_book:
            weights.append((k, True, w_book))
        if w_mixed:
            weights.append((k, False, w_mixed))
    total = sum(w for _, _, w in weights)
    assert total == ic_cycle(n)
    return weights, total


# ---------------------------------------------------------------------------
# Exact uniform samplers
#
# An integrated coloring of a path corresponds to a word over {B, U} on the
# edges (B = balanced) with no UU factor and B at both ends, plus a color for
# the first vertex.  Rings use the cyclic variant: no UU factor, not both
# first and last letter U, and an even number of Bs.  Sampling draws the
# balanced-edge count from the exact distribution, then a uniform composition
# (an unranked gap subset), then the leftover binary choices.
#
# Randomness comes from SplitMix64: sample ``i`` of a stream seeds its own
# generator with output ``i`` of the stream seeded at ``seed``, so samples are
# pure functions of (n, seed, i) and index ranges can be sharded freely.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix64(seed: int, index: int) -> int:
    """Output ``index`` of the SplitMix64 stream seeded at ``seed``."""
    z = (seed + (index + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _SplitMix64:
    """Minimal SplitMix64 stream with unbiased bounded draws."""

    __slots__ = ("state",)

    def __init__(self, state: int) -> None:
        self.state = state & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN64) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
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

    def coin(self) -> int:
        return self.next64() >> 63

    def index_sample(self, m: int, k: int) -> list[int]:
        """k distinct uniform indices from range(m), by sparse Fisher-Yates."""
        chosen = []
        swaps: dict[int, int] = {}
        for i in range(k):
            j = i + self.randbelow(m - i)
            vi = swaps.get(i, i)
            chosen.append(swaps.get(j, j))
            swaps[j] = vi
        return chosen


def _composition(rng: _SplitMix64, total: int, parts: int) -> list[int]:
    """Uniform composition of ``total`` into ``parts`` positive parts."""
    if parts == 1:
        return [total]
    cuts = sorted(1 + c for c in rng.index_sample(total - 1, parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _path_word_to_coloring(word: list[bool], first: int) -> Coloring:
    colors = [first]
    for balanced in word:
        colors.append(colors[-1] ^ 1 if balanced else colors[-1])
    return tuple(colors)


def _sample_path_once(n: int, weights: list[tuple[int, int]], total: int, rng: _SplitMix64) -> Coloring:
    ticket = rng.randbelow(total)
    k = weights[-1][0]
    for k, w in weights:
        if ticket < w:
            break
        ticket -= w
    parts = _composition(rng, k, n - k)
    word: list[bool] = []
    for i, run in enumerate(parts):
        if i:
            word.append(False)
        word.extend([True] * run)
    first = BLACK if rng.coin() == 0 else WHITE
    return _path_word_to_coloring(word, first)


def sample_path(n: int, seed: int, count: int) -> Iterator[Coloring]:
    """Exactly uniform samples from the integrated colorings of P_n.

    Sample ``i`` is a pure function of (n, seed, i), drawn from a SplitMix64
    generator seeded with output ``i`` of the stream seeded at ``seed``.
    """
    if n < 2:
        raise ValueError("need at least one edge")
    weights, total = _path_weights(n)
    for index in range(count):
        yield _sample_path_once(n, weights, total, _SplitMix64(_splitmix64(seed, index)))


def _sample_cycle_once(
    n: int, weights: list[tuple[int, bool, int]], total: int, rng: _SplitMix64
) -> Coloring:
    ticket = rng.randbelow(total)
    k, bookended = weights[-1][0], weights[-1][1]
    for k, bookended, w in weights:
        if ticket < w:
            break
        ticket -= w
    word: list[bool] = []
    parts = _composition(rng, 2 * k, n - 2 * k + 1 if bookended else n - 2 * k)
    for i, run in enumerate(parts):
        if i:
            word.append(False)
        word.extend([True] * run)
    if not bookended:
        if rng.coin():
            word = [False] + word
        else:
            word = word + [False]
    first = BLACK if rng.coin() == 0 else WHITE
    colors = [first]
    for balanced in word[: n - 1]:
        colors.append(colors[-1] ^ 1 if balanced else colors[-1])
    return tuple(colors)


def sample_cycle(n: int, seed: int, count: int) -> Iterator[Coloring]:
    """Exactly uniform samples from the integrated colorings of C_n.

    Same per-index SplitMix64 seeding scheme as ``sample_path``.
    """
    if n < 3:
        raise ValueError("simple rings start at three vertices")
    weights, total = _cycle_weights(n)
    for index in range(count):
        yield _sample_cycle_once(n, weights, total, _SplitMix64(_splitmix64(seed, index)))


# ---------------------------------------------------------------------------
# Necklace enumeration by wire pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WirePiece:
    """A run pattern that contributes exactly two balanced edges."""

    kind: str
    pattern: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.pattern)


WIRE_PIECES = (
    WirePiece("BW", (BLACK, WHITE)),
    WirePiece("BBW", (BLACK, BLACK, WHITE)),
    WirePiece("BWW", (BLACK, WHITE, WHITE)),
    WirePiece("BBWW", (BLACK, BLACK, WHITE, WHITE)),
)


def necklace_enumerate(n: int, cap: int | None = None) -> Iterator[Coloring]:
    """Enumerate integrated ring colorings by tiling the ring with wire pieces.

    Every integrated ring coloring decomposes uniquely into a cyclic chain of
    the four wire pieces.  The enumeration fixes the piece that covers vertex 0
    together with the offset of vertex 0 inside it (which also captures both
    phases and both global colors), then fills the rest linearly.  The result
    is set-equal to ``enumerate_integrated`` on the same ring.
    """
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if n > limit:
        raise CapExceededError(f"necklace size {n} exceeds the enumeration cap {limit}")
    if n < 2:
        raise ValueError("rings start at two vertices")

    def linear_tilings(remaining: int) -> Iterator[tuple[WirePiece, ...]]:
        if remaining == 0:
            yield ()
            return
        for piece in WIRE_PIECES:
            if piece.length <= remaining:
                for rest in linear_tilings(remaining - piece.length):
                    yield (piece,) + rest

    for first in WIRE_PIECES:
        if first.length > n:
            continue
        for offset in range(first.length):
            for rest in linear_tilings(n - first.length):
                colors = [-1] * n
                pos = (n - offset) % n
                for piece in (first,) + rest:
                    for color in piece.pattern:
                        colors[pos] = color
                        pos = (pos + 1) % n
                yield tuple(colors)
