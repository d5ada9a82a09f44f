"""Closed-form counts, exact mixing distributions, and uniform samplers for
complete graphs, bicliques, paths, and rings.

All counts are exact integers and all probabilities exact rationals; floats
never enter these computations.

Each family's per-n count vector, and the check of its range of orders,
has one source, ``_path_weights`` or ``_cycle_weights``, read by the pmfs,
the samplers and ``genfunc``'s rows.
``_path_weights`` is the one binomial ratio walk: the ring's classes are
path counts, so ``_cycle_weights`` reads its vector off two path walks.
The pmfs are ``enumeration.MixHistogram``s, like the engines' histograms.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import xor
from struct import Struct
from typing import Callable, Iterator

from .enumeration import MixHistogram, _check_cap
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


def path_mix_count(n: int, k: int) -> int:
    """Number of integrated path colorings with exactly k balanced edges."""
    return 2 * comb0(k - 1, n - k - 1)


def path_pmf(n: int) -> MixHistogram:
    """Distribution of the mixing number over integrated colorings of P_n.

    Pr[mix = k] = 2 C(k-1, n-k-1) / ic(P_n) for k in the realized range;
    the count vanishes at k = (n-1)/2 for odd n, and such entries are omitted.
    """
    return MixHistogram(dict(_path_weights(n)[0]))


def _path_weights(n: int) -> tuple[list[tuple[int, int]], int]:
    """The nonzero (k, count) pairs of P_n by balanced-edge count k, and their total.

    The count is 2 C(a, b) with a = k-1, b = n-k-1.  The walk starts at
    k = n-1, where C(n-2, 0) = 1, and steps k down by one with the exact ratio
        C(a-1, b+1) = C(a, b) (a-b)(a-b-1) / (a (b+1)),
    one bignum multiply and one exact divide per k.  It stops where the next
    binomial leaves its support, at k = ceil((n-1)/2).  It alone checks the
    range n >= 1 (P_1 has mix 0 in both colors).  ``path_mix_count`` evaluates
    each count on its own and is the oracle the tests compare with.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    weights = [(n - 1, 2)]
    a, b, c = n - 2, 0, 1
    while a - b >= 2:
        c = c * ((a - b) * (a - b - 1)) // (a * (b + 1))
        a, b = a - 1, b + 1
        weights.append((a + 1, 2 * c))
    weights.reverse()
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
    a, b, c, d = 2, 6, 6, 10  # ic(C_2) .. ic(C_5)
    for _ in range(n - 5):
        a, b, c, d = b, c, d, c + 2 * b + a
    return (a, b, c, d)[min(n, 5) - 2]


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


def cycle_pmf(n: int) -> MixHistogram:
    """Distribution of the mixing number over integrated colorings of C_n.

    Every integrated ring coloring has an even mixing number 2k with
    Pr[mix = 2k] = cycle_mix_count(n, 2k) / ic(C_n), both classes of
    ``_cycle_weights`` summed.
    """
    counts: dict[int, int] = {}
    for k, _, w in _cycle_weights(n)[0]:
        counts[2 * k] = counts.get(2 * k, 0) + w
    return MixHistogram(counts)


def _cycle_weights(n: int) -> tuple[list[tuple[int, bool, int]], int]:
    """The nonzero (k, bookended, count) classes of C_n with 2k balanced
    edges, ordered by k with the bookended class first, and their total.

    Both classes are path counts at 2k balanced edges: the bookended count
    2 C(2k-1, n-2k) is P_{n+1}'s, and the mixed count 4 C(2k-1, n-2k-1) is
    twice P_n's.  So both are read off ``_path_weights``' even entries.
    ``_cycle_class_counts`` evaluates each count on its own and is the
    oracle the tests compare with.  It alone checks the range n >= 2; C_2
    is ``ic_cycle``'s two-vertex ring, with both edges balanced.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    weights = [(mix // 2, True, c) for mix, c in _path_weights(n + 1)[0] if mix % 2 == 0]
    weights += [(mix // 2, False, 2 * c) for mix, c in _path_weights(n)[0] if mix % 2 == 0]
    weights.sort(key=lambda w: (w[0], not w[1]))
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


@lru_cache(maxsize=None)
def _lanes(size: int) -> tuple[int, int, int, Callable[[bytes], tuple[int, ...]]]:
    """Constants for ``size`` 64-bit lanes packed 128 bits apart in one int:
    a 1 in each lane, lane j holding (j+1) * golden gamma, the low-64-bit mask
    of every lane, and the little-endian unpacker of the lanes' low halves."""
    ones = sum(1 << 128 * j for j in range(size))
    steps = sum((j + 1) * _GOLDEN64 << 128 * j for j in range(size))
    return ones, steps, _MASK64 * ones, Struct("<" + "Q8x" * size).unpack


def _words(state: int, size: int = 64) -> Iterator[int]:
    """The SplitMix64 stream seeded at ``state`` (0 <= state < 2^64).

    Each block of ``size`` outputs is mixed in the lanes of one int, one
    bignum operation per step for the whole block.  The mask before each
    multiply drops what a right shift carried in from the next lane, so every
    product fits its lane's 128 bits; the mask after it keeps the product
    mod 2^64, as the scalar generator does.  The last shift's carry lands in
    the high half of each lane, which the unpacker skips.
    """
    ones, steps, mask, unpack = _lanes(size)
    while True:
        z = (state * ones + steps) & mask
        z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
        z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
        yield from unpack((z ^ (z >> 31)).to_bytes(16 * size, "little"))
        state = (state + size * _GOLDEN64) & _MASK64


def _streams(n: int, seed: int) -> Iterator[Callable[[], int]]:
    """The word source of sample 0, 1, ...: the stream seeded with output i of
    the stream seeded at ``seed``, in blocks of a power of two near n/2 (4..64)
    words, about what one draw of an n-vertex coloring uses."""
    size = max(4, min(64, 1 << (n // 2 - 1).bit_length()))
    for state in _words(seed % 2**64):
        yield _words(state, size).__next__


def _below(nxt: Callable[[], int], n: int) -> int:
    """Uniform integer in [0, n) by rejection on the top bits of whole words."""
    words = (n.bit_length() + 63) // 64
    shift = 64 * words - n.bit_length()
    while True:
        r = nxt()
        for _ in range(words - 1):
            r = (r << 64) | nxt()
        r >>= shift
        if r < n:
            return r


def _run_word(nxt: Callable[[], int], total: int, parts: int) -> bytearray:
    """Edge word of a uniform composition of ``total`` into ``parts`` positive
    runs: each run is that many balanced edges (1s), with one unbalanced edge
    (0) after every run but the last.

    The cut points are a uniform (parts-1)-subset of 1..total-1, drawn by a
    partial Fisher-Yates shuffle.  Each swap index comes from ``_below``'s
    rejection, inlined for its one-word case: this loop takes most of a
    draw's words, and every bound here is a list length, below 2^64.
    """
    if parts == 1:
        return bytearray(b"\x01") * total
    cuts = list(range(1, total))
    for i in range(parts - 1):
        m = total - 1 - i
        shift = 64 - m.bit_length()
        j = nxt() >> shift
        while j >= m:
            j = nxt() >> shift
        j += i
        cuts[i], cuts[j] = cuts[j], cuts[i]
    word = bytearray(b"\x01") * (total + parts - 1)
    for t, cut in enumerate(sorted(cuts[: parts - 1])):
        word[cut + t] = 0
    return word


def sample_path(n: int, seed: int, count: int) -> Iterator[Coloring]:
    """Exactly uniform samples from the integrated colorings of P_n.

    Sample ``i`` is a pure function of (n, seed, i), drawn from a SplitMix64
    generator seeded with output ``i`` of the stream seeded at ``seed``.
    """
    weights, total = _path_weights(n)
    cumulative = list(accumulate(c for _, c in weights))
    for _, nxt in zip(range(count), _streams(n, seed)):
        k = weights[bisect_right(cumulative, _below(nxt, total))][0]
        word = _run_word(nxt, k, n - k)
        yield tuple(accumulate(word, xor, initial=(BLACK, WHITE)[nxt() >> 63]))


def sample_cycle(n: int, seed: int, count: int) -> Iterator[Coloring]:
    """Exactly uniform samples from the integrated colorings of C_n.

    Same per-index SplitMix64 seeding scheme as ``sample_path``.  A word
    without balanced edges at both ends gets its unbalanced edge in front or
    at the back by a coin; the last edge closes the ring and is left out.
    """
    weights, total = _cycle_weights(n)
    cumulative = list(accumulate(w for _, _, w in weights))
    for _, nxt in zip(range(count), _streams(n, seed)):
        k, bookended, _ = weights[bisect_right(cumulative, _below(nxt, total))]
        word = _run_word(nxt, 2 * k, n - 2 * k + 1 if bookended else n - 2 * k)
        if not bookended:
            word.insert(0 if nxt() >> 63 else len(word), 0)
        first = (BLACK, WHITE)[nxt() >> 63]
        yield tuple(accumulate(word[: n - 1], xor, initial=first))


# ---------------------------------------------------------------------------
# Necklace enumeration by wire pieces
# ---------------------------------------------------------------------------


# Each piece is its color pattern: a run of one or two blacks, then a run of
# one or two whites, so it contributes exactly two balanced edges.
WIRE_PIECES = (
    (BLACK, WHITE),
    (BLACK, BLACK, WHITE),
    (BLACK, WHITE, WHITE),
    (BLACK, BLACK, WHITE, WHITE),
)


def necklace_enumerate(n: int) -> Iterator[Coloring]:
    """Enumerate integrated ring colorings by tiling the ring with wire pieces.

    Every integrated ring coloring decomposes uniquely into a cyclic chain of
    the four wire pieces.  The enumeration fixes the piece that covers vertex 0
    together with the offset of vertex 0 inside it (which also captures both
    phases and both global colors), then fills the rest depth first from a
    stack of O(n) pending chains, down to a table of the 44 tilings of at
    most 8 vertices; each word, rotated left by the offset, is a coloring.
    """
    _check_cap(n, None)
    if n < 2:
        raise ValueError("rings start at two vertices")
    ends = [[()], []]  # ends[r]: the tilings of r vertices, depth first
    for r in range(2, 9):
        ends.append([p + e for p in WIRE_PIECES if len(p) <= r for e in ends[r - len(p)]])
    for first in (p for p in WIRE_PIECES if len(p) <= n):
        for offset in range(len(first)):
            rows = [[e + first[:offset] for e in row] for row in ends]
            stack = [(first[offset:], n - len(first))]
            while stack:
                middle, r = stack.pop()
                if r > 8:
                    stack += [(middle + p, r - len(p)) for p in reversed(WIRE_PIECES)]
                else:
                    yield from map(middle.__add__, rows[r])
