"""Exhaustive enumeration of integrated colorings for arbitrary graphs.

This module is the brute-force oracle that validates the closed-form counts,
distributions, and bounds elsewhere in the package.  One iterative search
kernel, ``_search``, serves ``enumerate_integrated`` and ``mix_histogram``.
It keeps each vertex's slack (how many more same-colored neighbors it can
take) in bit-sliced planes, one snapshot per depth, so placing a vertex
updates all its neighbors with a few whole-mask operations.  Its explicit
stack is the ``colors`` list, so depth is bounded by memory, not by Python's
recursion limit: a raised cap can go well past 1000 vertices on graphs whose
search stays small.  Every leaf passes a guard that ignores the slacks and
runs the shared bitmask integration test ``graph.failing_vertices`` (Propp's
local search runs it after each flip), so a pruning bug could cost time but
never emit a wrong coloring.  ``mix_histogram`` searches only the colorings
with vertex 0 black and doubles the counts, since swapping the colors is a
bijection that keeps every mix.  ``max_cut`` takes all 2^(n-1) splits at
once on truth-table columns, their cut sizes in bit-sliced planes.

``exact_histogram`` gives the same histogram as ``mix_histogram`` from the
cheapest engine that applies: the closed forms for complete graphs and
bicliques, then a DP over the frontier of a vertex order
(``_frontier_counts``, the transfer-matrix method run over a path
decomposition), then the search.  The DP runs along the greedy
minimum-frontier order, and only when the walk that builds the order keeps
its bound on the DP's states within ``FRONTIER_STATE_BUDGET``.  The CLI's
histograms go through it; ``verify`` and the tests keep calling
``mix_histogram``, so the search stays the oracle for both fast engines.
Both return ``MixHistogram``, the one exact-law type, as do the path and
ring closed forms in ``families``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from itertools import takewhile
from typing import Iterator, NamedTuple

from .graph import (
    BLACK,
    WHITE,
    Coloring,
    Graph,
    adjacency_masks,
    bit_sliced_sum,
    failing_vertices,
    truth_columns,
)

DEFAULT_VERTEX_CAP = 24


class CapExceededError(ValueError):
    """Raised when a graph is too large for exhaustive search."""


def _check_cap(n: int, cap: int | None) -> None:
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if n > limit:
        raise CapExceededError(f"graph has {n} vertices; exhaustive enumeration is capped at {limit}")


def _search(g: Graph) -> Iterator[tuple[Coloring, int]]:
    """Yield every integrated coloring with its mixing number, lexicographically.

    Vertices are placed in id order.  The slack of a placed vertex w is
    half[w] = floor(deg(w)/2) minus its same-colored placed neighbors.  Its
    unplaced neighbors may all still turn out opposite, so w can still end
    up integrated exactly when its slack is not negative; an unplaced vertex
    can always pick the minority color of its placed neighbors.  Placing v
    lowers the slack of ``same``, its earlier neighbors of v's color, by
    one, and gives v the slack half[v] - |same|; opposite-colored neighbors
    keep theirs.  So the node is pruned when ``same`` meets a vertex of
    slack 0 or |same| > half[v], and v adds its other earlier edges to the
    balanced ones.

    Vertices of slack at least 1 form ``live`` and hold slack - 1 bit-sliced:
    bit w of plane i is bit i of w's slack - 1 (half[w] - 1 while unplaced).
    One borrow chain over the planes lowers all of ``same`` at once, and the
    borrow out of the top plane is the set that reached 0 and leaves
    ``live``.  Each depth keeps its own planes, so backtracking undoes nothing.
    """
    n = g.vertex_count
    if n == 0:
        yield (), 0
        return
    adj = adjacency_masks(g)
    half = [len(nbrs) // 2 for nbrs in g.adjacency]
    failing = failing_vertices(g)
    earlier = [a & ((1 << v) - 1) for v, a in enumerate(adj)]
    earlier_count = [e.bit_count() for e in earlier]
    width = max(max(half) - 1, 0).bit_length()
    # Index d: the state once vertices 0..d-1 are placed.
    planes = [[sum(1 << w for w in range(n) if half[w] and (half[w] - 1) >> i & 1)
               for i in range(width)]] * n
    live = [sum(1 << w for w in range(n) if half[w])] * n
    balanced = [0] * n
    colors = [-1] * n  # -1: not tried yet; otherwise the color in force
    white = 0          # bitmask of white vertices
    last = n - 1
    v = 0
    while True:
        color = colors[v]
        if color == WHITE:
            white ^= 1 << v
            colors[v] = -1
            if v == 0:
                return
            v -= 1
            continue
        color += 1  # BLACK (0) first, then WHITE (1)
        colors[v] = color
        if color == WHITE:
            white |= 1 << v
            same = earlier[v] & white
        else:
            same = earlier[v] & ~white
        if same & ~live[v]:
            continue
        k = same.bit_count()
        if k > half[v]:
            continue
        mix = balanced[v] + earlier_count[v] - k
        if v < last:
            level, nonzero = planes[v], live[v]
            if k:
                rest = half[v] - k
                bit = 1 << v
                # v's bits go from half[v] - 1 to rest - 1 (unread once rest is 0).
                own = ((half[v] - 1) ^ (rest - 1)) << v
                borrow, level = same, level[:]
                for i in range(width):
                    plane = level[i]
                    level[i] = plane ^ borrow ^ (own >> i & bit)
                    borrow &= ~plane
                nonzero &= ~borrow
                if not rest:
                    nonzero ^= bit
            v += 1
            planes[v], live[v], balanced[v] = level, nonzero, mix
            continue
        if not failing(white):
            yield tuple(colors), mix


def enumerate_integrated(g: Graph, cap: int | None = None) -> Iterator[Coloring]:
    """Yield every integrated coloring exactly once, in lexicographic order."""
    _check_cap(g.vertex_count, cap)
    for coloring, _ in _search(g):
        yield coloring


class MixHistogram(NamedTuple):
    """Exact distribution of mixing numbers over all integrated colorings.

    ``counts`` maps each realized mix, ascending, to its number of colorings,
    zero counts left out; ``masses`` divides them by ``ic``."""

    counts: dict[int, int]

    @property
    def ic(self) -> int:
        return sum(self.counts.values())

    @property
    def masses(self) -> dict[int, Fraction]:
        ic = self.ic
        return {mix: Fraction(c, ic) for mix, c in self.counts.items()}

    @property
    def ims(self) -> tuple[int, ...]:
        return tuple(self.counts)

    @property
    def ims_min(self) -> int:
        return self.ims[0]

    @property
    def ims_max(self) -> int:
        return self.ims[-1]


def mix_histogram(g: Graph, cap: int | None = None) -> MixHistogram:
    """Histogram of mix(C) over the full enumeration of integrated colorings.

    Swapping the two colors maps integrated colorings to integrated ones and
    keeps every edge's balance, so only the first half in lexicographic
    order, the colorings with vertex 0 black, is searched and then doubled.
    """
    _check_cap(g.vertex_count, cap)
    if g.vertex_count == 0:
        return MixHistogram({0: 1})
    first_half = takewhile(lambda found: found[0][0] == BLACK, _search(g))
    counter: Counter[int] = Counter(mix for _, mix in first_half)
    return MixHistogram({mix: 2 * count for mix, count in sorted(counter.items())})


# Largest number of frontier states the DP may hold at once, bounded before it
# starts (``_frontier_order``).  Past it the search is the cheaper engine.
FRONTIER_STATE_BUDGET = 1 << 16


def exact_histogram(g: Graph, cap: int | None = None) -> MixHistogram:
    """The histogram of ``mix_histogram``, from the cheapest exact engine.

    Complete graphs and bicliques are answered by their closed forms, graphs
    with a narrow vertex order by the frontier DP, and every other graph by
    the search.  The cap applies to all three, so it keeps its meaning.
    """
    _check_cap(g.vertex_count, cap)
    counts = _closed_form_counts(g)
    if counts is None:
        order = _frontier_order(g)
        if order is None:
            return mix_histogram(g, cap)
        counts = _frontier_counts(g, order)
    return MixHistogram(dict(sorted(counts.items())))


def _closed_form_counts(g: Graph) -> dict[int, int] | None:
    """The mix counts of K_n or K_{a,b} from ``families``, else None.

    It is K_{a,b} exactly when B = N(0) is non-empty, every vertex outside B
    has neighbourhood B, and every vertex of B has the rest as neighbourhood.
    """
    from .families import ic_biclique, ic_complete  # families imports this module

    n, adjacency = g.vertex_count, g.adjacency
    if n >= 1 and 2 * g.edge_count == n * (n - 1):
        count, mix = ic_complete(n)
        return {mix: count}
    b_side = adjacency[0] if n else frozenset()
    a_side = frozenset(range(n)) - b_side
    if (b_side and all(adjacency[v] == b_side for v in a_side)
            and all(adjacency[v] == a_side for v in b_side)):
        return ic_biclique(len(b_side), len(a_side))[1]
    return None


def _frontier_order(g: Graph) -> list[int] | None:
    """The greedy minimum-frontier order, in O(m log n), or None as soon as
    the bound on the DP's states along it passes ``FRONTIER_STATE_BUDGET``.

    The frontier after placing a prefix of the order is the set of placed
    vertices with an unplaced neighbor.  Next comes the frontier's neighbor
    that leaves it smallest, the lower id on a tie, or a vertex of least
    degree when the frontier is empty.  Scores only fall, so a candidate's
    newest heap entry is its lowest; older ones surface after it is placed.
    The bound is the product, over the frontier, of 2 colors times the values
    still possible for how many more opposite neighbors the vertex needs.
    Placing v changes only the factors of v and its placed neighbors.
    """
    adjacency = g.adjacency
    half = [(len(nbrs) + 1) // 2 for nbrs in adjacency]
    unplaced = [len(nbrs) for nbrs in adjacency]
    placed = [False] * g.vertex_count
    closes = [0] * g.vertex_count  # placed vertices whose last unplaced neighbor is v
    starts = iter(sorted(range(g.vertex_count), key=lambda v: (unplaced[v], v)))
    heap: list[tuple[int, int]] = []
    order: list[int] = []
    states = 1

    def push(v: int) -> None:
        heapq.heappush(heap, ((unplaced[v] > 0) - closes[v], v))

    def factor(u: int) -> int:
        return 2 * (min(half[u], unplaced[u]) + 1) if unplaced[u] else 1

    for _ in range(g.vertex_count):
        while heap and placed[heap[0][1]]:
            heapq.heappop(heap)
        v = heapq.heappop(heap)[1] if heap else next(u for u in starts if not placed[u])
        order.append(v)
        placed[v] = True
        for w in adjacency[v]:
            if placed[w]:
                states //= factor(w)
                unplaced[w] -= 1
                states *= factor(w)
            else:
                unplaced[w] -= 1
                push(w)
        states *= factor(v)
        if states > FRONTIER_STATE_BUDGET:
            return None
        for u in (v, *adjacency[v]):
            if placed[u] and unplaced[u] == 1:
                last = next(w for w in adjacency[u] if not placed[w])
                closes[last] += 1
                push(last)
    return order


def _frontier_counts(g: Graph, order: list[int]) -> dict[int, int]:
    """Count integrated colorings by mix with a DP over the frontier of ``order``.

    A state packs one field per frontier vertex into an int: its color in the
    low bit and, above it, how many more opposite neighbors it needs to reach
    ceil(deg/2).  Each vertex holds a slot from when it is placed until its
    last neighbor is; free slots read 0.  A branch dies as soon as some vertex
    needs more than it has unplaced neighbors left.  Each state's counts by
    mix are packed into one int too, ``digit`` bits per mix value (counts stay
    below 2^(n+1)), so placing a vertex that gains k balanced edges shifts the
    whole polynomial by k*digit bits and merging two states is one addition.
    A vertex placed while the frontier is empty starts components that share
    no edge with the placed part, so swapping all their colors is a bijection:
    it is placed black only, and the counts are doubled at the end.
    """
    adjacency = g.adjacency
    half = [(len(nbrs) + 1) // 2 for nbrs in adjacency]
    unplaced = [len(nbrs) for nbrs in adjacency]
    field = 1 + max(half, default=0).bit_length()
    field_mask = (1 << field) - 1
    digit = 8 * (g.vertex_count // 8 + 1)
    slot: dict[int, int] = {}  # frontier vertex -> bit offset of its field
    free: list[int] = []
    doublings = 0
    states = {0: 1}
    for v in order:
        colors = (BLACK, WHITE) if slot else (BLACK,)
        doublings += not slot
        placed_nbrs = []  # (bit offset, unplaced neighbors left) per frontier neighbor
        for w in adjacency[v]:
            unplaced[w] -= 1
            if w in slot:
                placed_nbrs.append((slot[w], unplaced[w]))
                if not unplaced[w]:
                    free.append(slot.pop(w))
        left = unplaced[v]
        if left:
            slot[v] = free.pop() if free else field * len(slot)
        v_offset = slot.get(v, 0)
        nbr_mask = sum(field_mask << offset for offset, _ in placed_nbrs)

        def moves(proj: int) -> list[tuple[int, int]]:
            """(new fields, polynomial shift) for each viable color of v."""
            out = []
            for color in colors:
                fields = gained = 0
                for offset, rest in placed_nbrs:
                    value = (proj >> offset) & field_mask
                    need = value >> 1
                    if value & 1 != color:
                        gained += 1
                        need = max(need - 1, 0)
                    if need > rest:
                        break
                    if rest:
                        fields |= (value & 1 | need << 1) << offset
                else:
                    need = max(half[v] - gained, 0)
                    if need <= left:
                        if left:
                            fields |= (color | need << 1) << v_offset
                        out.append((fields, gained * digit))
            return out

        table: dict[int, list[tuple[int, int]]] = {}
        placed: dict[int, int] = {}
        get = placed.get
        for state, poly in states.items():
            proj = state & nbr_mask
            options = table.get(proj)
            if options is None:
                options = table[proj] = moves(proj)
            rest_of_state = state ^ proj
            for fields, shift in options:
                key = rest_of_state | fields
                placed[key] = get(key, 0) + (poly << shift)
        states = placed
    poly = states.get(0, 0)
    step = digit // 8
    data = poly.to_bytes(-(-poly.bit_length() // 8), "little")
    counts = {}
    for mix, start in enumerate(range(0, len(data), step)):
        count = int.from_bytes(data[start:start + step], "little")
        if count:
            counts[mix] = count << doublings
    return counts


def _max_cut_splits(g: Graph) -> tuple[int, int, list[int]]:
    """The max-cut size, the mask of the splits that reach it, and the splits'
    columns (bit d of ``columns[v]`` is set when split d puts v white).

    Complement splits cut the same edges, so the 2^(n-1) splits keep vertex
    n-1 black.  The edges' difference columns are summed into bit-sliced
    planes of each split's cut size; from the top plane down, the splits kept
    are those with the plane's bit set, whenever any are.
    """
    _check_cap(g.vertex_count, None)
    n = g.vertex_count
    columns = truth_columns(n - 1) + [0] if n else []
    planes = bit_sliced_sum(columns[u] ^ columns[v] for u, v in g.edges())
    best, splits = 0, (1 << (1 << max(n - 1, 0))) - 1
    for i in reversed(range(len(planes))):
        if top := splits & planes[i]:
            best, splits = best | 1 << i, top
    return best, splits, columns


def max_cut(g: Graph) -> int:
    """Exact max-cut size by exhausting all 2^(n-1) splits."""
    _check_cap(g.vertex_count, None)
    return _max_cut_splits(g)[0] if g.edge_count else 0


def propp_local_search(g: Graph, start: Coloring) -> tuple[Coloring, int]:
    """Flip the lowest-indexed non-integrated vertex until none remains.

    Every flip strictly increases the number of balanced edges, so the
    procedure stops after at most edge_count flips and the result is
    integrated.
    """
    if len(start) != g.vertex_count:
        raise ValueError("coloring length does not match vertex count")
    failing = failing_vertices(g)
    white = sum(1 << v for v, color in enumerate(start) if color == WHITE)
    flips = 0
    while bad := failing(white):
        white ^= bad & -bad
        flips += 1
    return tuple((white >> v) & 1 for v in range(g.vertex_count)), flips
