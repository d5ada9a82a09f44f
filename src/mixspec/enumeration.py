"""Exhaustive enumeration of integrated colorings for arbitrary graphs.

This module is the brute-force oracle that validates the closed-form counts,
distributions, and bounds elsewhere in the package.  One iterative search
kernel, ``_search``, serves ``enumerate_integrated`` and ``mix_histogram``.
Its explicit stack is the ``colors`` list, so depth is bounded by memory,
not by Python's recursion limit: a raised cap can go well past 1000 vertices
on graphs whose search stays small.  Every leaf passes a guard that ignores
the search's incremental counters and recomputes each vertex's mix from
bitmasks, so a pruning bug could cost time but never emit a wrong coloring.
``max_cut`` walks the 2^(n-1) splits in Gray-code order (``_gray_cuts``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .graph import BLACK, WHITE, Coloring, Graph

DEFAULT_VERTEX_CAP = 24


class CapExceededError(ValueError):
    """Raised when a graph is too large for exhaustive search."""


def _check_cap(g: Graph, cap: int | None) -> None:
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if g.vertex_count > limit:
        raise CapExceededError(
            f"graph has {g.vertex_count} vertices; exhaustive enumeration is capped at {limit}"
        )


def _masks(g: Graph) -> list[int]:
    """Adjacency as bitmasks: bit w of ``masks[v]`` is set when v ~ w."""
    return [sum(1 << w for w in nbrs) for nbrs in g.adjacency]


def _search(g: Graph) -> Iterator[tuple[Coloring, int]]:
    """Yield every integrated coloring with its mixing number, lexicographically.

    A partial assignment is pruned as soon as some assigned vertex v can no
    longer reach mix(v) >= deg(v)/2 even if all its unassigned neighbors turn
    out opposite.  Unassigned vertices can always pick the minority color of
    their already-assigned neighbors, so only the vertex just assigned and
    its earlier neighbors need the test.
    """
    n = g.vertex_count
    if n == 0:
        yield (), 0
        return
    adj = _masks(g)
    deg = [len(nbrs) for nbrs in g.adjacency]
    earlier = [[w for w in nbrs if w < v] for v, nbrs in enumerate(g.adjacency)]
    later = [[w for w in nbrs if w > v] for v, nbrs in enumerate(g.adjacency)]
    full = (1 << n) - 1
    colors = [-1] * n  # -1: not tried yet; otherwise the color in force
    opp = [0] * n      # opposite-colored neighbors, counted once both ends are set
    seen = [0] * n     # assigned neighbors
    white = 0          # bitmask of white vertices
    balanced = 0       # balanced edges among assigned vertices
    last = n - 1
    v = 0
    while True:
        color = colors[v]
        if color >= 0:  # undo the assignment in force at v
            for w in later[v]:
                seen[w] -= 1
            for w in earlier[v]:
                seen[w] -= 1
                if colors[w] != color:
                    opp[w] -= 1
            balanced -= opp[v]
            opp[v] = 0
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
        for w in later[v]:
            seen[w] += 1
        gained = 0
        viable = True
        for w in earlier[v]:
            seen[w] += 1
            if colors[w] != color:
                opp[w] += 1
                gained += 1
            if 2 * (opp[w] + deg[w] - seen[w]) < deg[w]:
                viable = False
        opp[v] = gained
        balanced += gained
        if not viable or 2 * (gained + deg[v] - seen[v]) < deg[v]:
            continue
        if v < last:
            v += 1
            continue
        black = full ^ white
        for cw, a, d in zip(colors, adj, deg):
            if 2 * (a & (black if cw else white)).bit_count() < d:
                break
        else:
            yield tuple(colors), balanced


def enumerate_integrated(g: Graph, cap: int | None = None) -> Iterator[Coloring]:
    """Yield every integrated coloring exactly once, in lexicographic order."""
    _check_cap(g, cap)
    for coloring, _ in _search(g):
        yield coloring


@dataclass(frozen=True)
class MixHistogram:
    """Exact distribution of mixing numbers over all integrated colorings."""

    counts: dict[int, int]

    @property
    def ic(self) -> int:
        return sum(self.counts.values())

    @property
    def ims(self) -> tuple[int, ...]:
        return tuple(sorted(k for k, c in self.counts.items() if c > 0))

    @property
    def ims_min(self) -> int:
        return self.ims[0]

    @property
    def ims_max(self) -> int:
        return self.ims[-1]


def mix_histogram(g: Graph, cap: int | None = None) -> MixHistogram:
    """Histogram of mix(C) over the full enumeration of integrated colorings."""
    _check_cap(g, cap)
    counter: Counter[int] = Counter(mix for _, mix in _search(g))
    return MixHistogram(dict(sorted(counter.items())))


def _gray_cuts(g: Graph) -> Iterator[tuple[int, int]]:
    """Yield ``(white_mask, cut)`` for every split with vertex n-1 black.

    Complement splits give the same cut, so fixing one vertex halves the
    walk.  Masks come in Gray-code order: flipping v turns its ``same``
    same-colored edges into cut edges and its other edges into uncut ones.
    """
    adj = _masks(g)
    deg = [len(nbrs) for nbrs in g.adjacency]
    white = cut = 0
    yield white, cut
    for i in range(1, 1 << max(g.vertex_count - 1, 0)):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        same = (adj[v] & (white if white & bit else ~white)).bit_count()
        cut += 2 * same - deg[v]
        white ^= bit
        yield white, cut


def max_cut(g: Graph, cap: int | None = None) -> int:
    """Exact max-cut size by exhausting all 2^(n-1) splits."""
    _check_cap(g, cap)
    if g.edge_count == 0:
        return 0
    return max(cut for _, cut in _gray_cuts(g))


def propp_local_search(g: Graph, start: Coloring) -> tuple[Coloring, int]:
    """Flip the lowest-indexed non-integrated vertex until none remains.

    Every flip strictly increases the number of balanced edges, so the
    procedure stops after at most edge_count flips and the result is
    integrated.
    """
    if len(start) != g.vertex_count:
        raise ValueError("coloring length does not match vertex count")
    colors = list(start)
    flips = 0
    while True:
        for v in range(g.vertex_count):
            cv = colors[v]
            mix = sum(1 for w in g.adjacency[v] if colors[w] != cv)
            if 2 * mix < g.degree(v):
                colors[v] = WHITE if cv == BLACK else BLACK
                flips += 1
                break
        else:
            return tuple(colors), flips
