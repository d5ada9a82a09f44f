"""Immutable simple graphs, two-colorings, and their mixing statistics.

A coloring assigns one of two colors to every vertex.  An edge is balanced
when its endpoints differ; the mixing number of a vertex counts its balanced
incident edges, and a vertex is integrated when at least half of its incident
edges are balanced.  These are the primitives everything else builds on.
``failing_vertices`` tests one coloring on bitmasks; ``integrated_columns``
tests every assignment of an exhaustive walk at once, on truth-table columns
(bit d of a vertex's column is its color in assignment d) with bit-sliced
neighbour counts.  The set-based ``is_integrated`` is the reference for both.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable

BLACK = 0
WHITE = 1

# A coloring is a tuple of BLACK/WHITE values, one per vertex.
Coloring = tuple[int, ...]


class SelfLoopError(ValueError):
    """Raised when an edge joins a vertex to itself."""


@dataclass(frozen=True)
class Graph:
    """Finite simple graph with dense 0-based vertex ids.

    ``adjacency[v]`` is the frozen set of neighbors of ``v``.  Instances are
    immutable and safe to share across threads.
    """

    adjacency: tuple[frozenset[int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def mutual_degree(self, v: int, w: int) -> int:
        """Number of common neighbors of ``v`` and ``w``."""
        return len(self.adjacency[v] & self.adjacency[w])

    def max_degree(self) -> int:
        return max((len(n) for n in self.adjacency), default=0)

    def min_degree(self) -> int:
        return min((len(n) for n in self.adjacency), default=0)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.vertex_count) for v in sorted(self.adjacency[u]) if u < v]

    def is_regular(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        degs = {len(n) for n in self.adjacency}
        return degs.pop() if len(degs) == 1 else None


def build_graph(edges: Iterable[tuple[int, int]], vertex_count: int | None = None) -> Graph:
    """Build a Graph from an edge list, collapsing duplicates.

    Rejects self-loops, vertex ids outside ``range(vertex_count)`` and vertex
    counts past ``sys.maxsize``.  When ``vertex_count`` is omitted it is
    inferred as one past the largest id.
    """
    edge_list = list(edges)
    if vertex_count is None:
        vertex_count = 1 + max((max(u, v) for u, v in edge_list), default=-1)
    if vertex_count < 0:
        raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
    if vertex_count > sys.maxsize:
        # Checked before the neighbor list exists: building it would only end
        # when memory runs out.
        raise ValueError(f"vertex count {vertex_count} exceeds the largest list size {sys.maxsize}")
    nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edge_list:
        if u == v:
            raise SelfLoopError(f"self-loop ({u}, {v}) is not allowed in a simple graph")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) out of range for vertex_count={vertex_count}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(tuple(frozenset(s) for s in nbrs))


# ---------------------------------------------------------------------------
# Coloring helpers
# ---------------------------------------------------------------------------

_CHAR_TO_COLOR = {"B": BLACK, "W": WHITE, "0": BLACK, "1": WHITE}


def coloring_from_string(s: str) -> Coloring:
    """Parse a coloring from a string of B/W (or 0/1) characters."""
    try:
        return tuple(_CHAR_TO_COLOR[ch] for ch in s.strip())
    except KeyError as exc:
        raise ValueError(f"invalid color character {exc.args[0]!r}") from None


def coloring_to_string(c: Coloring, alphabet: str = "01") -> str:
    return "".join(alphabet[color] for color in c)


def mix_of_vertex(g: Graph, c: Coloring, v: int) -> int:
    """Number of neighbors of ``v`` colored opposite to ``v``."""
    cv = c[v]
    return sum(1 for w in g.adjacency[v] if c[w] != cv)


def mix_of_coloring(g: Graph, c: Coloring) -> int:
    """Number of balanced edges, i.e. edges with differently colored ends."""
    return sum(1 for u in range(g.vertex_count) for w in g.adjacency[u] if u < w and c[u] != c[w])


def is_integrated(g: Graph, c: Coloring) -> tuple[bool, list[int]]:
    """Whether every vertex has mix(v) >= deg(v)/2; also the failing vertices.

    Isolated vertices pass vacuously.
    """
    if len(c) != g.vertex_count:
        raise ValueError("coloring length does not match vertex count")
    failing = [v for v in range(g.vertex_count) if 2 * mix_of_vertex(g, c, v) < g.degree(v)]
    return (not failing, failing)


def adjacency_masks(g: Graph) -> list[int]:
    """Adjacency as bitmasks: bit w of ``masks[v]`` is set when v ~ w."""
    return [sum(1 << w for w in nbrs) for nbrs in g.adjacency]


def failing_vertices(g: Graph) -> Callable[[int], int]:
    """The integration test for ``g``: maps the bitmask of white vertices to the
    bitmask of vertices with more same-colored than opposite neighbors."""
    rows = [(mask, mask.bit_count() // 2, 1 << v) for v, mask in enumerate(adjacency_masks(g)) if mask]

    def failing(white: int) -> int:
        black = ~white
        bad = 0
        for mask, half, bit in rows:
            if (mask & (white if white & bit else black)).bit_count() > half:
                bad |= bit
        return bad

    return failing


def truth_columns(k: int) -> list[int]:
    """The 2^k assignments of k bits as columns: bit d of column i is bit i of d."""
    columns: list[int] = []
    size = 1
    for _ in range(k):
        columns = [c | c << size for c in columns]
        columns.append(((1 << size) - 1) << size)
        size <<= 1
    return columns


def bit_sliced_sum(columns: Iterable[int]) -> list[int]:
    """Planes of the column sum: bit d of plane i is bit i of how many columns
    have bit d set."""
    planes: list[int] = []
    for carry in columns:
        i = 0
        while carry:
            if i == len(planes):
                planes.append(0)
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            i += 1
    return planes


def integrated_columns(g: Graph, columns: list[int], full: int) -> list[int]:
    """Every assignment's integration test at once, on truth-table columns.

    Bit d of ``columns[v]`` is v's color in assignment d, and ``full`` has a
    bit per assignment to test.  On those bits, bit d of entry v of the result
    is set when v is integrated in assignment d: at least ceil(deg/2) of its
    neighbours' colors differ from its own, i.e. at most floor(deg/2) match.
    """
    integrated = []
    for v, nbrs in enumerate(g.adjacency):
        planes = bit_sliced_sum(columns[v] ^ columns[w] for w in nbrs)
        need = (len(nbrs) + 1) // 2
        # After step i, bit d is set where the count's bits 0..i read >= need's.
        at_least = full
        for i in range(max(len(planes), need.bit_length())):
            plane = planes[i] if i < len(planes) else 0
            at_least = plane & at_least if need >> i & 1 else plane | at_least
        integrated.append(at_least)
    return integrated


# ---------------------------------------------------------------------------
# Neighborhood statistics used by the second-moment bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeighborhoodStats:
    """Pendant/non-pendant structure of a graph.

    ``v_prime`` is the set of non-pendant vertices, ``lam[v]`` counts the
    non-pendant neighbors of ``v``, and ``v_double_prime`` is the subset of
    ``v_prime`` where that count exceeds half the degree.
    """

    pendants: frozenset[int]
    v_prime: frozenset[int]
    v_double_prime: frozenset[int]
    lam: tuple[int, ...]


def neighborhood_stats(g: Graph) -> NeighborhoodStats:
    n = g.vertex_count
    pendants = frozenset(v for v in range(n) if g.degree(v) == 1)
    v_prime = frozenset(v for v in range(n) if v not in pendants)
    lam = tuple(sum(1 for w in g.adjacency[v] if w not in pendants) for v in range(n))
    v_double_prime = frozenset(v for v in v_prime if 2 * lam[v] > g.degree(v))
    return NeighborhoodStats(pendants, v_prime, v_double_prime, lam)


@dataclass(frozen=True)
class SrgParams:
    """Parameters (n, r, lambda, lambda') of a strongly regular graph."""

    n: int
    r: int
    lambda_adj: int
    lambda_nonadj: int


def detect_srg(g: Graph) -> SrgParams | None:
    """Detect strong regularity by exhaustive pair scan.

    Returns parameters only when the graph is regular, every adjacent pair
    shares the same number of common neighbors, and every non-adjacent pair
    likewise.  Both pair classes must be non-empty so that both counts are
    witnessed; complete and edgeless graphs therefore return None.
    """
    r = g.is_regular()
    if r is None:
        return None
    n = g.vertex_count
    common_by_class: dict[bool, int] = {}  # adjacency -> common neighbors first seen
    for v in range(n):
        for w in range(v + 1, n):
            common = g.mutual_degree(v, w)
            if common_by_class.setdefault(g.has_edge(v, w), common) != common:
                return None
    if len(common_by_class) < 2:
        return None
    return SrgParams(n, r, common_by_class[True], common_by_class[False])


# ---------------------------------------------------------------------------
# Connectivity utilities
# ---------------------------------------------------------------------------


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, in id order."""
    seen = [False] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``vertices`` with dense relabeling.

    Returns the subgraph and the list mapping new ids to original ids.
    """
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    adj = tuple(frozenset(index[w] for w in g.adjacency[v] if w in index) for v in keep)
    return Graph(adj), keep


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a simple cycle needs at least three vertices")
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def biclique_graph(m: int, n: int) -> Graph:
    """Complete bipartite graph with parts 0..m-1 and m..m+n-1."""
    if m < 1 or n < 1:
        raise ValueError("both parts must be non-empty")
    return build_graph([(i, m + j) for i in range(m) for j in range(n)], m + n)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(outer + inner + spokes, 10)


def cube_graph() -> Graph:
    """The 3-dimensional hypercube (vertices are 3-bit ids)."""
    edges = [(v, v ^ (1 << b)) for v in range(8) for b in range(3) if v < v ^ (1 << b)]
    return build_graph(edges, 8)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    One edge per line as two whitespace-separated 0-based ids.  Lines starting
    with '#' and blank lines are ignored.  An optional first significant line
    ``n <count>`` fixes the vertex count; otherwise it is one past the largest
    id seen.  Malformed lines raise ValueError naming the line number.
    """
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    significant_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if significant_seen:
                raise ValueError(f"line {lineno}: header 'n <count>' must come first")
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                vertex_count = int(tokens[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer vertex count {tokens[1]!r}") from None
            if vertex_count < 0:
                raise ValueError(f"line {lineno}: negative vertex count")
            significant_seen = True
            continue
        significant_seen = True
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop ({u}, {v})")
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id in {line!r}")
        if vertex_count is not None and (u >= vertex_count or v >= vertex_count):
            raise ValueError(f"line {lineno}: vertex id out of range for n {vertex_count}")
        edges.append((u, v))
    return build_graph(edges, vertex_count)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph to the edge-list text format with an 'n' header."""
    lines = [f"n {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
