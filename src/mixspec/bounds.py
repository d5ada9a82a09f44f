"""Second-moment upper bounds on the number of integrated colorings, the
exhaustive semi-random-coloring oracle that validates their moments, and the
classical extremal inequalities for the mixing spectrum.

The bound considers a semi-random coloring: every non-pendant vertex gets an
independent fair color and every pendant is forced opposite its neighbor.
Only vertices with more non-pendant neighbors than half their degree (the set
V'') can fail to be integrated; X counts how many of them succeed, and the
one-sided Chebyshev inequality applied to Pr[X = |V''|] yields

    ic(G) <= sigma^2 / (sigma^2 + (|V''| - mu)^2) * 2^{|V'|}.

All four variants share this one finishing formula.  The min-degree, regular
and strongly regular ones differ from the general bound only in the closed-form
mu and, for strongly regular graphs, the V'' pair total; ``verify``'s
specialized-bounds check cross-checks them against the general bound.

The pair total sum_{v != w} E[I_v I_w] is sparse: I_v depends only on the
colors of N[v] ∩ V', so V'' vertices at distance >= 3 are independent and
E[I_v I_w] = p_v p_w.  Only pairs within distance 2 need the joint
probability ``alpha``, found by a two-hop walk from each V'' vertex, and
``_moments`` evaluates it on one pair per local type of pair.

The oracle's ``census`` tests all 2^{|V'|} semi-random draws at once with
``graph.integrated_columns`` on truth-table columns (reference: the per-draw
walks of the tests), keeping each V'' vertex's mask of the draws that
integrate it; both oracles are popcounts of those masks and of their pairwise
ANDs.  Swapping both colors complements a draw and keeps its failing set, so
the census takes only the half of the draws where the top vertex of V' is
black.  ``verify`` takes one census per graph and hands it to both.

An isolated vertex lies in V' (it is not a pendant) and never in V'': it
doubles 2^{|V'|} and the count alike, and leaves mu and sigma^2 unchanged, so
every computation runs on the input graph's own vertex ids.

All arithmetic is exact rational.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, isqrt
from operator import and_
from typing import NamedTuple

from .graph import (
    Graph,
    NeighborhoodStats,
    detect_srg,
    integrated_columns,
    is_connected,
    neighborhood_stats,
    truth_columns,
)

ORACLE_CAP = 22
Census = tuple[dict[int, int], int]  # each V'' vertex's integrated-draw mask, and the draw count


class InapplicableError(ValueError):
    """Raised when a graph violates a bound's hypotheses."""


def alpha(g: Graph, stats: NeighborhoodStats, v: int, w: int, i: int, j: int) -> Fraction:
    """Joint integration probability of v and w in a semi-random coloring,
    conditioned on whether they differ in color (i) and are adjacent (j).

    Summing binomial choices over the common non-pendant neighborhood (a),
    the rest of v's (b) and w's (c) non-pendant neighborhoods:

        sum C(lvw, a) C(lv - lvw - j, b) C(lw - lvw - j, c) / 2^(lv+lw-lvw-2j)

    restricted to a + b >= lv - deg(v)/2 - ij and
    i*lvw + (-1)^i a + c >= lw - deg(w)/2 - ij: the least b and c step by -1
    and -(-1)^i per a, and the sums over b and c are tails of binomials.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("i and j must be 0 or 1")
    if v == w:
        raise ValueError("need two distinct vertices")
    vpp, nv, nw = stats.v_double_prime, g.adjacency[v], g.adjacency[w]
    if v not in vpp or w not in vpp:
        raise InapplicableError("both vertices must lie in V''")
    if j != (w in nv):
        raise ValueError("j must match the actual adjacency of the pair")
    lv, lw, lvw = stats.lam[v], stats.lam[w], len(nv & nw)
    b_top, c_top = lv - lvw - j, lw - lvw - j
    # The least b and c at a = 0: x >= t - deg/2  <=>  x >= t - floor(deg/2).
    b_min, c_min = lv - i * j - len(nv) // 2, lw - i * (j + lvw) - len(nw) // 2
    step = 1 if i else -1
    b_tail = _tail_sums(b_top)
    c_tail = b_tail if c_top == b_top else _tail_sums(c_top)
    total = 0
    for a in range(lvw + 1):
        if b_min <= b_top and c_min <= c_top:
            b_sum = b_tail[b_min if b_min > 0 else 0]
            total += comb(lvw, a) * b_sum * c_tail[c_min if c_min > 0 else 0]
        b_min -= 1
        c_min += step
    return Fraction(total, 1 << (lv + lw - lvw - 2 * j))


def _tail_sums(top: int) -> list[int]:
    """``tail[k]`` = sum of C(top, x) over x >= k: 2^top less those below k."""
    tail = [1 << top]
    for k in range(top):
        tail.append(tail[-1] - comb(top, k))
    return tail


def _moments(g: Graph, stats: NeighborhoodStats) -> tuple[Fraction, Fraction]:
    """mu = sum of p_v = Pr[v is integrated] over V'', and the pair total
    sum_{v != w} E[I_v I_w].

    v is integrated when at least lambda(v) - deg(v)/2 of its lambda(v) fair
    non-pendant neighbors take the other color (its pendants always do), so
    p_v depends only on v's kind (lambda(v), deg v).  Pairs at distance >= 3
    contribute 2 p_v p_w, so

        total = (mu^2 - sum p_v^2) + sum_{v<w, dist <= 2} (alpha_0 + alpha_1 - 2 p_v p_w)

    where a term depends only on the pair's type (both kinds, lambda_vw, j):
    ``alpha`` runs on the first pair of each type, and the term counts once
    per pair.  Each p_v is an integer over 2^top, top = max lambda over V'',
    and each term one over 2^(2 top).
    """
    adjacency, vpp = g.adjacency, stats.v_double_prime
    kind = {v: (stats.lam[v], len(adjacency[v])) for v in vpp}
    kinds = Counter(kind.values())
    top = max(lv for lv, _ in kinds)
    p = {(lv, d): _tail_sums(lv)[(2 * lv - d + 1) // 2] << (top - lv) for lv, d in kinds}
    mu = sum(c * p[k] for k, c in kinds.items())
    types: dict[tuple, list[int]] = {}  # pair count and first pair of each type
    for v in vpp:
        for w in adjacency[v].union(*(adjacency[u] for u in adjacency[v])):
            if w > v and w in vpp:
                j = int(w in adjacency[v])
                key = kind[v], kind[w], len(adjacency[v] & adjacency[w]), j
                types.setdefault(key, [0, v, w])[0] += 1
    bits = 2 * top
    total = mu * mu - sum(c * p[k] ** 2 for k, c in kinds.items())
    for (kind_v, kind_w, _, j), (count, v, w) in types.items():
        a0 = _scaled(alpha(g, stats, v, w, 0, j), bits)
        a1 = _scaled(alpha(g, stats, v, w, 1, j), bits)
        total += count * (a0 + a1 - 2 * p[kind_v] * p[kind_w])
    return Fraction(mu, 1 << top), Fraction(total, 1 << bits)


def _scaled(x: Fraction, bits: int) -> int:
    """x * 2^bits for a dyadic x whose denominator divides 2^bits."""
    return x.numerator << (bits + 1 - x.denominator.bit_length())


class BoundReport(NamedTuple):
    """Outcome of one upper-bound computation.

    ``upper_bound`` is on the 2^{|V'|} scale of the whole input graph (any
    isolated vertices contribute their factor 2 each).  ``exact`` marks the
    degenerate V'' = empty case where the bound is the exact count.
    """

    variant: str
    applicable: bool
    reason: str
    v_prime_size: int = 0
    v_double_prime_size: int = 0
    isolated_count: int = 0
    mu: Fraction = Fraction(0)
    sigma_sq: Fraction = Fraction(0)
    upper_bound: Fraction = Fraction(0)
    exact: bool = False


def _finish(
    variant: str, mu: Fraction, pair_total: Fraction, vpp: int, v_prime: int, isolated: int = 0
) -> BoundReport:
    """The one-sided Chebyshev bound that every variant ends in.

    ``pair_total`` is sum_{v != w} E[I_v I_w] over V'', so sigma^2 = E[X^2] - mu^2
    = mu + pair_total - mu^2; the bound is scaled to 2^{|V'|}.  ``isolated``
    only fills the report's ``isolated_count``.
    """
    sigma_sq = mu + pair_total - mu * mu
    gap = vpp - mu
    upper = sigma_sq / (sigma_sq + gap * gap) * (1 << v_prime)
    return BoundReport(variant, True, "", v_prime, vpp, isolated, mu, sigma_sq, upper)


def _rejection(g: Graph) -> str | None:
    """Reason the semi-random construction cannot run, or None if it can."""
    # Isolated vertices add no edge, no degree and only one-vertex components.
    if g.edge_count == 0:
        return "graph has no edges (the count is exactly 2^|V|)"
    if g.max_degree() < 2:
        return "maximum degree below 2: the graph is a union of disjoint edges"
    # A two-vertex component is an edge whose ends both have degree 1.
    adj = g.adjacency
    k2 = sum(len(nbrs) == 1 and len(adj[min(nbrs)]) == 1 for nbrs in adj) // 2
    if k2:
        return (
            f"{k2} two-vertex component(s): both endpoints are pendant, so forcing "
            "pendants opposite their neighbors is circular (each such component "
            "contributes an exact factor 2)"
        )
    return None


def bound_general(g: Graph) -> BoundReport:
    """The second-moment upper bound for any simple graph with max degree >= 2.

    Isolated vertices lie in V' but never in V'': each doubles 2^{|V'|} and
    leaves mu and sigma^2 unchanged, which is also the exact factor 2 it adds
    to the count.  ``isolated_count`` reports how many there are.
    """
    reason = _rejection(g)
    if reason is not None:
        return BoundReport("general", False, reason)
    iso = sum(1 for nbrs in g.adjacency if not nbrs)
    stats = neighborhood_stats(g)
    vp = len(stats.v_prime)
    vpp = len(stats.v_double_prime)
    if vpp == 0:
        return BoundReport(
            "general",
            True,
            "V'' is empty: every semi-random coloring is integrated",
            v_prime_size=vp,
            isolated_count=iso,
            upper_bound=Fraction(1 << vp),
            exact=True,
        )
    return _finish("general", *_moments(g, stats), vpp, vp, iso)


_HYPOTHESES = {
    "min_degree": "minimum degree below 2",
    "regular": "graph is not regular of degree >= 2",
    "srg": "graph is not strongly regular of degree >= 2",
}


def bound_specialized(g: Graph, variant: str) -> BoundReport:
    """Corollary forms of the bound for min-degree >= 2, regular, and
    strongly regular graphs.

    With no pendants, V = V' = V'' and mu collapses to |V|/2 + mu' where mu'
    sums C(d, d/2) 2^{-d-1} over even-degree vertices; for r-regular graphs
    that is |V| R^chi(r) / 2 with R = 1 + C(r, r/2) 2^{-r} and chi the even
    indicator.  For strongly regular graphs the pair sums collapse to one
    alpha evaluation per adjacency class.  The rest is ``bound_general``'s
    finishing formula.
    """
    if variant not in _HYPOTHESES:
        raise ValueError(f"unknown variant {variant!r}")
    n = g.vertex_count
    if variant == "min_degree":
        holds = n > 0 and g.min_degree() >= 2
    elif variant == "regular":
        r = g.is_regular()
        holds = r is not None and r >= 2
    else:
        params = detect_srg(g)
        holds = params is not None and params.r >= 2
    if not holds:
        return BoundReport(variant, False, _HYPOTHESES[variant])
    stats = neighborhood_stats(g)
    mu = Fraction(n, 2)
    for d, count in Counter(map(g.degree, range(n))).items():
        if d % 2 == 0:
            mu += count * Fraction(comb(d, d // 2), 1 << (d + 1))
    pair_total = _srg_pair_total(g, stats, params.r) if variant == "srg" else _moments(g, stats)[1]
    return _finish(variant, mu, pair_total, n, n)


def _srg_pair_total(g: Graph, stats: NeighborhoodStats, r: int) -> Fraction:
    """The pair total on a strongly regular graph: one alpha pair per adjacency
    class, weighted by the n r / 2 adjacent and n (n - r - 1) / 2 other pairs."""
    n = g.vertex_count
    # detect_srg requires r >= 2 and a non-adjacent pair, so r <= n - 2 and
    # vertex 0 has both a neighbor and a non-neighbor.
    adj_pair = 0, min(g.adjacency[0])
    non_pair = 0, min(set(range(1, n)) - g.adjacency[0])
    alpha_adj = alpha(g, stats, *adj_pair, 0, 1) + alpha(g, stats, *adj_pair, 1, 1)
    alpha_non = alpha(g, stats, *non_pair, 0, 0) + alpha(g, stats, *non_pair, 1, 0)
    return Fraction(n * r, 2) * alpha_adj + Fraction(n * (n - r - 1), 2) * alpha_non


# ---------------------------------------------------------------------------
# Exhaustive oracle for the semi-random construction
# ---------------------------------------------------------------------------


class OracleMoments(NamedTuple):
    """Exact semi-random statistics: Pr[integrated], E[X], E[X^2]."""

    prob_integrated: Fraction
    ex: Fraction
    ex2: Fraction


def census(g: Graph) -> Census:
    """Each V'' vertex's mask of the semi-random draws that integrate it, in id
    order, and the number of draws.  Raises ``InapplicableError`` on a
    ``_rejection`` or when |V'| > ``ORACLE_CAP``, before any column is built.

    Swapping both colors complements a draw and keeps its failing set, so only
    the draws with the top vertex of V' black are taken (``_rejection`` leaves
    V' non-empty): the rest of V' get ``truth_columns``, each pendant the
    complement of its neighbour's column.
    """
    stats = neighborhood_stats(g)
    reason = _rejection(g)
    if reason is not None:
        raise InapplicableError(reason)
    if len(stats.v_prime) > ORACLE_CAP:
        raise InapplicableError(
            f"|V'| = {len(stats.v_prime)} exceeds the oracle cap {ORACLE_CAP}"
        )
    free = sorted(stats.v_prime)[:-1]
    draws = 1 << len(free)
    full = (1 << draws) - 1
    columns = [0] * g.vertex_count
    for v, column in zip(free, truth_columns(len(free))):
        columns[v] = column
    for p in stats.pendants:  # each pendant takes the color opposite its neighbor
        (q,) = g.adjacency[p]
        columns[p] = full ^ columns[q]
    integrated = integrated_columns(g, columns, full)
    vpp = stats.v_double_prime
    if any(mask != full for v, mask in enumerate(integrated) if v not in vpp):
        # Vertices outside V'' are always integrated by construction.
        raise AssertionError("vertex outside V'' failed integration")
    return {v: integrated[v] for v in sorted(vpp)}, draws


_census = census  # the oracles' ``census`` parameter shadows the function


def semirandom_oracle(g: Graph, census: Census | None = None) -> OracleMoments:
    """Exact moments over all 2^{|V'|} semi-random colorings, |V'| <= ``ORACLE_CAP``.

    ``prob_integrated * 2^{|V'|}`` equals the number of integrated colorings
    exactly, because restriction to V' is a bijection between integrated
    colorings and integrated semi-random outcomes.  ``census``, if given, is
    ``census(g)`` already taken, and is read instead of a new scan.  Ratios
    over the census's half of the draws are those over all of them, since the
    other half mirrors it.
    """
    masks, draws = census or _census(g)
    members = list(masks.values())
    everywhere = reduce(and_, members, (1 << draws) - 1)
    x_sum = sum(m.bit_count() for m in members)
    pair_sum = sum((m & w).bit_count() for m, w in combinations(members, 2))
    return OracleMoments(
        Fraction(everywhere.bit_count(), draws),
        Fraction(x_sum, draws),
        Fraction(x_sum + 2 * pair_sum, draws),
    )


def pair_joint_moments(g: Graph, census: Census | None = None) -> dict[tuple[int, int], Fraction]:
    """Exact E[I_v I_w] for every unordered V'' pair, by the same capped
    exhaustion (or from ``census``, as in ``semirandom_oracle``).
    """
    masks, draws = census or _census(g)
    return {
        (v, w): Fraction((masks[v] & masks[w]).bit_count(), draws)
        for v, w in combinations(masks, 2)
    }


# ---------------------------------------------------------------------------
# Extremal inequalities for the mixing spectrum
# ---------------------------------------------------------------------------


class ExtremalBounds(NamedTuple):
    """Lower bounds: |E|/2 for the spectrum minimum, the max-cut bounds for
    its maximum (the additive form only applies to connected graphs)."""

    ims_lower: Fraction
    edwards: int
    edwards_erdos: Fraction | None


def _ceil_edwards(e: int) -> int:
    """ceil(|E|/2 + sqrt(|E|/8 + 1/64) - 1/8) in exact integer arithmetic.

    The expression equals (4|E| - 1 + sqrt(8|E| + 1)) / 8.  For an integer
    a, ceil((a + r) / 8) = ceil((a + ceil(r)) / 8), and the least integer
    >= sqrt(8|E| + 1) is isqrt(8|E|) + 1, whether or not 8|E| + 1 is a square.
    """
    return -(-(4 * e + isqrt(8 * e)) // 8)


def extremal_bounds(g: Graph) -> ExtremalBounds:
    e = g.edge_count
    erdos = Fraction(e, 2) + Fraction(g.vertex_count - 1, 4) if is_connected(g) else None
    return ExtremalBounds(Fraction(e, 2), _ceil_edwards(e), erdos)
