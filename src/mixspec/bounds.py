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

All arithmetic is exact rational; the JSON ``upper_bound_decimal`` is null
beyond the double range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .graph import (
    Graph,
    NeighborhoodStats,
    connected_components,
    detect_srg,
    induced_subgraph,
    is_connected,
    neighborhood_stats,
)

VARIANTS = ("general", "min_degree", "regular", "srg")

ORACLE_CAP = 22


class InapplicableError(ValueError):
    """Raised when a graph violates a bound's hypotheses."""


def alpha(g: Graph, stats: NeighborhoodStats, v: int, w: int, i: int, j: int) -> Fraction:
    """Joint integration probability of v and w in a semi-random coloring,
    conditioned on whether they differ in color (i) and are adjacent (j).

    Summing binomial choices over the common non-pendant neighborhood (a),
    the rest of v's (b) and w's (c) non-pendant neighborhoods:

        sum C(lvw, a) C(lv - lvw - j, b) C(lw - lvw - j, c) / 2^(lv+lw-lvw-2j)

    restricted to a + b >= lv - deg(v)/2 - ij and
    i*lvw + (-1)^i a + c >= lw - deg(w)/2 - ij.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("i and j must be 0 or 1")
    if v == w:
        raise ValueError("need two distinct vertices")
    if v not in stats.v_double_prime or w not in stats.v_double_prime:
        raise InapplicableError("both vertices must lie in V''")
    if j != int(g.has_edge(v, w)):
        raise ValueError("j must match the actual adjacency of the pair")
    lv, lw = stats.lam[v], stats.lam[w]
    lvw = g.mutual_degree(v, w)
    b_top = lv - lvw - j
    c_top = lw - lvw - j
    # Thresholds doubled to stay in integers: x >= t/2  <=>  2x >= t.
    t_v = 2 * lv - g.degree(v) - 2 * i * j
    t_w = 2 * lw - g.degree(w) - 2 * i * j
    sign = -1 if i else 1
    base_w = 2 * i * lvw
    # Suffix sums over c for each minimum value.
    c_suffix = [0] * (c_top + 2)
    for c in range(c_top, -1, -1):
        c_suffix[c] = c_suffix[c + 1] + comb(c_top, c)
    total = 0
    for a in range(lvw + 1):
        ca = comb(lvw, a)
        # 2c >= t_w - base_w - 2*sign*a
        need = t_w - base_w - 2 * sign * a
        c_min = max(0, (need + 1) // 2)
        if c_min > c_top:
            continue
        c_part = c_suffix[c_min]
        for b in range(b_top + 1):
            if 2 * (a + b) >= t_v:
                total += ca * comb(b_top, b) * c_part
    return Fraction(total, 1 << (lv + lw - lvw - 2 * j))


def _mu_general(g: Graph, stats: NeighborhoodStats) -> Fraction:
    mu = Fraction(0)
    for v in sorted(stats.v_double_prime):
        lam = stats.lam[v]
        k_min = max(0, (2 * lam - g.degree(v) + 1) // 2)
        mu += Fraction(sum(comb(lam, k) for k in range(k_min, lam + 1)), 1 << lam)
    return mu


def _pair_sum(g: Graph, stats: NeighborhoodStats) -> Fraction:
    """Sum of alpha_{0,j} + alpha_{1,j} over unordered V'' pairs."""
    members = sorted(stats.v_double_prime)
    total = Fraction(0)
    for a_idx, v in enumerate(members):
        for w in members[a_idx + 1 :]:
            j = int(g.has_edge(v, w))
            total += alpha(g, stats, v, w, 0, j) + alpha(g, stats, v, w, 1, j)
    return total


@dataclass(frozen=True)
class BoundReport:
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
    exact_ic: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "applicable": self.applicable,
            "reason": self.reason,
            "v_prime_size": self.v_prime_size,
            "v_double_prime_size": self.v_double_prime_size,
            "isolated_count": self.isolated_count,
            "mu": _rational(self.mu),
            "sigma_sq": _rational(self.sigma_sq),
            "upper_bound": _rational(self.upper_bound),
            "upper_bound_decimal": _float_or_none(self.upper_bound),
            "exact": self.exact,
            "exact_ic": str(self.exact_ic) if self.exact_ic is not None else None,
        }


def _rational(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _float_or_none(x: Fraction) -> float | None:
    """The nearest double, or None when x lies beyond the double range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _finish(
    variant: str, mu: Fraction, pair_total: Fraction, vpp: int, v_prime: int, isolated: int = 0
) -> BoundReport:
    """The one-sided Chebyshev bound that every variant ends in.

    ``pair_total`` is sum_{v != w} E[I_v I_w] over V'', so sigma^2 = E[X^2] - mu^2
    = mu + pair_total - mu^2; the bound is scaled to 2^{|V'| + #isolated}.
    """
    sigma_sq = mu + pair_total - mu * mu
    gap = vpp - mu
    size = v_prime + isolated
    upper = sigma_sq / (sigma_sq + gap * gap) * (1 << size)
    return BoundReport(variant, True, "", size, vpp, isolated, mu, sigma_sq, upper)


def _rejection(g: Graph) -> str | None:
    """Reason the semi-random construction cannot run, or None if it can."""
    core = [v for v in range(g.vertex_count) if g.degree(v) > 0]
    if not core:
        return "graph has no edges (the count is exactly 2^|V|)"
    stripped, _ = induced_subgraph(g, core)
    if stripped.max_degree() < 2:
        return "maximum degree below 2: the graph is a union of disjoint edges"
    k2 = sum(1 for comp in connected_components(stripped) if len(comp) == 2)
    if k2:
        return (
            f"{k2} two-vertex component(s): both endpoints are pendant, so forcing "
            "pendants opposite their neighbors is circular (each such component "
            "contributes an exact factor 2)"
        )
    return None


def bound_general(g: Graph) -> BoundReport:
    """The second-moment upper bound for any simple graph with max degree >= 2.

    Isolated vertices each double the count exactly; they are stripped, the
    bound is computed on the rest, and the result is scaled back by
    2^{#isolated} (``isolated_count`` records the adjustment).
    """
    reason = _rejection(g)
    if reason is not None:
        return BoundReport("general", False, reason)
    non_isolated = [v for v in range(g.vertex_count) if g.degree(v) > 0]
    iso = g.vertex_count - len(non_isolated)
    core, _ = induced_subgraph(g, non_isolated)
    stats = neighborhood_stats(core)
    vp = len(stats.v_prime)
    vpp = len(stats.v_double_prime)
    if vpp == 0:
        return BoundReport(
            "general",
            True,
            "V'' is empty: every semi-random coloring is integrated",
            v_prime_size=vp + iso,
            isolated_count=iso,
            upper_bound=Fraction(1 << (vp + iso)),
            exact=True,
        )
    mu = _mu_general(core, stats)
    return _finish("general", mu, _pair_sum(core, stats), vpp, vp, iso)


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
    for d in map(g.degree, range(n)):
        if d % 2 == 0:
            mu += Fraction(comb(d, d // 2), 1 << (d + 1))
    pair_total = _srg_pair_total(g, stats, params.r) if variant == "srg" else _pair_sum(g, stats)
    return _finish(variant, mu, pair_total, n, n)


def _srg_pair_total(g: Graph, stats: NeighborhoodStats, r: int) -> Fraction:
    """``_pair_sum`` for a strongly regular graph: one alpha pair per adjacency
    class, weighted by the n r / 2 adjacent and n (n - r - 1) / 2 other pairs."""
    n = g.vertex_count
    adj_pair = _first_pair(g, adjacent=True)
    non_pair = _first_pair(g, adjacent=False)
    alpha_adj = alpha(g, stats, *adj_pair, 0, 1) + alpha(g, stats, *adj_pair, 1, 1)
    alpha_non = alpha(g, stats, *non_pair, 0, 0) + alpha(g, stats, *non_pair, 1, 0)
    return Fraction(n * r, 2) * alpha_adj + Fraction(n * (n - r - 1), 2) * alpha_non


def _first_pair(g: Graph, adjacent: bool) -> tuple[int, int]:
    for v in range(g.vertex_count):
        for w in range(v + 1, g.vertex_count):
            if g.has_edge(v, w) == adjacent:
                return v, w
    raise InapplicableError(f"graph has no {'adjacent' if adjacent else 'non-adjacent'} pair")


# ---------------------------------------------------------------------------
# Exhaustive oracle for the semi-random construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleMoments:
    """Exact semi-random statistics: Pr[integrated], E[X], E[X^2]."""

    prob_integrated: Fraction
    ex: Fraction
    ex2: Fraction


def _semirandom_scan(g: Graph, cap: int):
    """Yield (white_mask, integrated_mask_over_vpp) for every semi-random draw."""
    stats = neighborhood_stats(g)
    reason = _rejection(g)
    if reason is not None:
        raise InapplicableError(reason)
    v_prime = sorted(stats.v_prime)
    if len(v_prime) > cap:
        raise InapplicableError(
            f"|V'| = {len(v_prime)} exceeds the oracle cap {cap}"
        )
    vpp = sorted(stats.v_double_prime)
    n = g.vertex_count
    nbr_mask = [0] * n
    for v in range(n):
        for w in g.adjacency[v]:
            nbr_mask[v] |= 1 << w
    deg = [g.degree(v) for v in range(n)]
    pendant_pairs = [(p, next(iter(g.adjacency[p]))) for p in sorted(stats.pendants)]
    full = (1 << n) - 1
    for assignment in range(1 << len(v_prime)):
        white = 0
        for idx, v in enumerate(v_prime):
            if (assignment >> idx) & 1:
                white |= 1 << v
        for p, q in pendant_pairs:
            if not (white >> q) & 1:
                white |= 1 << p
        black = ~white & full
        ok_all = True
        ok_vpp = []
        for v in range(n):
            opposite = black if (white >> v) & 1 else white
            if 2 * (nbr_mask[v] & opposite).bit_count() < deg[v]:
                ok_all = False
                if v not in stats.v_double_prime:
                    # Vertices outside V'' are always integrated by construction.
                    raise AssertionError("vertex outside V'' failed integration")
        for v in vpp:
            opposite = black if (white >> v) & 1 else white
            ok_vpp.append(2 * (nbr_mask[v] & opposite).bit_count() >= deg[v])
        yield ok_all, ok_vpp


def semirandom_oracle(g: Graph, cap: int = ORACLE_CAP) -> OracleMoments:
    """Exhaust all 2^{|V'|} semi-random colorings and return exact moments.

    ``prob_integrated * 2^{|V'|}`` equals the number of integrated colorings
    exactly, because restriction to V' is a bijection between integrated
    colorings and integrated semi-random outcomes.
    """
    outcomes = 0
    good = 0
    x_sum = 0
    x2_sum = 0
    for ok_all, ok_vpp in _semirandom_scan(g, cap):
        outcomes += 1
        if ok_all:
            good += 1
        x = sum(ok_vpp)
        x_sum += x
        x2_sum += x * x
    return OracleMoments(
        Fraction(good, outcomes), Fraction(x_sum, outcomes), Fraction(x2_sum, outcomes)
    )


def pair_joint_moments(g: Graph, cap: int = ORACLE_CAP) -> dict[tuple[int, int], Fraction]:
    """Exact E[I_v I_w] for every unordered V'' pair, by the same exhaustion.

    Vertex ids refer to the graph as given (which must have no isolated
    vertices for the pair ids to be meaningful alongside ``alpha``).
    """
    stats = neighborhood_stats(g)
    vpp = sorted(stats.v_double_prime)
    counts: dict[tuple[int, int], int] = {
        (v, w): 0 for i, v in enumerate(vpp) for w in vpp[i + 1 :]
    }
    outcomes = 0
    for _, ok_vpp in _semirandom_scan(g, cap):
        outcomes += 1
        for i, v in enumerate(vpp):
            if not ok_vpp[i]:
                continue
            for jdx in range(i + 1, len(vpp)):
                if ok_vpp[jdx]:
                    counts[(v, vpp[jdx])] += 1
    return {pair: Fraction(c, outcomes) for pair, c in counts.items()}


# ---------------------------------------------------------------------------
# Extremal inequalities for the mixing spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalBounds:
    """Lower bounds: |E|/2 for the spectrum minimum, the max-cut bounds for
    its maximum (the additive form only applies to connected graphs)."""

    ims_lower: Fraction
    edwards: int
    edwards_erdos: Fraction | None


def _ceil_edwards(e: int) -> int:
    """ceil(|E|/2 + sqrt(|E|/8 + 1/64) - 1/8) in exact integer arithmetic.

    The expression equals (4|E| - 1 + sqrt(8|E| + 1)) / 8; the square root is
    compared against integers by squaring, so no floats are involved.
    """
    if e == 0:
        return 0
    radicand = 8 * e + 1
    a = 4 * e - 1
    s = isqrt(radicand)
    if s * s == radicand:
        return -((-(a + s)) // 8)
    floor = (a + s) // 8
    while True:
        t = 8 * (floor + 1) - a
        if t <= 0 or t * t < radicand:
            floor += 1
        else:
            break
    return floor + 1


def extremal_bounds(g: Graph) -> ExtremalBounds:
    e = g.edge_count
    erdos = Fraction(e, 2) + Fraction(g.vertex_count - 1, 4) if is_connected(g) else None
    return ExtremalBounds(Fraction(e, 2), _ceil_edwards(e), erdos)
