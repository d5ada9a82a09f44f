from __future__ import annotations

import math
from fractions import Fraction

import pytest

from mixspec.bounds import (
    InapplicableError,
    alpha,
    bound_general,
    bound_specialized,
    extremal_bounds,
    pair_joint_moments,
    semirandom_oracle,
)
from mixspec.corpus import random_corpus
from mixspec.enumeration import mix_histogram
from mixspec.graph import (
    biclique_graph,
    build_graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    neighborhood_stats,
    path_graph,
    petersen_graph,
)


def test_alpha_square_adjacent():
    c4 = cycle_graph(4)
    stats = neighborhood_stats(c4)
    assert alpha(c4, stats, 0, 1, 1, 1) == 1
    assert alpha(c4, stats, 0, 1, 0, 1) == Fraction(1, 4)


def test_alpha_square_diagonal():
    c4 = cycle_graph(4)
    stats = neighborhood_stats(c4)
    assert alpha(c4, stats, 0, 2, 0, 0) == Fraction(3, 4)
    assert alpha(c4, stats, 0, 2, 1, 0) == Fraction(1, 2)


def test_alpha_degenerate_thresholds():
    # Two degree-2 vertices far apart on a long ring: no common neighbors,
    # thresholds at zero, every constraint vacuous.
    c8 = cycle_graph(8)
    stats = neighborhood_stats(c8)
    assert alpha(c8, stats, 0, 4, 0, 0) == Fraction(9, 16)
    assert 0 <= alpha(c8, stats, 0, 4, 1, 0) <= 1


def test_alpha_validation():
    c4 = cycle_graph(4)
    stats = neighborhood_stats(c4)
    with pytest.raises(ValueError):
        alpha(c4, stats, 0, 1, 0, 0)  # j contradicts adjacency
    with pytest.raises(ValueError):
        alpha(c4, stats, 0, 0, 0, 0)
    p5 = path_graph(5)
    p5_stats = neighborhood_stats(p5)
    with pytest.raises(InapplicableError):
        alpha(p5, p5_stats, 0, 2, 0, 0)  # endpoint 0 is outside V''


def test_bound_general_square():
    report = bound_general(cycle_graph(4))
    assert report.applicable
    assert report.mu == 3
    assert report.sigma_sq == Fraction(3, 2)
    assert report.upper_bound == Fraction(48, 5)
    assert float(report.upper_bound) == 9.6
    assert mix_histogram(cycle_graph(4)).ic == 6 <= math.ceil(report.upper_bound)


def test_bound_general_path3_exact():
    report = bound_general(path_graph(3))
    assert report.applicable and report.exact
    assert report.upper_bound == 2
    assert mix_histogram(path_graph(3)).ic == 2


def test_bound_general_star_exact():
    star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    report = bound_general(star)
    assert report.applicable and report.exact
    assert report.upper_bound == 2
    assert mix_histogram(star).ic == 2


def test_bound_rejects_k2_component():
    report = bound_general(path_graph(2))
    assert not report.applicable
    assert "degree below 2" in report.reason
    mixed = build_graph([(0, 1), (1, 2), (3, 4)], 5)
    report = bound_general(mixed)
    assert not report.applicable and "1 two-vertex" in report.reason


def test_bound_rejects_edgeless():
    report = bound_general(build_graph([], 3))
    assert not report.applicable


def test_bound_isolated_vertex_adjustment():
    square_plus_isolated = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 5)
    report = bound_general(square_plus_isolated)
    assert report.applicable
    assert report.isolated_count == 1
    assert report.upper_bound == 2 * Fraction(48, 5)
    assert report.v_prime_size == 5
    # Exact count doubles as well, so soundness is preserved.
    assert mix_histogram(square_plus_isolated).ic == 12


def test_oracle_square():
    oracle = semirandom_oracle(cycle_graph(4))
    assert oracle.prob_integrated == Fraction(6, 16)
    assert oracle.ex == 3
    assert oracle.ex2 == Fraction(21, 2)


def test_oracle_k4():
    oracle = semirandom_oracle(complete_graph(4))
    assert oracle.prob_integrated == Fraction(6, 16)
    report = bound_general(complete_graph(4))
    assert report.mu == oracle.ex
    assert report.sigma_sq == oracle.ex2 - oracle.ex**2


def test_oracle_path4():
    oracle = semirandom_oracle(path_graph(4))
    assert oracle.prob_integrated == 1
    assert neighborhood_stats(path_graph(4)).v_double_prime == frozenset()


def test_oracle_cap_and_rejections():
    with pytest.raises(InapplicableError):
        semirandom_oracle(path_graph(2))
    with pytest.raises(InapplicableError):
        semirandom_oracle(cycle_graph(10), cap=5)


def test_oracle_counts_integrated_colorings():
    for g in (cycle_graph(6), petersen_graph(), path_graph(7), cube_graph()):
        oracle = semirandom_oracle(g)
        stats = neighborhood_stats(g)
        assert oracle.prob_integrated * 2 ** len(stats.v_prime) == mix_histogram(g).ic


def test_pair_joint_moments_square():
    c4 = cycle_graph(4)
    joint = pair_joint_moments(c4)
    stats = neighborhood_stats(c4)
    for (v, w), value in joint.items():
        j = int(c4.has_edge(v, w))
        avg = (alpha(c4, stats, v, w, 0, j) + alpha(c4, stats, v, w, 1, j)) / 2
        assert avg == value
    # Adjacent pairs: (1 + 1/4)/2; diagonal pairs: (3/4 + 1/2)/2.
    assert joint[(0, 1)] == Fraction(5, 8)
    assert joint[(0, 2)] == Fraction(5, 8)


def test_specialized_square_matches_general():
    general = bound_general(cycle_graph(4))
    for variant in ("min_degree", "regular", "srg"):
        report = bound_specialized(cycle_graph(4), variant)
        assert report.applicable
        assert report.mu == general.mu == 3
        assert report.sigma_sq == general.sigma_sq
        assert report.upper_bound == general.upper_bound


def test_specialized_cube():
    report = bound_specialized(cube_graph(), "regular")
    assert report.applicable
    assert report.mu == 4  # odd valency: no correction term
    general = bound_general(cube_graph())
    assert report.upper_bound == general.upper_bound
    assert mix_histogram(cube_graph()).ic <= math.ceil(report.upper_bound)


def test_specialized_petersen_srg():
    report = bound_specialized(petersen_graph(), "srg")
    assert report.applicable
    general = bound_general(petersen_graph())
    assert report.upper_bound == general.upper_bound
    assert mix_histogram(petersen_graph()).ic <= math.ceil(report.upper_bound)


def test_specialized_rejections():
    assert not bound_specialized(path_graph(4), "min_degree").applicable
    assert not bound_specialized(path_graph(4), "regular").applicable
    assert not bound_specialized(cube_graph(), "srg").applicable
    with pytest.raises(ValueError):
        bound_specialized(cycle_graph(4), "nope")


def _corollary_mu(n: int, r: int) -> Fraction:
    """n R^chi(r) / 2 with R = 1 + C(r, r/2) 2^{-r} and chi the even indicator."""
    big_r = 1 + Fraction(math.comb(r, r // 2), 1 << r) if r % 2 == 0 else Fraction(1)
    return Fraction(n, 2) * big_r


_ALL_COROLLARIES = ("min_degree", "regular", "srg")
# C_4 = K_{2,2} and C_5 are the strongly regular cycles.
COROLLARY_GRAPHS = [
    (f"C_{n}", cycle_graph(n), _ALL_COROLLARIES if n in (4, 5) else ("min_degree", "regular"))
    for n in range(3, 41)
] + [
    ("K_3,3", biclique_graph(3, 3), _ALL_COROLLARIES),
    ("K_4,4", biclique_graph(4, 4), _ALL_COROLLARIES),
    ("cube", cube_graph(), ("min_degree", "regular")),
    ("petersen", petersen_graph(), _ALL_COROLLARIES),
    # Minimum degree 2, with degrees 2, 3 and 4.
    ("mixed", build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4), (4, 5), (5, 1)]),
     ("min_degree",)),
]


@pytest.mark.parametrize("g, variants", [pytest.param(g, v, id=name) for name, g, v in COROLLARY_GRAPHS])
def test_corollary_forms_match_general(g, variants):
    general = bound_general(g)
    applicable = []
    for variant in _ALL_COROLLARIES:
        report = bound_specialized(g, variant)
        if not report.applicable:
            continue
        applicable.append(variant)
        assert (report.mu, report.sigma_sq, report.upper_bound) == (
            general.mu,
            general.sigma_sq,
            general.upper_bound,
        )
        if variant != "min_degree":
            assert report.mu == _corollary_mu(g.vertex_count, g.is_regular())
    assert tuple(applicable) == variants


def test_chebyshev_gap_positive():
    for _, g in random_corpus(20, 8, seed=5):
        report = bound_general(g)
        if report.applicable and not report.exact:
            assert report.mu < report.v_double_prime_size


def test_extremal_square():
    ext = extremal_bounds(cycle_graph(4))
    assert ext.ims_lower == 2
    assert ext.edwards == 3
    assert ext.edwards_erdos == Fraction(11, 4)
    hist = mix_histogram(cycle_graph(4))
    assert hist.ims_min == 2 and hist.ims_max == 4


def test_extremal_k4():
    ext = extremal_bounds(complete_graph(4))
    assert ext.ims_lower == 3
    assert ext.edwards == 4
    assert ext.edwards_erdos == Fraction(15, 4)


def test_extremal_disconnected_skips_connected_bound():
    g = build_graph([], 4)
    ext = extremal_bounds(g)
    assert ext.ims_lower == 0 and ext.edwards == 0
    assert ext.edwards_erdos is None


def test_edwards_ceiling_exact():
    # m = ceil((4e - 1 + sqrt(8e + 1)) / 8) iff m - 1 < x <= m; compare the
    # square root against integers by squaring so the check is exact.
    from mixspec.bounds import _ceil_edwards

    for e in range(0, 5000):
        m = _ceil_edwards(e)
        radicand = 8 * e + 1
        upper = 8 * m - 4 * e + 1  # x <= m  <=>  sqrt(radicand) <= upper
        assert upper >= 0 and radicand <= upper * upper
        lower = upper - 8  # x > m - 1  <=>  sqrt(radicand) > lower
        assert lower < 0 or lower * lower < radicand


def test_edwards_ceiling_spot_values():
    from mixspec.bounds import _ceil_edwards

    assert _ceil_edwards(0) == 0
    assert _ceil_edwards(1) == 1
    assert _ceil_edwards(4) == 3
    assert _ceil_edwards(6) == 4
    for e in range(0, 400):
        assert _ceil_edwards(e) == math.ceil(e / 2 + math.sqrt(e / 8 + 1 / 64) - 1 / 8 - 1e-9)
