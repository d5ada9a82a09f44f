from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixspec import cli, genfunc
from mixspec.enumeration import mix_histogram
from mixspec.families import cycle_mix_count, ic_cycle, ic_path, path_mix_count
from mixspec.genfunc import (
    GOLDEN_RATIO,
    GROWTH_FACTOR_SECOND_DERIVATIVE,
    MEAN_GROWTH_RATE,
    VARIANCE_GROWTH_RATE,
    VARIANCE_GROWTH_RATE_QUOTED,
    UPoly,
    amplitude,
    asymptotic_model_check,
    clt_diagnostics,
    cycle_gf_coeff,
    cycle_gf_coeffs,
    dominant_singularity,
    erf_approx,
    growth_factor,
    normal_cdf,
    path_gf_coeff,
    path_gf_coeffs,
    pgf_moments,
    secondary_root,
    standardized_cdf_distance,
)
from mixspec.graph import cycle_graph


def test_upoly_basics():
    p = UPoly.of([0, 0, 2, 0])
    assert p.coeffs == (0, 0, 2)
    assert p.degree == 2
    assert p.at_one() == 2
    assert UPoly.of_counts({2: 2}) == p
    assert UPoly.of_counts({4: 1, 1: 3}).coeffs == (0, 3, 0, 0, 1)


def test_path_gf_small_orders():
    assert path_gf_coeff(1).coeffs == (2,)
    assert path_gf_coeff(2).coeffs == (0, 2)
    assert path_gf_coeff(3).coeffs == (0, 0, 2)
    assert path_gf_coeff(4).coeffs == (0, 0, 2, 2)


def test_cycle_gf_small_orders():
    assert cycle_gf_coeff(2).coeffs == (0, 0, 2)
    assert cycle_gf_coeff(3).coeffs == (0, 0, 6)
    assert cycle_gf_coeff(4).coeffs == (0, 0, 4, 0, 2)
    assert cycle_gf_coeff(6).coeffs == (0, 0, 0, 0, 18, 0, 2)


def test_single_rows_equal_the_recurrence_tables():
    # One row comes from the family count vector; the tables are its oracle.
    paths = path_gf_coeffs(400)
    cycles = cycle_gf_coeffs(400)
    for n in range(1, 401):
        assert path_gf_coeff(n) == paths[n - 1], n
    for n in range(2, 401):
        assert cycle_gf_coeff(n) == cycles[n - 2], n


@pytest.mark.parametrize("table", [path_gf_coeffs, cycle_gf_coeffs])
def test_tables_peak_at_their_retained_size(table):
    # Each coefficient list gives way to its row as the row is made; a table
    # that kept both copies would peak about a fifth above what it returns.
    tracemalloc.start()
    try:
        rows = table(1000)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) >= 999
    assert peak <= 1.05 * retained


def test_single_rows_reject_orders_below_the_family_range():
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        path_gf_coeff(0)
    with pytest.raises(ValueError, match=r"^need n >= 2$"):
        cycle_gf_coeff(1)


def test_gf_coefficients_equal_pmf_numerators():
    paths = path_gf_coeffs(64)
    cycles = cycle_gf_coeffs(64)
    for n in range(2, 65):
        poly = paths[n - 1]
        assert poly == UPoly.of([path_mix_count(n, k) for k in range(n + 1)])
        gpoly = cycles[n - 2]
        assert gpoly == UPoly.of([cycle_mix_count(n, k) for k in range(n + 1)])
        assert not any(gpoly.coeffs[1::2])


def test_gf_counts_match_closed_forms():
    paths = path_gf_coeffs(256)
    cycles = cycle_gf_coeffs(256)
    for n in range(1, 257):
        assert paths[n - 1].at_one() == ic_path(n)
    for n in range(2, 257):
        assert cycles[n - 2].at_one() == ic_cycle(n)


def test_pgf_moments_examples():
    mean, var = pgf_moments(UPoly.of([0, 0, 2, 2]))
    assert (mean, var) == (Fraction(5, 2), Fraction(1, 4))
    mean, var = pgf_moments(UPoly.of([0, 0, 0, 0, 0, 7]))
    assert (mean, var) == (Fraction(5), Fraction(0))
    mean, var = pgf_moments(UPoly.of([0, 0, 4, 0, 2]))
    assert (mean, var) == (Fraction(8, 3), Fraction(8, 9))


def test_pgf_moments_match_enumerated_square():
    hist = mix_histogram(cycle_graph(4))
    total = hist.ic
    mean = Fraction(sum(k * c for k, c in hist.counts.items()), total)
    assert pgf_moments(cycle_gf_coeff(4))[0] == mean == Fraction(8, 3)


def test_pgf_moments_rejects_bad_input():
    with pytest.raises(ValueError):
        pgf_moments(UPoly.of([]))
    with pytest.raises(ValueError):
        pgf_moments(UPoly.of([1, -1, 3]))


# -- normal distribution ------------------------------------------------------


def test_erf_matches_stdlib_to_1e12():
    worst = 0.0
    x = -8.0
    while x <= 8.0:
        worst = max(worst, abs(erf_approx(x) - math.erf(x)))
        x += 0.0625
    assert worst <= 1e-12


def test_normal_cdf_symmetry_and_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    for x in (0.3, 1.7, 4.2):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


# -- asymptotic model ---------------------------------------------------------


def test_roots_at_one():
    assert dominant_singularity(1.0) == pytest.approx(1 / GOLDEN_RATIO, abs=1e-14)
    assert secondary_root(1.0) == pytest.approx(GOLDEN_RATIO, abs=1e-14)
    assert growth_factor(1.0) == pytest.approx(1.0, abs=1e-14)
    assert amplitude(1.0) == pytest.approx(1.0, abs=1e-14)


def test_model_check_constants():
    report = asymptotic_model_check()
    assert abs(report.a_at_one - 1.0) <= 1e-10
    assert abs(report.b_at_one - 1.0) <= 1e-10
    assert report.b_prime_gap <= 1e-6
    assert report.b_second_gap <= 1e-4
    # The variability simplifies to sqrt(5)/25 and the finite differences
    # land on it; the alternative quoted value is half a unit away.
    assert report.variability_gap <= 1e-4
    assert report.variability_gap_quoted > 0.5


def test_variance_rate_algebra():
    derived = (
        GROWTH_FACTOR_SECOND_DERIVATIVE + MEAN_GROWTH_RATE - MEAN_GROWTH_RATE**2
    )
    assert derived == pytest.approx(VARIANCE_GROWTH_RATE, abs=1e-15)
    assert abs(derived - VARIANCE_GROWTH_RATE_QUOTED) > 0.5


# -- diagnostics ---------------------------------------------------------------


def test_clt_diagnostics_paths():
    report = clt_diagnostics("path", 60)
    assert report.mean == pgf_moments(path_gf_coeff(60))[0]
    assert report.mean_rate_gap < 1e-9
    assert report.variance_rate_gap < 1e-9
    assert 0 < report.cdf_sup_distance < 0.15


def test_clt_diagnostics_cycles():
    report = clt_diagnostics("cycle", 60)
    assert report.variance == pgf_moments(cycle_gf_coeff(60))[1]
    assert report.mean_rate_gap < 1e-9
    assert report.variance_rate_gap < 1e-9


def test_clt_diagnostics_validation():
    with pytest.raises(ValueError):
        clt_diagnostics("path", 5)
    with pytest.raises(ValueError):
        clt_diagnostics("tree", 50)


def test_variance_increments_converge_to_sqrt5_over_25():
    # Exact-arithmetic increments of the variance, no asymptotic shortcut.
    polys = path_gf_coeffs(120)
    v_prev = pgf_moments(polys[99 - 1])[1]
    v = pgf_moments(polys[100 - 1])[1]
    assert float(v - v_prev) == pytest.approx(VARIANCE_GROWTH_RATE, abs=1e-8)
    assert abs(float(v - v_prev) - VARIANCE_GROWTH_RATE_QUOTED) > 0.5


def test_cdf_distance_decreases_with_n():
    polys = path_gf_coeffs(400)
    distances = [standardized_cdf_distance(polys[n - 1]) for n in (50, 100, 200, 400)]
    assert all(a > b for a, b in zip(distances, distances[1:]))


def _standardized_law(poly):
    mean, variance = pgf_moments(poly)
    mu, sigma = float(mean), math.sqrt(float(variance))
    total = poly.at_one()
    return [((k - mu) / sigma, c / total) for k, c in enumerate(poly.coeffs) if c]


def _kolmogorov_between(law_a, law_b):
    """Sup distance between two discrete standardized CDFs."""
    points = sorted({x for x, _ in law_a} | {x for x, _ in law_b})
    worst = 0.0
    for x in points:
        fa = sum(p for t, p in law_a if t <= x)
        fb = sum(p for t, p in law_b if t <= x)
        worst = max(worst, abs(fa - fb))
    return worst


def test_standardized_laws_of_both_families_converge_together():
    # The standardized path and cycle laws share one Gaussian limit: their
    # mutual distance stays below the sum of their normal distances and
    # shrinks as n grows.
    paths = path_gf_coeffs(200)
    cycles = cycle_gf_coeffs(200)
    gaps = {}
    for n in (50, 100, 200):
        dp = standardized_cdf_distance(paths[n - 1])
        dc = standardized_cdf_distance(cycles[n - 2])
        gaps[n] = _kolmogorov_between(
            _standardized_law(paths[n - 1]), _standardized_law(cycles[n - 2])
        )
        assert gaps[n] <= dp + dc
    assert gaps[200] < gaps[50]


def test_report_json_shape():
    data = cli._clt_json(clt_diagnostics("path", 40))
    assert data["n"] == 40
    assert set(data["mean"]) == {"num", "den"}
    assert isinstance(data["delta_mean"], float)
    assert isinstance(data["cdf_sup_distance"], float)


@given(st.lists(st.lists(st.integers(min_value=-(2**80), max_value=2**80), max_size=12), min_size=2, max_size=4))
def test_row_add_matches_elementwise_loop(polys):
    expected = [0] * max(len(p) for p in polys)
    for p in polys:
        for i, c in enumerate(p):
            expected[i] += c
    before = [list(p) for p in polys]
    assert genfunc._add(*polys) == expected
    assert polys == before
