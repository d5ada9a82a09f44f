"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated tolerances.

Criterion 6 asserts the documented growth constants verbatim.  Its
variance-rate targets are not attainable: the exact pipeline converges to
sqrt(5)/25, which follows from B'(1) and B''(1), while the stated target
39*sqrt(5)/250 + 63/250 contradicts them.  Those sub-checks are kept as
stated and fail honestly; the companion test pins the value the exact
arithmetic does reach.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2

from mixspec import verify
from mixspec.bounds import bound_general, bound_specialized, extremal_bounds, semirandom_oracle
from mixspec.corpus import standard_corpus
from mixspec.enumeration import enumerate_integrated, max_cut, mix_histogram, propp_local_search
from mixspec.families import (
    comb0,
    cycle_count_closed_form,
    cycle_pmf,
    ic_biclique,
    ic_complete,
    ic_cycle,
    ic_path,
    necklace_enumerate,
    path_pmf,
    sample_cycle,
    sample_path,
)
from mixspec.genfunc import (
    MEAN_GROWTH_RATE,
    VARIANCE_GROWTH_RATE,
    VARIANCE_GROWTH_RATE_QUOTED,
    asymptotic_model_check,
    clt_diagnostics,
    cycle_gf_coeffs,
    path_gf_coeffs,
    standardized_cdf_distance,
)
from mixspec.graph import (
    BLACK,
    WHITE,
    biclique_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    is_integrated,
    mix_of_coloring,
    path_graph,
)

from conftest import install_mutant

SAMPLES_PER_INSTANCE = 100_000
CHI_SQUARE_ALPHA = 1e-3


def _report(capsys, number: int, label: str, started: float, failures: list[str], limit: float):
    elapsed = time.perf_counter() - started
    if elapsed > limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number:>2} {label}: {status} ({elapsed:.2f}s)")
    assert not failures, f"criterion {number}: " + " | ".join(failures)


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus(random_count=100)


@pytest.fixture(scope="module")
def corpus_histograms(corpus):
    # Filled lazily so the enumeration cost lands inside the first caller's
    # timed budget rather than in fixture setup.
    cache: dict[str, object] = {}

    def lookup(name: str, g):
        if name not in cache:
            cache[name] = mix_histogram(g)
        return cache[name]

    return lookup


def test_criterion_01_complete_graphs(capsys):
    start = time.perf_counter()
    failures = []
    for r in range(1, 10):
        count, fixed_mix = ic_complete(r)
        colorings = list(enumerate_integrated(complete_graph(r)))
        if len(colorings) != count:
            failures.append(f"K_{r}: {len(colorings)} enumerated vs formula {count}")
        g = complete_graph(r)
        if any(mix_of_coloring(g, c) != fixed_mix for c in colorings):
            failures.append(f"K_{r}: some coloring misses the fixed mix {fixed_mix}")
    _report(capsys, 1, "complete graphs", start, failures, 1.0)


def test_criterion_02_bicliques(capsys):
    start = time.perf_counter()
    failures = []
    for m in range(1, 6):
        for n in range(1, 6):
            count, spectrum = ic_biclique(m, n)
            hist = mix_histogram(biclique_graph(m, n))
            if hist.ic != count or hist.counts != spectrum:
                failures.append(f"K_{m},{n}: {hist.counts} vs {spectrum}")
    _report(capsys, 2, "bicliques", start, failures, 1.0)


def test_criterion_03_paths(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(1, 17):
        hist = mix_histogram(path_graph(n))
        if hist.ic != ic_path(n):
            failures.append(f"P_{n}: count mismatch")
        if n >= 2:
            pmf = path_pmf(n)
            enumerated = {k: Fraction(c, hist.ic) for k, c in hist.counts.items()}
            if pmf.masses != enumerated:
                failures.append(f"P_{n}: pmf mismatch")
    for n in range(2, 65):
        lo = (n - 1 + 1) // 2
        if sum(2 * comb0(k - 1, n - k - 1) for k in range(lo, n)) != ic_path(n):
            failures.append(f"P_{n}: spectrum sum identity fails")
    _report(capsys, 3, "paths", start, failures, 10.0)


def test_criterion_04_cycles(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(3, 17):
        hist = mix_histogram(cycle_graph(n))
        necklaces = list(necklace_enumerate(n))
        if not (hist.ic == ic_cycle(n) == len(necklaces)):
            failures.append(f"C_{n}: counts disagree")
        if set(necklaces) != set(enumerate_integrated(cycle_graph(n))):
            failures.append(f"C_{n}: necklace set mismatch")
        pmf = cycle_pmf(n)
        enumerated = {k: Fraction(c, hist.ic) for k, c in hist.counts.items()}
        if pmf.masses != enumerated:
            failures.append(f"C_{n}: pmf mismatch")
    for n in range(2, 65):
        if ic_cycle(n) != cycle_count_closed_form(n):
            failures.append(f"C_{n}: closed form disagrees with recurrence")
    _report(capsys, 4, "cycles", start, failures, 10.0)


def test_criterion_05_generating_functions(capsys):
    start = time.perf_counter()
    failures = []
    paths = path_gf_coeffs(256)
    cycles = cycle_gf_coeffs(256)
    for n in range(1, 257):
        if paths[n - 1].at_one() != ic_path(n):
            failures.append(f"path gf count n={n}")
    for n in range(2, 257):
        if cycles[n - 2].at_one() != ic_cycle(n):
            failures.append(f"cycle gf count n={n}")
    for n in range(2, 65):
        poly = paths[n - 1]
        pmf = path_pmf(n)
        numerators = {k: int(p * pmf.ic) for k, p in pmf.masses.items()}
        if {k: c for k, c in enumerate(poly.coeffs) if c} != numerators:
            failures.append(f"path gf coefficients n={n}")
        gpoly = cycles[n - 2]
        cpmf = cycle_pmf(n)
        gnumerators = {k: int(p * cpmf.ic) for k, p in cpmf.masses.items()}
        if {k: c for k, c in enumerate(gpoly.coeffs) if c} != gnumerators:
            failures.append(f"cycle gf coefficients n={n}")
    _report(capsys, 5, "generating functions", start, failures, 5.0)


def test_criterion_06_clt_constants(capsys):
    start = time.perf_counter()
    failures = []
    for family in ("path", "cycle"):
        report = clt_diagnostics(family, 200)
        if report.mean_rate_gap > 1e-6:
            failures.append(
                f"{family}: mean increment {report.delta_mean:.9f} misses "
                f"{MEAN_GROWTH_RATE:.9f} by {report.mean_rate_gap:.3e}"
            )
        if report.variance_rate_gap_quoted > 1e-6:
            failures.append(
                f"{family}: variance increment {report.delta_variance:.9f} misses the "
                f"stated rate {VARIANCE_GROWTH_RATE_QUOTED:.9f} by "
                f"{report.variance_rate_gap_quoted:.3e} (the exact increments converge "
                f"to sqrt(5)/25 = {VARIANCE_GROWTH_RATE:.9f}, which is what B'(1) and "
                "B''(1) imply; the stated rate contradicts them)"
            )
    model = asymptotic_model_check()
    if model.b_prime_gap > 1e-6:
        failures.append(f"B'(1) finite difference off by {model.b_prime_gap:.3e}")
    if model.variability_gap_quoted > 1e-4:
        failures.append(
            f"variability {model.variability:.9f} misses the stated value "
            f"{VARIANCE_GROWTH_RATE_QUOTED:.9f} by {model.variability_gap_quoted:.3e} "
            "(it equals B''(1) + B'(1) - B'(1)^2 = sqrt(5)/25)"
        )
    paths = path_gf_coeffs(400)
    cycles = cycle_gf_coeffs(400)
    for family, table, offset in (("path", paths, 1), ("cycle", cycles, 2)):
        distances = [standardized_cdf_distance(table[n - offset]) for n in (50, 100, 200, 400)]
        if not all(a > b for a, b in zip(distances, distances[1:])):
            failures.append(f"{family}: cdf distance not strictly decreasing: {distances}")
    _report(capsys, 6, "clt constants", start, failures, 30.0)


def test_criterion_06_supplement_attained_variance_rate(capsys):
    # The rate the exact arithmetic actually reaches, at the same tolerance.
    start = time.perf_counter()
    failures = []
    for family in ("path", "cycle"):
        report = clt_diagnostics(family, 200)
        if report.variance_rate_gap > 1e-6:
            failures.append(
                f"{family}: variance increment off sqrt(5)/25 by {report.variance_rate_gap:.3e}"
            )
    model = asymptotic_model_check()
    if model.variability_gap > 1e-4:
        failures.append(f"variability off sqrt(5)/25 by {model.variability_gap:.3e}")
    _report(capsys, 6, "clt constants (attained variance rate)", start, failures, 30.0)


def test_criterion_07_samplers(capsys):
    start = time.perf_counter()
    failures = []
    instances = [("path", n, sample_path) for n in range(2, 9)]
    instances += [("cycle", n, sample_cycle) for n in range(3, 9)]
    for family, n, sampler in instances:
        g = path_graph(n) if family == "path" else cycle_graph(n)
        support = set(enumerate_integrated(g))
        counts = Counter(sampler(n, 424242 + n, SAMPLES_PER_INSTANCE))
        if set(counts) != support:
            failures.append(f"{family} n={n}: sampled support differs from enumeration")
            continue
        cells = len(support)
        expected = SAMPLES_PER_INSTANCE / cells
        statistic = sum((obs - expected) ** 2 / expected for obs in counts.values())
        critical = chi2.isf(CHI_SQUARE_ALPHA, cells - 1)
        if statistic >= critical:
            failures.append(
                f"{family} n={n}: chi-square {statistic:.1f} >= {critical:.1f}"
            )
    _report(capsys, 7, "samplers", start, failures, 30.0)


def test_criterion_08_bounds(capsys, corpus, corpus_histograms):
    start = time.perf_counter()
    failures = []
    applicable = 0
    for name, g in corpus:
        report = bound_general(g)
        hist = corpus_histograms(name, g)
        if not report.applicable:
            continue
        applicable += 1
        if hist.ic > math.ceil(report.upper_bound):
            failures.append(f"{name}: ic {hist.ic} above bound {float(report.upper_bound):.2f}")
        if report.exact:
            if hist.ic != 1 << report.v_prime_size:
                failures.append(f"{name}: exact-flag value wrong")
            continue
        oracle = semirandom_oracle(g)
        if report.mu != oracle.ex or report.sigma_sq != oracle.ex2 - oracle.ex**2:
            failures.append(f"{name}: moments differ from the exhaustive oracle")
        if g.vertex_count and g.min_degree() >= 2:
            for variant in ("min_degree", "regular", "srg"):
                special = bound_specialized(g, variant)
                if special.applicable and (
                    special.upper_bound != report.upper_bound or special.mu != report.mu
                ):
                    failures.append(f"{name}: {variant} variant deviates from general")
    square = bound_general(cycle_graph(4))
    if (square.mu, square.sigma_sq, square.upper_bound) != (
        Fraction(3),
        Fraction(3, 2),
        Fraction(48, 5),
    ):
        failures.append("square worked instance broken")
    if corpus_histograms("cycle-4", cycle_graph(4)).ic != 6:
        failures.append("square exact count is not 6")
    if applicable < 120:
        failures.append(f"only {applicable} corpus graphs were applicable")
    _report(capsys, 8, "second-moment bounds", start, failures, 60.0)


def test_criterion_09_extremal(capsys, corpus, corpus_histograms):
    start = time.perf_counter()
    failures = []
    for name, g in corpus:
        hist = corpus_histograms(name, g)
        ext = extremal_bounds(g)
        if g.edge_count and 2 * hist.ims_min < g.edge_count:
            failures.append(f"{name}: spectrum minimum below half the edges")
        if hist.ims_max < ext.edwards:
            failures.append(f"{name}: spectrum maximum below the square-root bound")
        if is_connected(g) and Fraction(hist.ims_max) < ext.edwards_erdos:
            failures.append(f"{name}: spectrum maximum below the connected bound")
        cut = max_cut(g)
        if hist.ims_max != cut:
            failures.append(f"{name}: spectrum maximum {hist.ims_max} != max cut {cut}")
        if not _max_cut_colorings_all_integrated(g, cut):
            failures.append(f"{name}: a maximum-cut coloring is not integrated")
    _report(capsys, 9, "extremal inequalities", start, failures, 30.0)


def _max_cut_colorings_all_integrated(g, cut) -> bool:
    n = g.vertex_count
    if n == 0:
        return True
    edges = g.edges()
    for mask in range(1 << (n - 1)):
        size = sum(1 for u, v in edges if ((mask >> u) ^ (mask >> v)) & 1)
        if size == cut:
            coloring = tuple((mask >> v) & 1 for v in range(n))
            if not is_integrated(g, coloring)[0]:
                return False
    return True


@pytest.mark.parametrize("mutant", ["strict-compare", "carry-dropped", "scan-keeps-wrong-half"])
def test_kernel_mutants_fail_the_max_cut_coloring_reference(monkeypatch, mutant):
    # verify's check reports a maximum-cut coloring that is not integrated on
    # a graph where the reference finds every one integrated.
    install_mutant(monkeypatch, mutant)
    flagged = []
    for name, g in standard_corpus(20):
        hist = mix_histogram(g)
        detail = verify.check_extremal_inequalities(((name, g, None, hist, None),)).detail
        if detail.endswith("a maximum-cut coloring is not integrated"):
            flagged.append(_max_cut_colorings_all_integrated(g, hist.ims_max))
    assert any(flagged)


def test_criterion_10_propp(capsys, corpus):
    start = time.perf_counter()
    failures = []
    rng = random.Random(1000)
    runs = 0
    while runs < 1000:
        for name, g in corpus:
            if runs >= 1000:
                break
            runs += 1
            colors = [rng.choice((BLACK, WHITE)) for _ in range(g.vertex_count)]
            start_coloring = tuple(colors)
            flips = 0
            previous_mix = mix_of_coloring(g, start_coloring)
            while True:
                for v in range(g.vertex_count):
                    cv = colors[v]
                    if 2 * sum(1 for w in g.adjacency[v] if colors[w] != cv) < g.degree(v):
                        colors[v] ^= 1
                        flips += 1
                        current = mix_of_coloring(g, tuple(colors))
                        if current <= previous_mix:
                            failures.append(f"{name}: flip did not raise the mix")
                        previous_mix = current
                        break
                else:
                    break
            final = tuple(colors)
            if flips > g.edge_count:
                failures.append(f"{name}: {flips} flips exceed |E| = {g.edge_count}")
            if not is_integrated(g, final)[0]:
                failures.append(f"{name}: final coloring not integrated")
            library_final, library_flips = propp_local_search(g, start_coloring)
            if (library_final, library_flips) != (final, flips):
                failures.append(f"{name}: library disagrees with reference replay")
    _report(capsys, 10, "local search", start, failures, 10.0)
