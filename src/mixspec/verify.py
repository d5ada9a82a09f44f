"""Cross-check suite: every closed form, distribution, generating function,
and bound in the package validated against the exhaustive enumerator.

This is the engine behind ``mixspec verify``.  Each check returns a pass/fail
result with a short detail string; informational notes surface definitional
discrepancies that are reported rather than silently resolved.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from . import families, genfunc
from .corpus import family_corpus, random_corpus
from .enumeration import MixHistogram, enumerate_integrated, max_cut, mix_histogram, propp_local_search
from .graph import (
    BLACK,
    WHITE,
    Graph,
    biclique_graph,
    complete_graph,
    cycle_graph,
    is_integrated,
    mix_of_coloring,
    neighborhood_stats,
    path_graph,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], ok_detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures[:5]))
    return CheckResult(name, True, ok_detail)


def check_complete_graphs(max_r: int) -> CheckResult:
    failures = []
    for r in range(1, max_r + 1):
        count, fixed_mix = families.ic_complete(r)
        hist = mix_histogram(complete_graph(r))
        expected = {fixed_mix: count} if r > 1 else {0: 2}
        if hist.counts != expected:
            failures.append(f"K_{r}: formula {expected} but enumeration {hist.counts}")
    return _result("complete-graphs", failures, f"orders 1..{max_r}")


def check_bicliques(max_total: int) -> CheckResult:
    failures = []
    for m in range(1, max_total):
        for n in range(m, max_total + 1 - m):
            count, spectrum = families.ic_biclique(m, n)
            hist = mix_histogram(biclique_graph(m, n))
            if hist.counts != spectrum or hist.ic != count:
                failures.append(f"K_{m},{n}: formula {spectrum} but enumeration {hist.counts}")
    return _result("bicliques", failures, f"part sizes summing to <= {max_total}")


def _histogram_pmf(hist: MixHistogram) -> dict[int, Fraction]:
    return {k: Fraction(c, hist.ic) for k, c in hist.counts.items()}


def check_paths(max_n: int) -> CheckResult:
    failures = []
    for n in range(1, max_n + 1):
        hist = mix_histogram(path_graph(n))
        if hist.ic != families.ic_path(n):
            failures.append(f"P_{n}: count {families.ic_path(n)} vs enumerated {hist.ic}")
        if n >= 2:
            pmf = families.path_pmf(n)
            if pmf.masses != _histogram_pmf(hist):
                failures.append(f"P_{n}: pmf mismatch")
    return _result("paths", failures, f"orders 1..{max_n}")


def check_cycles(max_n: int) -> CheckResult:
    failures = []
    for n in range(3, max_n + 1):
        hist = mix_histogram(cycle_graph(n))
        if hist.ic != families.ic_cycle(n):
            failures.append(f"C_{n}: count {families.ic_cycle(n)} vs enumerated {hist.ic}")
        pmf = families.cycle_pmf(n)
        if pmf.masses != _histogram_pmf(hist):
            failures.append(f"C_{n}: pmf mismatch")
        necklaces = list(families.necklace_enumerate(n))
        enum_set = set(enumerate_integrated(cycle_graph(n)))
        if len(necklaces) != len(enum_set) or set(necklaces) != enum_set:
            failures.append(f"C_{n}: necklace tiling disagrees with enumeration")
    return _result("cycles", failures, f"orders 3..{max_n}")


def check_cycle_closed_form(max_n: int = 64) -> CheckResult:
    failures = [
        f"n={n}: recurrence {families.ic_cycle(n)} vs closed form {families.cycle_count_closed_form(n)}"
        for n in range(2, max_n + 1)
        if families.ic_cycle(n) != families.cycle_count_closed_form(n)
    ]
    return _result("cycle-closed-form", failures, f"orders 2..{max_n}")


def check_sum_identities(max_n: int = 64) -> CheckResult:
    failures = []
    for n in range(2, max_n + 1):
        lo = (n + 1 - 1) // 2  # ceil((n-1)/2)
        path_sum = sum(families.path_mix_count(n, k) for k in range(lo, n))
        if path_sum != families.ic_path(n):
            failures.append(f"path sum n={n}: {path_sum} != {families.ic_path(n)}")
        cycle_sum = sum(
            families.cycle_mix_count(n, 2 * k) for k in range((n + 3) // 4, n // 2 + 1)
        )
        if cycle_sum != families.ic_cycle(n):
            failures.append(f"cycle sum n={n}: {cycle_sum} != {families.ic_cycle(n)}")
    return _result("spectrum-sum-identities", failures, f"orders 2..{max_n}")


def check_gf_against_pmfs(max_n: int = 64) -> CheckResult:
    failures = []
    path_polys = genfunc.path_gf_coeffs(max_n)
    cycle_polys = genfunc.cycle_gf_coeffs(max_n)
    for n in range(2, max_n + 1):
        poly = path_polys[n - 1]
        expected = [families.path_mix_count(n, k) for k in range(poly.degree + 1)]
        if list(poly.coeffs) != expected[: len(poly.coeffs)] or any(
            expected[len(poly.coeffs) :]
        ):
            failures.append(f"path gf n={n}")
        gpoly = cycle_polys[n - 2]
        gexpected = [families.cycle_mix_count(n, k) for k in range(gpoly.degree + 1)]
        if list(gpoly.coeffs) != gexpected[: len(gpoly.coeffs)]:
            failures.append(f"cycle gf n={n}")
    return _result("gf-vs-pmf-numerators", failures, f"orders 2..{max_n}")


def check_gf_counts(max_n: int = 256) -> CheckResult:
    failures = []
    path_polys = genfunc.path_gf_coeffs(max_n)
    cycle_polys = genfunc.cycle_gf_coeffs(max_n)
    for n in range(1, max_n + 1):
        if path_polys[n - 1].at_one() != families.ic_path(n):
            failures.append(f"path n={n}")
        if n >= 2 and cycle_polys[n - 2].at_one() != families.ic_cycle(n):
            failures.append(f"cycle n={n}")
    return _result("gf-counts", failures, f"orders up to {max_n}")


def check_asymptotic_model() -> CheckResult:
    report = genfunc.asymptotic_model_check()
    failures = []
    if abs(report.a_at_one - 1.0) > 1e-10:
        failures.append(f"A(1) = {report.a_at_one}")
    if abs(report.b_at_one - 1.0) > 1e-10:
        failures.append(f"B(1) = {report.b_at_one}")
    if report.b_prime_gap > 1e-6:
        failures.append(f"B'(1) off by {report.b_prime_gap}")
    if report.b_second_gap > 1e-4:
        failures.append(f"B''(1) off by {report.b_second_gap}")
    if report.variability_gap > 1e-4:
        failures.append(f"variability off by {report.variability_gap}")
    return _result(
        "asymptotic-model",
        failures,
        f"B'(1)={report.b_prime:.10f}, variability={report.variability:.10f}",
    )


def check_clt_increments() -> CheckResult:
    failures = []
    for family in ("path", "cycle"):
        report = genfunc.clt_diagnostics(family, 200)
        if report.mean_rate_gap > 1e-6:
            failures.append(f"{family}: mean increment off by {report.mean_rate_gap}")
        if report.variance_rate_gap > 1e-6:
            failures.append(f"{family}: variance increment off by {report.variance_rate_gap}")
    return _result("clt-increments", failures, "mean and variance rates at n=200")


def _corpus(random_count: int):
    return family_corpus(10) + random_corpus(random_count, 10)


def check_bound_moments(random_count: int) -> CheckResult:
    failures = []
    applicable = 0
    for name, g in _corpus(random_count):
        report = bounds_mod.bound_general(g)
        if not report.applicable:
            continue
        applicable += 1
        hist = mix_histogram(g)
        if report.exact:
            expected = (1 << report.v_prime_size)
            if hist.ic != expected:
                failures.append(f"{name}: exact-flag bound {expected} but ic {hist.ic}")
            continue
        oracle = bounds_mod.semirandom_oracle(g)
        if report.mu != oracle.ex:
            failures.append(f"{name}: mu {report.mu} vs oracle {oracle.ex}")
        if report.sigma_sq != oracle.ex2 - oracle.ex * oracle.ex:
            failures.append(f"{name}: sigma^2 mismatch")
        if report.mu >= report.v_double_prime_size:
            failures.append(f"{name}: mu must stay below |V''|")
        if hist.ic > math.ceil(report.upper_bound):
            failures.append(f"{name}: ic {hist.ic} exceeds bound {float(report.upper_bound)}")
        if oracle.prob_integrated != Fraction(hist.ic, 1 << report.v_prime_size):
            failures.append(f"{name}: oracle probability mismatch")
    return _result("bound-moments-and-soundness", failures, f"{applicable} applicable graphs")


def check_alpha_pairs(random_count: int) -> CheckResult:
    failures = []
    checked = 0
    for name, g in _corpus(random_count):
        if bounds_mod.bound_general(g).applicable is False:
            continue
        if any(g.degree(v) == 0 for v in range(g.vertex_count)):
            continue
        stats = neighborhood_stats(g)
        if not stats.v_double_prime:
            continue
        joint = bounds_mod.pair_joint_moments(g)
        for (v, w), expected in joint.items():
            j = int(g.has_edge(v, w))
            a0 = bounds_mod.alpha(g, stats, v, w, 0, j)
            a1 = bounds_mod.alpha(g, stats, v, w, 1, j)
            if not (0 <= a0 <= 1 and 0 <= a1 <= 1):
                failures.append(f"{name}: alpha outside [0,1] for pair ({v},{w})")
            if Fraction(1, 2) * (a0 + a1) != expected:
                failures.append(f"{name}: pair ({v},{w}) alpha average != E[Iv Iw]")
            checked += 1
    return _result("alpha-pair-moments", failures, f"{checked} pairs")


def check_specialized_bounds(random_count: int) -> CheckResult:
    failures = []
    compared = 0
    for name, g in _corpus(random_count):
        general = bounds_mod.bound_general(g)
        if not general.applicable:
            continue
        if g.vertex_count and g.min_degree() >= 2:
            for variant in ("min_degree", "regular", "srg"):
                special = bounds_mod.bound_specialized(g, variant)
                if not special.applicable:
                    continue
                compared += 1
                if special.upper_bound != general.upper_bound or special.mu != general.mu:
                    failures.append(f"{name}: {variant} bound differs from general")
    return _result("specialized-bounds", failures, f"{compared} comparisons")


def check_extremal_inequalities(random_count: int) -> CheckResult:
    failures = []
    for name, g in _corpus(random_count):
        hist = mix_histogram(g)
        ext = bounds_mod.extremal_bounds(g)
        if g.edge_count and 2 * hist.ims_min < g.edge_count:
            failures.append(f"{name}: spectrum minimum below |E|/2")
        cut = max_cut(g)
        if hist.ims_max != cut:
            failures.append(f"{name}: spectrum maximum {hist.ims_max} != max cut {cut}")
        if hist.ims_max < ext.edwards:
            failures.append(f"{name}: spectrum maximum below the square-root cut bound")
        if ext.edwards_erdos is not None and Fraction(hist.ims_max) < ext.edwards_erdos:
            failures.append(f"{name}: spectrum maximum below the connected cut bound")
        if not _max_cut_colorings_integrated(g, cut):
            failures.append(f"{name}: a maximum-cut coloring is not integrated")
    return _result("extremal-inequalities", failures, "spectrum bounds on the corpus")


def _max_cut_colorings_integrated(g: Graph, cut: int) -> bool:
    n = g.vertex_count
    if n == 0:
        return True
    edge_list = g.edges()
    for mask in range(1 << (n - 1)):
        size = sum(1 for u, v in edge_list if ((mask >> u) ^ (mask >> v)) & 1)
        if size == cut:
            coloring = tuple((mask >> v) & 1 for v in range(n))
            if not is_integrated(g, coloring)[0]:
                return False
    return True


def check_propp(random_count: int, starts_per_graph: int = 3, seed: int = 7) -> CheckResult:
    rng = random.Random(seed)
    failures = []
    runs = 0
    for name, g in _corpus(random_count):
        for _ in range(starts_per_graph):
            start = tuple(rng.choice((BLACK, WHITE)) for _ in range(g.vertex_count))
            final, flips = propp_local_search(g, start)
            runs += 1
            if not is_integrated(g, final)[0]:
                failures.append(f"{name}: local search ended non-integrated")
            if flips > g.edge_count:
                failures.append(f"{name}: {flips} flips exceeds |E| = {g.edge_count}")
            if mix_of_coloring(g, final) < mix_of_coloring(g, start):
                failures.append(f"{name}: mixing number decreased")
    return _result("propp-local-search", failures, f"{runs} runs")


def informational_notes(max_n: int) -> list[str]:
    notes = []
    odd_gaps = [
        n
        for n in range(3, max_n + 1, 2)
        if families.path_mix_count(n, (n - 1) // 2) == 0
    ]
    if odd_gaps:
        notes.append(
            "path spectra: the nominal lower endpoint (n-1)/2 carries zero colorings "
            f"for every odd n (checked {odd_gaps[:4]}...); reported supports are exact."
        )
    report = genfunc.clt_diagnostics("path", 200)
    notes.append(
        "variance growth: exact increments converge to sqrt(5)/25 = "
        f"{genfunc.VARIANCE_GROWTH_RATE:.7f} (measured {report.delta_variance:.7f} at n=200); "
        f"the circulated value {genfunc.VARIANCE_GROWTH_RATE_QUOTED:.7f} is inconsistent "
        "with B'(1) and B''(1) and is not matched."
    )
    notes.append(
        "mean offset: the constant term of the mean stabilizes empirically at "
        f"{report.mean_offset:.7f} (no closed form is asserted)."
    )
    return notes


def run_checks(max_n: int = 12, random_count: int = 100) -> tuple[list[CheckResult], list[str]]:
    """Run the full cross-check suite.

    ``max_n`` caps the family orders that are exhaustively enumerated;
    ``random_count`` sizes the random part of the bound corpus.
    """
    results = [
        check_complete_graphs(min(max_n, 9)),
        check_bicliques(min(max_n, 10)),
        check_paths(max_n),
        check_cycles(max_n),
        check_cycle_closed_form(),
        check_sum_identities(),
        check_gf_against_pmfs(),
        check_gf_counts(),
        check_asymptotic_model(),
        check_clt_increments(),
        check_bound_moments(random_count),
        check_alpha_pairs(random_count),
        check_specialized_bounds(random_count),
        check_extremal_inequalities(random_count),
        check_propp(random_count),
    ]
    return results, informational_notes(max_n)
