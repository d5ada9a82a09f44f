"""Cross-check suite: every closed form, distribution, generating function,
and bound in the package validated against the exhaustive enumerator.

This is the engine behind ``mixspec verify``.  Each check returns a pass/fail
result with a short detail string; informational notes surface definitional
discrepancies that are reported rather than silently resolved.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import bounds as bounds_mod
from . import families, genfunc
from .corpus import standard_corpus
from .enumeration import (
    _max_cut_splits,
    enumerate_integrated,
    max_cut,
    mix_histogram,
    propp_local_search,
)
from .graph import (
    BLACK,
    WHITE,
    biclique_graph,
    complete_graph,
    cycle_graph,
    integrated_columns,
    is_integrated,
    mix_of_coloring,
    neighborhood_stats,
    path_graph,
)


class CheckResult(NamedTuple):
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
        expected = {fixed_mix: count}
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


def check_paths(max_n: int) -> CheckResult:
    failures = []
    for n in range(1, max_n + 1):
        hist = mix_histogram(path_graph(n))
        if hist.ic != families.ic_path(n):
            failures.append(f"P_{n}: count {families.ic_path(n)} vs enumerated {hist.ic}")
        if families.path_pmf(n).counts != hist.counts:
            failures.append(f"P_{n}: pmf mismatch")
    return _result("paths", failures, f"orders 1..{max_n}")


def check_cycles(max_n: int) -> CheckResult:
    failures = []
    for n in range(3, max_n + 1):
        g = cycle_graph(n)
        # One pass over the search: each coloring's set-based mix is counted
        # and only its packed bytes are kept, so no tuple outlives its step.
        mixes = Counter()
        packed = []
        for c in enumerate_integrated(g):
            mixes[mix_of_coloring(g, c)] += 1
            packed.append(bytes(c))
        if len(packed) != families.ic_cycle(n):
            failures.append(f"C_{n}: count {families.ic_cycle(n)} vs enumerated {len(packed)}")
        if families.cycle_pmf(n).counts != mixes:
            failures.append(f"C_{n}: pmf mismatch")
        # Equal sorted lists are equal multisets: a coloring repeated,
        # missing or extra in either source shows.
        packed.sort()
        if sorted(map(bytes, families.necklace_enumerate(n))) != packed:
            failures.append(f"C_{n}: necklace tiling disagrees with enumeration")
    return _result("cycles", failures, f"orders 3..{max_n}")


def check_cycle_closed_form() -> CheckResult:
    failures = [
        f"n={n}: recurrence {families.ic_cycle(n)} vs closed form {families.cycle_count_closed_form(n)}"
        for n in range(2, 65)
        if families.ic_cycle(n) != families.cycle_count_closed_form(n)
    ]
    return _result("cycle-closed-form", failures, "orders 2..64")


def check_sum_identities() -> CheckResult:
    failures = []
    for n in range(2, 65):
        lo = (n + 1 - 1) // 2  # ceil((n-1)/2)
        path_sum = sum(families.path_mix_count(n, k) for k in range(lo, n))
        if path_sum != families.ic_path(n):
            failures.append(f"path sum n={n}: {path_sum} != {families.ic_path(n)}")
        cycle_sum = sum(
            families.cycle_mix_count(n, 2 * k) for k in range((n + 3) // 4, n // 2 + 1)
        )
        if cycle_sum != families.ic_cycle(n):
            failures.append(f"cycle sum n={n}: {cycle_sum} != {families.ic_cycle(n)}")
    return _result("spectrum-sum-identities", failures, "orders 2..64")


def check_gf_against_pmfs() -> CheckResult:
    max_n = 64
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


def check_gf_counts() -> CheckResult:
    max_n = 256
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


def _bound_corpus(random_count: int) -> tuple[tuple, ...]:
    """The corpus with each graph's exhaustive passes, which ``run_checks``
    makes once and hands to each corpus check: entries (name, graph, general
    bound, ``mix_histogram``, ``bounds.census``), the census None unless the
    bound is applicable and not exact.  Nothing in an entry is mutated, so
    sharing them is safe."""
    corpus = []
    for name, g in standard_corpus(random_count):
        report = bounds_mod.bound_general(g)
        census = bounds_mod.census(g) if report.applicable and not report.exact else None
        corpus.append((name, g, report, mix_histogram(g), census))
    return tuple(corpus)


def check_bound_moments(corpus: tuple[tuple, ...]) -> CheckResult:
    failures = []
    applicable = 0
    for name, g, report, hist, census in corpus:
        if not report.applicable:
            continue
        applicable += 1
        if report.exact:
            expected = (1 << report.v_prime_size)
            if hist.ic != expected:
                failures.append(f"{name}: exact-flag bound {expected} but ic {hist.ic}")
            continue
        oracle = bounds_mod.semirandom_oracle(g, census=census)
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


def check_alpha_pairs(corpus: tuple[tuple, ...]) -> CheckResult:
    failures = []
    checked = 0
    for name, g, _, _, census in corpus:
        if census is None:
            continue
        stats = neighborhood_stats(g)
        joint = bounds_mod.pair_joint_moments(g, census=census)
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


def check_specialized_bounds(corpus: tuple[tuple, ...]) -> CheckResult:
    failures = []
    compared = 0
    for name, g, general, *_ in corpus:
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


def check_extremal_inequalities(corpus: tuple[tuple, ...]) -> CheckResult:
    failures = []
    for name, g, _, hist, _ in corpus:
        ext = bounds_mod.extremal_bounds(g)
        if hist.ims_min < ext.ims_lower:
            failures.append(f"{name}: spectrum minimum below |E|/2")
        cut = max_cut(g)
        if hist.ims_max != cut:
            failures.append(f"{name}: spectrum maximum {hist.ims_max} != max cut {cut}")
        if hist.ims_max < ext.edwards:
            failures.append(f"{name}: spectrum maximum below the square-root cut bound")
        if ext.edwards_erdos is not None and Fraction(hist.ims_max) < ext.edwards_erdos:
            failures.append(f"{name}: spectrum maximum below the connected cut bound")
        _, splits, columns = _max_cut_splits(g)  # the kernel tests these splits alone
        if any(splits & ~mask for mask in integrated_columns(g, columns, splits)):
            failures.append(f"{name}: a maximum-cut coloring is not integrated")
    return _result("extremal-inequalities", failures, "spectrum bounds on the corpus")


def check_propp(corpus: tuple[tuple, ...]) -> CheckResult:
    rng = random.Random(7)
    failures = []
    runs = 0
    for name, g, *_ in corpus:
        for _ in range(3):  # random starts per graph
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


def run_checks(max_n: int, random_count: int) -> tuple[list[CheckResult], list[str]]:
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
    ]
    # Made after the family checks, so that it is not held while they run.
    # They hold little (the cycle check keeps only packed colorings), so the
    # peak memory of ``verify`` is reached from here on.
    corpus = _bound_corpus(random_count)
    results += [
        check(corpus)
        for check in (check_bound_moments, check_alpha_pairs, check_specialized_bounds,
                      check_extremal_inequalities, check_propp)
    ]
    return results, informational_notes(max_n)
