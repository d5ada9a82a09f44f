from __future__ import annotations

import tracemalloc
from itertools import islice

import pytest

from mixspec import bounds, families, verify
from mixspec.corpus import family_corpus, random_corpus, standard_corpus
from mixspec.graph import BLACK, is_connected
from mixspec.verify import run_checks


def test_run_checks_all_pass():
    results, notes = run_checks(max_n=8, random_count=10)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert len(results) == 15
    assert any("variance growth" in note for note in notes)
    assert any("path spectra" in note for note in notes)


def test_random_corpus_is_deterministic_and_valid():
    a = random_corpus(12, 9, seed=3)
    b = random_corpus(12, 9, seed=3)
    assert [g for _, g in a] == [g for _, g in b]
    for _, g in a:
        assert g.min_degree() >= 2
        assert is_connected(g)
        assert g.vertex_count <= 9


def test_standard_corpus_composition():
    corpus = standard_corpus(random_count=7)
    names = [name for name, _ in corpus]
    assert "petersen" in names and "cube" in names
    assert sum(1 for n in names if n.startswith("random-")) == 7
    assert len(names) == len(set(names))
    assert len(family_corpus()) + 7 == len(corpus)


def _failed() -> set[str]:
    results, _ = run_checks(max_n=6, random_count=20)
    return {r.name for r in results if not r.passed}


def test_census_runs_once_per_applicable_inexact_graph(monkeypatch):
    scanned = []
    real = bounds.census

    def counting(g, *args, **kwargs):
        scanned.append(g)
        return real(g, *args, **kwargs)

    # Both names, so that a scan an oracle starts on its own is counted too.
    monkeypatch.setattr(bounds, "census", counting)
    monkeypatch.setattr(bounds, "_census", counting)
    assert _failed() == set()
    reports = [(g, bounds.bound_general(g)) for _, g in standard_corpus(20)]
    assert scanned == [g for g, r in reports if r.applicable and not r.exact]


# Each input the checks share, made wrong in one place, must fail the checks
# that read it and no other.


def test_census_short_of_one_draw_fails_the_oracle_checks(monkeypatch):
    real = bounds.census

    def short(g, *args, **kwargs):
        masks, draws = real(g, *args, **kwargs)
        kept = (1 << (draws - 1)) - 1  # every draw but the last
        return {v: mask & kept for v, mask in masks.items()}, draws - 1

    monkeypatch.setattr(bounds, "census", short)
    assert _failed() == {"bound-moments-and-soundness", "alpha-pair-moments"}


def test_shifted_cycle_pmf_fails_the_cycle_check(monkeypatch):
    real = families.cycle_pmf

    def shifted(n):
        pmf = real(n)
        return pmf._replace(counts={mix + 1: c for mix, c in pmf.counts.items()})

    monkeypatch.setattr(families, "cycle_pmf", shifted)
    assert _failed() == {"cycles"}


@pytest.mark.parametrize(
    "edit",
    [
        lambda n, words: words + words[:1],
        lambda n, words: words[1:],
        lambda n, words: [(BLACK,) * n] + words[1:],
    ],
    ids=["repeated", "dropped", "all-black"],
)
def test_necklace_tiling_made_wrong_fails_the_cycle_check(monkeypatch, edit):
    real = families.necklace_enumerate
    monkeypatch.setattr(families, "necklace_enumerate", lambda n: edit(n, list(real(n))))
    assert _failed() == {"cycles"}


def test_search_short_of_one_coloring_fails_the_cycle_check(monkeypatch):
    real = verify.enumerate_integrated
    monkeypatch.setattr(verify, "enumerate_integrated", lambda g: islice(real(g), 1, None))
    assert _failed() == {"cycles"}


def test_mix_off_by_one_fails_the_cycle_check(monkeypatch):
    # The Propp check reads the mix too, but only compares two of its values.
    real = verify.mix_of_coloring
    monkeypatch.setattr(verify, "mix_of_coloring", lambda g, c: real(g, c) + 1)
    assert _failed() == {"cycles"}


def test_cycle_check_holds_only_packed_colorings():
    # C_15's colorings held as tuples, in a list and in sets, take more than
    # twice this bound.
    tracemalloc.start()
    try:
        assert verify.check_cycles(15).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19


def test_max_cut_off_by_one_fails_the_extremal_check(monkeypatch):
    real = verify.max_cut
    monkeypatch.setattr(verify, "max_cut", lambda g: real(g) + 1)
    assert _failed() == {"extremal-inequalities"}


def test_ims_lower_off_by_one_fails_the_extremal_check(monkeypatch):
    real = bounds.extremal_bounds

    def raised(g):
        ext = real(g)
        return ext._replace(ims_lower=ext.ims_lower + 1)

    monkeypatch.setattr(bounds, "extremal_bounds", raised)
    assert _failed() == {"extremal-inequalities"}
