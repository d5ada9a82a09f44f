from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from mixspec.enumeration import (
    CapExceededError,
    enumerate_integrated,
    max_cut,
    mix_histogram,
    propp_local_search,
)
from mixspec.graph import (
    BLACK,
    WHITE,
    biclique_graph,
    build_graph,
    coloring_from_string,
    complete_graph,
    cycle_graph,
    is_integrated,
    mix_of_coloring,
    mix_of_vertex,
    path_graph,
    petersen_graph,
)

from conftest import graphs


def brute_force_integrated(g):
    """Independent oracle: filter all 2^n colorings."""
    return [
        c
        for c in itertools.product((BLACK, WHITE), repeat=g.vertex_count)
        if is_integrated(g, c)[0]
    ]


def test_path3_enumeration():
    assert list(enumerate_integrated(path_graph(3))) == [
        coloring_from_string("BWB"),
        coloring_from_string("WBW"),
    ]


def test_k4_enumeration():
    out = list(enumerate_integrated(complete_graph(4)))
    assert len(out) == 6
    assert all(sum(c) == 2 for c in out)  # balanced 2+2 splits


def test_single_vertex():
    assert list(enumerate_integrated(build_graph([], 1))) == [(BLACK,), (WHITE,)]


def test_enumeration_is_lexicographic_and_deterministic():
    g = cycle_graph(6)
    first = list(enumerate_integrated(g))
    second = list(enumerate_integrated(g))
    assert first == second == sorted(first)


def test_cap_enforced():
    g = build_graph([], 25)
    with pytest.raises(CapExceededError, match="24"):
        list(enumerate_integrated(g))
    with pytest.raises(CapExceededError, match="10"):
        list(enumerate_integrated(build_graph([], 11), cap=10))
    with pytest.raises(CapExceededError):
        max_cut(build_graph([], 30))


@given(graphs(max_vertices=7))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force(g):
    assert list(enumerate_integrated(g)) == brute_force_integrated(g)


def test_enumeration_matches_brute_force_larger():
    for g in (petersen_graph(), biclique_graph(3, 4), cycle_graph(9), path_graph(12)):
        assert list(enumerate_integrated(g)) == brute_force_integrated(g)


def test_mix_histogram_square():
    hist = mix_histogram(cycle_graph(4))
    assert hist.counts == {2: 4, 4: 2}
    assert hist.ic == 6
    assert hist.ims == (2, 4)
    assert hist.ims_min == 2 and hist.ims_max == 4


def test_mix_histogram_biclique22():
    hist = mix_histogram(biclique_graph(2, 2))
    assert hist.ic == 6
    assert hist.ims == (2, 4)


def test_mix_histogram_triangle():
    hist = mix_histogram(complete_graph(3))
    assert hist.ic == 6
    assert hist.ims == (2,)


def test_max_cut_values():
    assert max_cut(cycle_graph(4)) == 4
    assert max_cut(complete_graph(4)) == 4
    assert max_cut(build_graph([], 4)) == 0
    assert max_cut(petersen_graph()) == 12


@given(graphs(max_vertices=8))
@settings(max_examples=60, deadline=None)
def test_histogram_matches_recount(g):
    # The kernel's incremental mix against the O(m) recount of each coloring.
    expected = Counter(mix_of_coloring(g, c) for c in brute_force_integrated(g))
    assert mix_histogram(g).counts == dict(expected)


@given(graphs(max_vertices=9))
@settings(max_examples=60, deadline=None)
def test_max_cut_matches_brute_force(g):
    edges = g.edges()
    best = max(
        sum(c[u] != c[v] for u, v in edges)
        for c in itertools.product((BLACK, WHITE), repeat=g.vertex_count)
    )
    assert max_cut(g) == best


@given(graphs(max_vertices=7))
@settings(max_examples=40, deadline=None)
def test_histogram_invariants(g):
    hist = mix_histogram(g)
    assert sum(hist.counts.values()) == hist.ic
    if g.edge_count:
        assert 2 * hist.ims_min >= g.edge_count
    assert hist.ims_max == max_cut(g)


def test_propp_monochromatic_square():
    c4 = cycle_graph(4)
    final, flips = propp_local_search(c4, (BLACK,) * 4)
    assert is_integrated(c4, final)[0]
    assert 1 <= flips <= c4.edge_count


def test_propp_fixed_point():
    c4 = cycle_graph(4)
    start = coloring_from_string("WWBB")
    assert propp_local_search(c4, start) == (start, 0)


def test_propp_monochromatic_k4():
    k4 = complete_graph(4)
    final, flips = propp_local_search(k4, (WHITE,) * 4)
    assert is_integrated(k4, final)[0]
    assert mix_of_coloring(k4, final) == 4


def propp_trace(g, start):
    """Reference replay of the flip sequence, recording mix after each flip."""
    colors = list(start)
    history = [mix_of_coloring(g, tuple(colors))]
    while True:
        for v in range(g.vertex_count):
            if 2 * mix_of_vertex(g, tuple(colors), v) < g.degree(v):
                colors[v] ^= 1
                history.append(mix_of_coloring(g, tuple(colors)))
                break
        else:
            return tuple(colors), history


@given(graphs(max_vertices=7))
@settings(max_examples=40, deadline=None)
def test_propp_strictly_increases_mix(g):
    rng = random.Random(11)
    start = tuple(rng.choice((BLACK, WHITE)) for _ in range(g.vertex_count))
    final, flips = propp_local_search(g, start)
    ref_final, history = propp_trace(g, start)
    assert final == ref_final
    assert flips == len(history) - 1
    assert flips <= g.edge_count
    assert all(b > a for a, b in zip(history, history[1:]))
    assert is_integrated(g, final)[0]
