from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from mixspec import enumeration, graph
from mixspec.corpus import standard_corpus
from mixspec.enumeration import (
    CapExceededError,
    _search,
    enumerate_integrated,
    max_cut,
    mix_histogram,
    propp_local_search,
)
from mixspec.graph import (
    BLACK,
    WHITE,
    adjacency_masks,
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


def _search_reference(g):
    """The search before its slacks were bit-sliced: per-vertex counts of
    opposite-colored and of assigned neighbors, updated and undone one
    neighbor at a time.  It is the oracle for ``_search``."""
    n = g.vertex_count
    if n == 0:
        yield (), 0
        return
    adj = adjacency_masks(g)
    deg = [len(nbrs) for nbrs in g.adjacency]
    earlier = [[w for w in nbrs if w < v] for v, nbrs in enumerate(g.adjacency)]
    later = [[w for w in nbrs if w > v] for v, nbrs in enumerate(g.adjacency)]
    full = (1 << n) - 1
    colors = [-1] * n  # -1: not tried yet; otherwise the color in force
    opp = [0] * n      # opposite-colored neighbors, counted once both ends are set
    seen = [0] * n     # assigned neighbors
    white = 0          # bitmask of white vertices
    balanced = 0       # balanced edges among assigned vertices
    last = n - 1
    v = 0
    while True:
        color = colors[v]
        if color >= 0:  # undo the assignment in force at v
            for w in later[v]:
                seen[w] -= 1
            for w in earlier[v]:
                seen[w] -= 1
                if colors[w] != color:
                    opp[w] -= 1
            balanced -= opp[v]
            opp[v] = 0
            if color == WHITE:
                white ^= 1 << v
                colors[v] = -1
                if v == 0:
                    return
                v -= 1
                continue
        color += 1  # BLACK (0) first, then WHITE (1)
        colors[v] = color
        if color == WHITE:
            white |= 1 << v
        for w in later[v]:
            seen[w] += 1
        gained = 0
        viable = True
        for w in earlier[v]:
            seen[w] += 1
            if colors[w] != color:
                opp[w] += 1
                gained += 1
            if 2 * (opp[w] + deg[w] - seen[w]) < deg[w]:
                viable = False
        opp[v] = gained
        balanced += gained
        if not viable or 2 * (gained + deg[v] - seen[v]) < deg[v]:
            continue
        if v < last:
            v += 1
            continue
        black = full ^ white
        for cw, a, d in zip(colors, adj, deg):
            if 2 * (a & (black if cw else white)).bit_count() < d:
                break
        else:
            yield tuple(colors), balanced


def gnp(n, p, seed):
    rng = random.Random(seed)
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], n)


def cycle_with_chords(n, chords, seed):
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < n + chords:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return build_graph(edges, n)


def with_isolated(g, isolated):
    """``g`` renumbered around the extra isolated vertices ``isolated``."""
    n = g.vertex_count + len(isolated)
    ids = [v for v in range(n) if v not in isolated]
    return build_graph([(ids[u], ids[v]) for u, v in g.edges()], n)


SEARCH_CASES = {
    **{f"gnp-{n}": gnp(n, 0.5, n) for n in range(12, 17)},
    "cycle-18-chords": cycle_with_chords(18, 6, 3),
    "star-300-leaf-edge": build_graph([(0, i) for i in range(1, 301)] + [(1, 2)], 301),
    "gnp-isolated": with_isolated(gnp(11, 0.5, 4), {0, 6, 13}),
    "edgeless-4": build_graph([], 4),
}


@pytest.mark.parametrize("case_id", sorted(SEARCH_CASES))
def test_search_matches_reference(case_id):
    g = SEARCH_CASES[case_id]
    assert list(_search(g)) == list(_search_reference(g))


@pytest.mark.parametrize("case_id", sorted(SEARCH_CASES))
def test_search_reaches_only_integrated_leaves(case_id, monkeypatch):
    # The prunes are exact, so the leaf guard, one integration test per
    # leaf, never rejects a leaf.  A missing prune keeps the yields right
    # (the guard catches it) but shows here as more leaves than yields.
    leaves = []

    def counting_failing_vertices(g):
        failing = graph.failing_vertices(g)

        def counted(white):
            leaves.append(1)
            return failing(white)

        return counted

    monkeypatch.setattr(enumeration, "failing_vertices", counting_failing_vertices)
    found = sum(1 for _ in _search(SEARCH_CASES[case_id]))
    assert len(leaves) == found


@pytest.mark.parametrize("g", [
    build_graph([], 0),
    build_graph([], 1),
    build_graph([], 5),
    build_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)], 8),  # triangle, path, isolated vertex
    gnp(16, 0.5, 16),
], ids=["n0", "n1", "edgeless", "disconnected", "gnp-16"])
def test_histogram_halving_matches_full_count(g):
    full = Counter(mix_of_coloring(g, c) for c in enumerate_integrated(g))
    assert mix_histogram(g).counts == dict(full)


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


def _check_propp_against_trace(g, start):
    final, flips = propp_local_search(g, start)
    ref_final, history = propp_trace(g, start)
    assert final == ref_final
    assert flips == len(history) - 1
    assert flips <= g.edge_count
    assert all(b > a for a, b in zip(history, history[1:]))
    assert is_integrated(g, final)[0]


@given(graphs(max_vertices=7))
@settings(max_examples=40, deadline=None)
def test_propp_strictly_increases_mix(g):
    rng = random.Random(11)
    _check_propp_against_trace(g, tuple(rng.choice((BLACK, WHITE)) for _ in range(g.vertex_count)))


def test_propp_matches_trace_on_corpus():
    rng = random.Random(12)
    for _, g in standard_corpus(100):
        for _ in range(3):
            _check_propp_against_trace(g, tuple(rng.choice((BLACK, WHITE)) for _ in range(g.vertex_count)))
