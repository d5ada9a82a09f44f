"""The exact-histogram dispatcher and its two fast engines (closed forms and
the frontier DP), each checked against the search in ``mix_histogram``."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixspec import enumeration, genfunc
from mixspec.cli import main
from mixspec.corpus import standard_corpus
from mixspec.enumeration import (
    FRONTIER_STATE_BUDGET,
    CapExceededError,
    _closed_form_counts,
    _frontier_counts,
    _frontier_order,
    exact_histogram,
    mix_histogram,
)
from mixspec.families import cycle_pmf, ic_cycle, path_pmf
from mixspec.graph import (
    Graph,
    biclique_graph,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)

from conftest import graphs, install_mutant


def _gnp(seed: int, n: int, p: float) -> Graph:
    rng = random.Random(seed)
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], n)


def _grid(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return build_graph(edges, rows * cols)


def _star_plus_edge(leaves: int) -> Graph:
    # Not a biclique, so it reaches the DP; the hub makes a min-scan greedy quadratic.
    return build_graph([(0, leaf) for leaf in range(1, leaves + 1)] + [(1, 2)], leaves + 1)


def _reference_greedy(g: Graph) -> list[int]:
    """Reference greedy order: rescan every candidate at each step and take
    the one that grows the frontier least, the lower id on a tie."""
    adjacency = g.adjacency
    n = g.vertex_count
    unplaced = [len(nbrs) for nbrs in adjacency]
    placed = [False] * n
    candidates: set[int] = set()
    starts = iter(sorted(range(n), key=lambda v: (unplaced[v], v)))
    order: list[int] = []

    def growth(v: int) -> tuple[int, int]:
        left = sum(1 for w in adjacency[v] if placed[w] and unplaced[w] == 1)
        return (unplaced[v] > 0) - left, v

    for _ in range(n):
        if candidates:
            v = min(candidates, key=growth)
        else:
            v = next(u for u in starts if not placed[u])
        order.append(v)
        placed[v] = True
        candidates.discard(v)
        for w in adjacency[v]:
            unplaced[w] -= 1
            if not placed[w]:
                candidates.add(w)
    return order


def _reference_profile(g: Graph, order: list[int]) -> tuple[int, int]:
    """Reference walk over all of ``order``: the largest frontier and the
    largest product bound on the DP's states."""
    adjacency = g.adjacency
    half = [(len(nbrs) + 1) // 2 for nbrs in adjacency]
    unplaced = [len(nbrs) for nbrs in adjacency]
    frontier: set[int] = set()
    width = bound = 0
    for v in order:
        for w in adjacency[v]:
            unplaced[w] -= 1
            if unplaced[w] == 0:
                frontier.discard(w)
        if unplaced[v]:
            frontier.add(v)
        states = 1
        for u in frontier:
            states *= 2 * (min(half[u], unplaced[u]) + 1)
        width = max(width, len(frontier))
        bound = max(bound, states)
    return width, bound


@st.composite
def graph_and_order(draw, max_vertices: int = 10):
    g = draw(graphs(max_vertices))
    return g, draw(st.permutations(range(g.vertex_count)))


@given(graph_and_order())
@settings(max_examples=200, deadline=None)
def test_frontier_dp_matches_search_in_any_order(case):
    # The DP is exact for every vertex order; the order only changes its cost.
    g, order = case
    expected = mix_histogram(g)
    assert _frontier_counts(g, list(order)) == expected.counts
    assert exact_histogram(g) == expected


def test_frontier_dp_matches_search_on_corpus():
    for name, g in standard_corpus(100):
        expected = mix_histogram(g)
        assert _frontier_counts(g, list(range(g.vertex_count))) == expected.counts, name
        assert exact_histogram(g) == expected, name


def _on_corpus(engine):
    return [engine(g) for _, g in standard_corpus(100)]


_PRODUCERS = {
    "mix_histogram": lambda: _on_corpus(mix_histogram),
    "exact_histogram": lambda: _on_corpus(exact_histogram),
    "path_pmf": lambda: [path_pmf(n) for n in range(2, 61)],
    "cycle_pmf": lambda: [cycle_pmf(n) for n in range(2, 61)],
}


def test_corpus_reaches_every_exact_engine():
    engines = {"closed form" if _closed_form_counts(g) is not None
               else "frontier DP" if _frontier_order(g) is not None else "search"
               for _, g in standard_corpus(100)}
    assert engines == {"closed form", "frontier DP", "search"}


@pytest.mark.parametrize("producer", list(_PRODUCERS))
def test_histograms_are_ascending_without_zeros(producer):
    # What MixHistogram promises, from every function that returns one.
    for hist in _PRODUCERS[producer]():
        mixes = list(hist.counts)
        assert all(a < b for a, b in zip(mixes, mixes[1:])), mixes
        assert min(hist.counts.values()) > 0
        assert hist.ims == tuple(mixes)
        assert sum(hist.masses.values()) == 1


@pytest.mark.parametrize("n", list(range(2, 41)) + [99, 100, 201, 254, 399, 400])
def test_frontier_dp_matches_gf_rows(n):
    cases = [(path_graph(n), genfunc.path_gf_coeff(n))]
    if n >= 3:
        cases.append((cycle_graph(n), genfunc.cycle_gf_coeff(n)))
    for graph, row in cases:
        order = _frontier_order(graph)
        assert order is not None
        expected = {k: c for k, c in enumerate(row.coeffs) if c}
        assert _frontier_counts(graph, order) == expected
        assert exact_histogram(graph, cap=n).counts == expected


def test_empty_and_edgeless_graphs():
    for n in range(5):
        g = build_graph([], n)
        assert _closed_form_counts(g) == ({0: 2} if n == 1 else None)
        assert exact_histogram(g) == mix_histogram(g) == enumeration.MixHistogram({0: 2**n})


def _recognized():
    yield from (complete_graph(r) for r in range(1, 10))
    yield from (biclique_graph(a, b) for a in range(1, 6) for b in range(a, 7))
    # Vertex 0 on the larger side; with a = 1, K_{1,b} with 0 as a leaf (the
    # loop above has it as the hub).
    yield from (biclique_graph(b, a) for a in range(1, 6) for b in range(a + 1, 7))
    # A biclique with its parts interleaved: ids do not reveal the sides.
    yield build_graph([(u, v) for u in range(8) for v in range(8) if u % 2 == 0 and v % 2], 8)
    # Shuffled ids, with vertex 0 on the smaller side, then on the larger one.
    for a, b in ((3, 5), (5, 3), (1, 7), (7, 1)):
        ids = list(range(a + b))
        random.Random(a).shuffle(ids)
        ids[ids.index(0)], ids[0] = ids[0], 0
        yield build_graph([(ids[u], ids[v]) for u, v in biclique_graph(a, b).edges()], a + b)


def _near_misses():
    # K_3 minus an edge is the biclique K_{1,2}, so the misses start at K_4.
    for r in range(4, 9):
        yield build_graph([e for e in complete_graph(r).edges() if e != (0, 1)], r)
    for a, b in ((1, 3), (2, 2), (2, 3), (3, 4), (4, 4)):
        # An edge inside a part (vertex ids 0..a-1, then a..a+b-1).
        if a >= 2:
            yield build_graph(biclique_graph(a, b).edges() + [(0, 1)], a + b)
        yield build_graph(biclique_graph(a, b).edges() + [(a, a + 1)], a + b)
        # Two disjoint copies: bipartite, but not connected.
        k = a + b
        copy = [(u + k, v + k) for u, v in biclique_graph(a, b).edges()]
        yield build_graph(biclique_graph(a, b).edges() + copy, 2 * k)
        # A biclique with an isolated vertex.
        yield build_graph(biclique_graph(a, b).edges(), a + b + 1)
        # One edge missing, at vertex 0 and elsewhere.
        yield build_graph([e for e in biclique_graph(a, b).edges() if e != (0, a)], a + b)
        if a >= 2:
            yield build_graph([e for e in biclique_graph(a, b).edges() if e != (1, a + 1)], a + b)
    yield petersen_graph()


def test_closed_forms_match_search():
    for g in _recognized():
        counts = _closed_form_counts(g)
        assert counts == mix_histogram(g).counts
        assert exact_histogram(g) == mix_histogram(g)


def test_near_misses_are_not_recognized():
    for g in _near_misses():
        assert _closed_form_counts(g) is None
        assert exact_histogram(g) == mix_histogram(g)


def test_over_budget_graph_reaches_search_without_dp_state(monkeypatch):
    dense = _gnp(3, 16, 0.5)
    assert _frontier_order(dense) is None
    expected = mix_histogram(dense)

    def no_dp(g, order):
        raise AssertionError("the DP ran on a graph over the budget")

    searched = []

    def search(g, cap=None):
        searched.append(g)
        return expected

    monkeypatch.setattr(enumeration, "_frontier_counts", no_dp)
    monkeypatch.setattr(enumeration, "mix_histogram", search)
    assert exact_histogram(dense) == expected
    assert searched == [dense]


def test_budget_bounds_the_chosen_order():
    # Narrow graphs pass, whichever order wins; the dense control does not.
    for g in (cycle_graph(24), _grid(4, 6), _grid(3, 60), path_graph(500)):
        order = _frontier_order(g)
        assert sorted(order) == list(range(g.vertex_count))
        assert _reference_profile(g, order)[1] <= FRONTIER_STATE_BUDGET
    # Id order runs along the rows of the 3x60 grid, 60 wide; the greedy
    # order runs down the columns.
    order = _frontier_order(_grid(3, 60))
    assert _reference_profile(_grid(3, 60), order)[0] == 3
    assert _frontier_order(_gnp(1, 22, 0.5)) is None


def _order_cases():
    yield from (g for _, g in standard_corpus(300))
    yield from (_grid(3, 60), path_graph(500), cycle_graph(400), _star_plus_edge(1500))


def _gated_reference(g: Graph) -> list[int] | None:
    """The reference greedy order when its reference bound fits the budget."""
    order = _reference_greedy(g)
    return order if _reference_profile(g, order)[1] <= FRONTIER_STATE_BUDGET else None


def _random_gnp(count: int) -> list[Graph]:
    # Seeded G(n <= 24, p): some fit the budget, and some pass it.
    rng = random.Random(0)
    return [_gnp(rng.getrandbits(32), rng.randint(1, 24), rng.choice((0.1, 0.15, 0.2, 0.3, 0.5)))
            for _ in range(count)]


def _gate_cases():
    yield from _order_cases()
    yield from _random_gnp(3000)


def test_greedy_order_matches_reference():
    for g in _order_cases():
        assert _frontier_order(g) == _gated_reference(g)


def test_state_bound_matches_reference_within_budget():
    # The gate gives up exactly when the reference bound of the greedy order
    # passes the budget; the cases land on both sides of it.
    dense = [_gnp(seed, 22, 0.5) for seed in range(3)] + [_gnp(seed, 16, 0.3) for seed in range(3)]
    cases = _random_gnp(3000) + dense
    gated = [_gated_reference(g) for g in cases]
    assert any(order is None for order in gated) and any(order is not None for order in gated)
    for g, expected in zip(cases, gated):
        assert _frontier_order(g) == expected


@pytest.mark.parametrize("mutant", ["greedy-score-negated", "gate-factor-drops-one"])
def test_gate_mutants_fail_the_reference(monkeypatch, mutant):
    install_mutant(monkeypatch, mutant)
    assert any(enumeration._frontier_order(g) != _gated_reference(g) for g in _gate_cases())


@given(graphs(12))
@settings(max_examples=200, deadline=None)
def test_frontier_order_matches_reference_on_random_graphs(g):
    assert _frontier_order(g) == _gated_reference(g)


def test_order_scales_past_a_hub():
    # A min-scan greedy is quadratic here and would take minutes.
    g = _star_plus_edge(20000)
    start = time.perf_counter()
    order = _frontier_order(g)
    assert time.perf_counter() - start < 5
    assert sorted(order) == list(range(g.vertex_count))


def test_cap_checked_before_any_engine():
    for g in (complete_graph(30), cycle_graph(30), _gnp(2, 30, 0.5)):
        with pytest.raises(CapExceededError, match="24"):
            exact_histogram(g)
    assert exact_histogram(cycle_graph(30), cap=30).ic == ic_cycle(30)


def test_verify_runs_without_fast_engines(monkeypatch, capsys):
    # verify is the oracle side: it must never go through the dispatcher.
    def broken(*args, **kwargs):
        raise AssertionError("verify used a fast engine")

    monkeypatch.setattr(enumeration, "_frontier_counts", broken)
    monkeypatch.setattr(enumeration, "_closed_form_counts", broken)
    monkeypatch.setattr(enumeration, "exact_histogram", broken)
    assert main(["verify", "--max-n", "8", "--random-count", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("checks passed")
