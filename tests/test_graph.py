from __future__ import annotations

import random

import pytest
from hypothesis import given

from mixspec.graph import (
    BLACK,
    WHITE,
    Graph,
    SelfLoopError,
    SrgParams,
    build_graph,
    coloring_from_string,
    coloring_to_string,
    complete_graph,
    connected_components,
    cycle_graph,
    detect_srg,
    failing_vertices,
    format_edge_list,
    induced_subgraph,
    is_connected,
    is_integrated,
    mix_of_coloring,
    mix_of_vertex,
    neighborhood_stats,
    parse_edge_list,
    path_graph,
    petersen_graph,
)

from conftest import graph_with_coloring, graphs


def test_build_square():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    assert g.vertex_count == 4
    assert g.edge_count == 4
    assert g.neighbors(0) == frozenset({1, 3})


def test_build_empty_edges():
    g = build_graph([], 3)
    assert g.vertex_count == 3
    assert g.edge_count == 0


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph([(0, 0)], 1)


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph([(0, 5)], 3)


def test_duplicate_edges_collapse():
    g = build_graph([(0, 1), (1, 0), (0, 1)], 2)
    assert g.edge_count == 1


# Figure-style fixtures on the 4-cycle: the alternating coloring balances all
# four edges, the two-and-two coloring balances two.
ALTERNATING = coloring_from_string("BWBW")
HALVED = coloring_from_string("WWBB")


def test_mix_of_vertex_square():
    c4 = cycle_graph(4)
    assert mix_of_vertex(c4, ALTERNATING, 0) == 2
    assert mix_of_vertex(c4, HALVED, 0) == 1
    mono = (BLACK,) * 4
    assert all(mix_of_vertex(c4, mono, v) == 0 for v in range(4))


def test_mix_of_coloring_square():
    c4 = cycle_graph(4)
    assert mix_of_coloring(c4, ALTERNATING) == 4
    assert mix_of_coloring(c4, HALVED) == 2
    assert mix_of_coloring(c4, (WHITE,) * 4) == 0


def test_is_integrated_square():
    c4 = cycle_graph(4)
    assert is_integrated(c4, HALVED) == (True, [])
    assert is_integrated(c4, ALTERNATING) == (True, [])
    ok, failing = is_integrated(c4, (BLACK,) * 4)
    assert not ok and failing == [0, 1, 2, 3]


def test_is_integrated_path3():
    p3 = path_graph(3)
    assert is_integrated(p3, coloring_from_string("BWB")) == (True, [])
    assert is_integrated(p3, coloring_from_string("WBW")) == (True, [])
    assert not is_integrated(p3, coloring_from_string("BBW"))[0]


def test_isolated_vertices_are_integrated():
    g = build_graph([], 3)
    assert is_integrated(g, (BLACK, WHITE, BLACK)) == (True, [])


def _kernel_failures(g, c):
    """The vertices ``failing_vertices`` reports for ``c``, as a sorted list."""
    bad = failing_vertices(g)(sum(1 << v for v, color in enumerate(c) if color == WHITE))
    return [v for v in range(g.vertex_count) if bad >> v & 1]


@given(graph_with_coloring(max_vertices=12))
def test_failing_vertices_matches_is_integrated(gc):
    g, c = gc
    assert _kernel_failures(g, c) == is_integrated(g, c)[1]


def _dense_16():
    rng = random.Random(16)
    return build_graph([(u, v) for u in range(16) for v in range(u + 1, 16) if rng.random() < 0.8], 16)


@pytest.mark.parametrize("g", [
    build_graph([], 0),
    build_graph([], 4),
    build_graph([(1, 2), (2, 3), (3, 1), (3, 5)], 7),  # triangle with a pendant, isolated 0, 4, 6
    complete_graph(16),
    _dense_16(),
], ids=["empty", "edgeless-4", "isolated-mixed", "complete-16", "dense-16"])
def test_failing_vertices_edge_cases(g):
    rng = random.Random(3)
    for _ in range(200):
        c = tuple(rng.choice((BLACK, WHITE)) for _ in range(g.vertex_count))
        assert _kernel_failures(g, c) == is_integrated(g, c)[1]


def test_neighborhood_stats_square():
    c4 = cycle_graph(4)
    stats = neighborhood_stats(c4)
    assert stats.v_prime == frozenset(range(4))
    assert stats.v_double_prime == frozenset(range(4))
    assert stats.lam == (2, 2, 2, 2)
    assert c4.mutual_degree(0, 2) == 2
    assert c4.mutual_degree(0, 1) == 0


def test_neighborhood_stats_star():
    star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    stats = neighborhood_stats(star)
    assert stats.pendants == frozenset({1, 2, 3})
    assert stats.v_prime == frozenset({0})
    assert stats.lam[0] == 0
    assert stats.v_double_prime == frozenset()


def test_neighborhood_stats_path3():
    stats = neighborhood_stats(path_graph(3))
    assert stats.pendants == frozenset({0, 2})
    assert stats.v_prime == frozenset({1})
    assert stats.lam[1] == 0
    assert stats.v_double_prime == frozenset()


def test_detect_srg():
    assert detect_srg(petersen_graph()) == SrgParams(10, 3, 0, 1)
    assert detect_srg(cycle_graph(4)) == SrgParams(4, 2, 0, 2)
    assert detect_srg(path_graph(4)) is None
    assert detect_srg(complete_graph(5)) is None
    assert detect_srg(build_graph([(i, 4 + j) for i in range(4) for j in range(4)])) == SrgParams(8, 4, 0, 4)
    # Regular, but the non-adjacent pairs at distance 2 and 3 disagree.
    assert detect_srg(cycle_graph(6)) is None
    # Edgeless graphs witness no adjacent pair; the empty graph is not regular.
    assert detect_srg(build_graph([], 3)) is None
    assert build_graph([], 0).is_regular() is None
    assert detect_srg(build_graph([], 0)) is None


def test_detect_srg_skips_the_pair_scan_with_one_pair_class(monkeypatch):
    calls = []
    real = Graph.mutual_degree
    monkeypatch.setattr(Graph, "mutual_degree", lambda g, v, w: calls.append((v, w)) or real(g, v, w))
    assert detect_srg(complete_graph(50)) is None
    assert detect_srg(build_graph([], 50)) is None
    assert calls == []
    assert detect_srg(petersen_graph()) == SrgParams(10, 3, 0, 1)
    assert len(calls) == 45


def test_srg_feasibility_identity():
    params = detect_srg(petersen_graph())
    assert params.r * (params.r - params.lambda_adj - 1) == (
        params.n - params.r - 1
    ) * params.lambda_nonadj


def test_connected_components():
    g = build_graph([(0, 1), (2, 3)], 5)
    assert connected_components(g) == [(0, 1), (2, 3), (4,)]
    assert not is_connected(g)
    assert is_connected(cycle_graph(5))


def test_induced_subgraph():
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    sub, mapping = induced_subgraph(g, [1, 2, 3])
    assert mapping == [1, 2, 3]
    assert sub.edges() == [(0, 1), (1, 2)]


# -- properties -------------------------------------------------------------


@given(graph_with_coloring())
def test_handshake(gc):
    g, c = gc
    assert sum(mix_of_vertex(g, c, v) for v in range(g.vertex_count)) == 2 * mix_of_coloring(g, c)


@given(graph_with_coloring())
def test_color_swap_symmetry(gc):
    g, c = gc
    swapped = tuple(1 - x for x in c)
    assert mix_of_coloring(g, c) == mix_of_coloring(g, swapped)
    assert is_integrated(g, c)[0] == is_integrated(g, swapped)[0]


@given(graph_with_coloring())
def test_mix_bounded_by_edges(gc):
    g, c = gc
    mix = mix_of_coloring(g, c)
    assert mix <= g.edge_count
    if mix == g.edge_count:
        # All edges balanced, so the coloring witnesses bipartiteness.
        assert all(c[u] != c[v] for u, v in g.edges())


@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_edge_list_basics():
    assert parse_edge_list("0 1\n1 2") == path_graph(3)
    assert parse_edge_list("# square\n0 1\n1 2\n2 3\n3 0") == cycle_graph(4)
    assert parse_edge_list("n 3\n0 1") == build_graph([(0, 1)], 3)
    assert parse_edge_list("") == build_graph([], 0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 0", "line 1"),
        ("0 1\nx 2", "line 2"),
        ("n 2\n0 5", "line 2"),
        ("0 1 2", "line 1"),
        ("0 1\nn 4", "line 2"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_edge_list(text)


def test_coloring_string_round_trip():
    assert coloring_from_string("BWB") == (BLACK, WHITE, BLACK)
    assert coloring_to_string((BLACK, WHITE)) == "01"
    assert coloring_to_string((BLACK, WHITE), alphabet="BW") == "BW"
    with pytest.raises(ValueError):
        coloring_from_string("BX")
