"""Small-scope agreement: every exact histogram engine against brute force on
every labelled graph with at most 5 vertices (1100 graphs).

Tiny graphs are where boundary rules live: the empty graph, isolated
vertices, K_2 components, pendants.  ``ENGINES`` has one row per engine:
(engine name, its counts on a graph, whether it answers that graph).  The
name starts with the engine's function in ``enumeration``; each callable
looks that function up when it runs, so a mutant or a patch installed there
is what the table checks.  An engine that ``exact_histogram`` gains adds its
row here.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

import pytest

from mixspec import enumeration
from mixspec.graph import BLACK, WHITE, Graph, build_graph, is_integrated, mix_of_coloring

from conftest import install_mutant


def _labelled_graphs(max_order: int) -> list[Graph]:
    graphs = []
    for n in range(max_order + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(build_graph([p for i, p in enumerate(pairs) if mask >> i & 1], n))
    return graphs


SMALL_GRAPHS = _labelled_graphs(5)


def _brute_force(g: Graph) -> dict[int, int]:
    return dict(Counter(mix_of_coloring(g, c) for c in product((BLACK, WHITE), repeat=g.vertex_count)
                        if is_integrated(g, c)[0]))


def _always(g: Graph) -> bool:
    return True


ENGINES = [
    ("mix_histogram", lambda g: enumeration.mix_histogram(g).counts, _always),
    ("exact_histogram", lambda g: enumeration.exact_histogram(g).counts, _always),
    ("_frontier_counts in id order",
     lambda g: enumeration._frontier_counts(g, list(range(g.vertex_count))), _always),
    ("_frontier_counts in the gate's order",
     lambda g: enumeration._frontier_counts(g, enumeration._frontier_order(g)),
     lambda g: enumeration._frontier_order(g) is not None),
    ("_closed_form_counts", lambda g: enumeration._closed_form_counts(g),
     lambda g: enumeration._closed_form_counts(g) is not None),
]


@pytest.fixture(scope="module")
def expected() -> list[dict[int, int]]:
    return [_brute_force(g) for g in SMALL_GRAPHS]


def _mismatches(row, expected) -> list[tuple[int, list[tuple[int, int]]]]:
    _, counts, applies = row
    return [(g.vertex_count, g.edges()) for g, want in zip(SMALL_GRAPHS, expected)
            if applies(g) and counts(g) != want]


def test_every_labelled_graph_on_at_most_5_vertices():
    assert len(SMALL_GRAPHS) == 1 + 1 + 2 + 8 + 64 + 1024


@pytest.mark.parametrize("row", ENGINES, ids=[row[0] for row in ENGINES])
def test_engine_matches_brute_force(row, expected):
    assert any(row[2](g) for g in SMALL_GRAPHS), f"{row[0]} answers no small graph"
    assert _mismatches(row, expected) == []


def test_no_engine_answers_without_a_row(monkeypatch):
    class Unlisted(Exception):
        pass

    def broken(*args, **kwargs):
        raise Unlisted

    for name in {row[0].split()[0] for row in ENGINES} - {"exact_histogram"}:
        monkeypatch.setattr(enumeration, name, broken)
    for g in SMALL_GRAPHS:
        with pytest.raises(Unlisted):
            enumeration.exact_histogram(g)


@pytest.mark.parametrize("mutant", ["dp-need-not-decremented", "dp-doubling-dropped"])
def test_dp_mutants_fail_the_table(monkeypatch, mutant, expected):
    install_mutant(monkeypatch, mutant)
    assert any(_mismatches(row, expected) for row in ENGINES)
