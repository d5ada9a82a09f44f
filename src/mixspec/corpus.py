"""Deterministic graph corpus used by the cross-check suite and the tests."""

from __future__ import annotations

import random

from .graph import (
    Graph,
    biclique_graph,
    build_graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    is_connected,
    path_graph,
    petersen_graph,
)

DEFAULT_CORPUS_SEED = 20260809


def random_connected_min_degree_graph(rng: random.Random, max_vertices: int = 10) -> Graph:
    """A seeded random connected graph with minimum degree at least 2."""
    while True:
        n = rng.randint(4, max_vertices)
        p = rng.uniform(0.35, 0.75)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(edges, n)
        if g.min_degree() >= 2 and is_connected(g):
            return g


def family_corpus() -> list[tuple[str, Graph]]:
    """Every path, cycle, complete graph, and biclique on at most 10 vertices,
    plus the cube and the Petersen graph."""
    graphs: list[tuple[str, Graph]] = []
    graphs.extend((f"path-{n}", path_graph(n)) for n in range(1, 11))
    graphs.extend((f"cycle-{n}", cycle_graph(n)) for n in range(3, 11))
    graphs.extend((f"complete-{n}", complete_graph(n)) for n in range(2, 11))
    for m in range(1, 10):
        for n in range(m, 11 - m):
            graphs.append((f"biclique-{m}-{n}", biclique_graph(m, n)))
    graphs.append(("cube", cube_graph()))
    graphs.append(("petersen", petersen_graph()))
    return graphs


def random_corpus(
    count: int = 100, max_vertices: int = 10, seed: int = DEFAULT_CORPUS_SEED
) -> list[tuple[str, Graph]]:
    rng = random.Random(seed)
    return [
        (f"random-{i}", random_connected_min_degree_graph(rng, max_vertices))
        for i in range(count)
    ]


def standard_corpus(random_count: int = 100) -> list[tuple[str, Graph]]:
    """``family_corpus`` and ``random_corpus(random_count)``: at most 10 vertices."""
    return family_corpus() + random_corpus(random_count)
