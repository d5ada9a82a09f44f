from __future__ import annotations

import inspect
import sys

from hypothesis import strategies as st

from mixspec import bounds, enumeration, families, graph, verify
from mixspec.graph import BLACK, WHITE, Graph, build_graph


@st.composite
def graphs(draw, max_vertices: int = 8) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph([p for p, keep in zip(pairs, mask) if keep], n)


@st.composite
def graph_with_coloring(draw, max_vertices: int = 8):
    g = draw(graphs(max_vertices))
    colors = draw(
        st.lists(
            st.sampled_from((BLACK, WHITE)),
            min_size=g.vertex_count,
            max_size=g.vertex_count,
        )
    )
    return g, tuple(colors)


# One-line mutants of the fast paths: (module, source, mutated source).  Each
# must fail a reference that the unmutated code passes.
KERNEL_MUTANTS = {
    "strict-compare": (graph, "at_least = full\n", "at_least = 0\n"),
    "carry-dropped": (graph, "planes.append(0)", "break"),
    "pendant-uncomplemented": (bounds, "columns[p] = full ^ columns[q]", "columns[p] = columns[q]"),
    "scan-keeps-wrong-half": (enumeration, "splits & planes[i]", "splits & ~planes[i]"),
    # Caught by the cycle check's pmf comparison.
    "lane-sum-or": (verify, "columns[u] ^ columns[w]", "columns[u] | columns[w]"),
    # Caught by test_alpha_matches_nested_loop.
    "alpha-step-flipped": (bounds, "step = 1 if i else -1", "step = -1 if i else -1"),
    # Caught by the cycle check's tiling comparison.
    "tiling-skips-a-piece": (
        families, "for p in reversed(WIRE_PIECES)]", "for p in reversed(WIRE_PIECES[1:])]"),
    # Caught by the small-scope table.
    "dp-need-not-decremented": (enumeration, "need = max(need - 1, 0)", "need = max(need, 0)"),
    # Caught by the small-scope table.
    "dp-doubling-dropped": (enumeration, "count << doublings", "count"),
    # Caught by test_greedy_order_matches_reference.
    "greedy-score-negated": (
        enumeration, "((unplaced[v] > 0) - closes[v], v)", "(closes[v] - (unplaced[v] > 0), v)"),
    # Caught by test_greedy_order_matches_reference.
    "gate-factor-drops-one": (
        enumeration, "min(half[u], unplaced[u]) + 1", "min(half[u], unplaced[u])"),
}


def install_mutant(monkeypatch, mutant: str) -> None:
    """Rebind, wherever a mixspec module binds one, each function of the
    mutant's module to its copy compiled from the mutated source.  The copies
    share the module's classes and constants, and call each other."""
    module, old, new = KERNEL_MUTANTS[mutant]
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    own = {name for name, value in vars(module).items()
           if inspect.isfunction(value) and value.__module__ == module.__name__}
    namespace.update((name, value) for name, value in vars(module).items() if name not in own)
    copies = {id(getattr(module, name)): namespace[name] for name in own}
    for module_name, loaded in list(sys.modules.items()):
        if module_name == "mixspec" or module_name.startswith("mixspec."):
            for attr, value in list(vars(loaded).items()):
                if id(value) in copies:
                    monkeypatch.setattr(loaded, attr, copies[id(value)])
