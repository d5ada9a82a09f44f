from __future__ import annotations

import math
import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixspec import bounds
from mixspec.bounds import (
    InapplicableError,
    _moments,
    _rejection,
    _srg_pair_total,
    alpha,
    bound_general,
    bound_specialized,
    census,
    extremal_bounds,
    pair_joint_moments,
    semirandom_oracle,
)
from mixspec.corpus import family_corpus, random_corpus, standard_corpus
from mixspec.enumeration import mix_histogram
from mixspec.graph import (
    biclique_graph,
    build_graph,
    complete_graph,
    cube_graph,
    cycle_graph,
    detect_srg,
    failing_vertices,
    neighborhood_stats,
    path_graph,
    petersen_graph,
)

from conftest import graphs


def test_alpha_square_adjacent():
    c4 = cycle_graph(4)
    stats = neighborhood_stats(c4)
    assert alpha(c4, stats, 0, 1, 1, 1) == 1
    assert alpha(c4, stats, 0, 1, 0, 1) == Fraction(1, 4)


def test_alpha_square_diagonal():
    c4 = cycle_graph(4)
    stats = neighborhood_stats(c4)
    assert alpha(c4, stats, 0, 2, 0, 0) == Fraction(3, 4)
    assert alpha(c4, stats, 0, 2, 1, 0) == Fraction(1, 2)


def test_alpha_degenerate_thresholds():
    # Two degree-2 vertices far apart on a long ring: no common neighbors,
    # thresholds at zero, every constraint vacuous.
    c8 = cycle_graph(8)
    stats = neighborhood_stats(c8)
    assert alpha(c8, stats, 0, 4, 0, 0) == Fraction(9, 16)
    assert 0 <= alpha(c8, stats, 0, 4, 1, 0) <= 1


def test_alpha_validation():
    c4 = cycle_graph(4)
    stats = neighborhood_stats(c4)
    with pytest.raises(ValueError):
        alpha(c4, stats, 0, 1, 0, 0)  # j contradicts adjacency
    with pytest.raises(ValueError):
        alpha(c4, stats, 0, 0, 0, 0)
    p5 = path_graph(5)
    p5_stats = neighborhood_stats(p5)
    with pytest.raises(InapplicableError):
        alpha(p5, p5_stats, 0, 2, 0, 0)  # endpoint 0 is outside V''


def _alpha_nested(g, stats, v, w, i, j) -> Fraction:
    """Reference alpha: the double loop over a and b, with a suffix sum over c."""
    lv, lw = stats.lam[v], stats.lam[w]
    lvw = g.mutual_degree(v, w)
    b_top = lv - lvw - j
    c_top = lw - lvw - j
    t_v = 2 * lv - g.degree(v) - 2 * i * j
    t_w = 2 * lw - g.degree(w) - 2 * i * j
    sign = -1 if i else 1
    base_w = 2 * i * lvw
    c_suffix = [0] * (c_top + 2)
    for c in range(c_top, -1, -1):
        c_suffix[c] = c_suffix[c + 1] + math.comb(c_top, c)
    total = 0
    for a in range(lvw + 1):
        ca = math.comb(lvw, a)
        need = t_w - base_w - 2 * sign * a
        c_min = max(0, (need + 1) // 2)
        if c_min > c_top:
            continue
        c_part = c_suffix[c_min]
        for b in range(b_top + 1):
            if 2 * (a + b) >= t_v:
                total += ca * math.comb(b_top, b) * c_part
    return Fraction(total, 1 << (lv + lw - lvw - 2 * j))


def _pair_sum_all_pairs(g, stats) -> Fraction:
    """Reference pair sum: alpha_0 + alpha_1 over every unordered V'' pair."""
    members = sorted(stats.v_double_prime)
    total = Fraction(0)
    for a_idx, v in enumerate(members):
        for w in members[a_idx + 1 :]:
            j = int(g.has_edge(v, w))
            total += alpha(g, stats, v, w, 0, j) + alpha(g, stats, v, w, 1, j)
    return total


def _gnp(n: int, p: float, seed: int):
    rng = random.Random(seed)
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], n)


def _caterpillar(spine: int, legs: int):
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + legs * i + k) for i in range(spine) for k in range(legs)]
    return build_graph(edges)


# Graphs with pendants, where V'' is a proper subset of V': a one-leg
# caterpillar (the spine ends drop out of V''), a star with a long tail, and a
# triangle with a pendant and a tail.
PENDANT_GRAPHS = [
    ("caterpillar-12", _caterpillar(12, 1)),
    ("star-tail", build_graph([(0, 1), (0, 2), (0, 3)] + [(i, i + 1) for i in (0, *range(4, 12))])),
    ("triangle-tails", build_graph([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (4, 5), (5, 6), (6, 7), (7, 8)])),
]
# Complete graphs and bicliques past the verify corpus: every V'' pair is
# dependent and falls in one to three local types.
DENSE_GRAPHS = [(f"complete-{n}", complete_graph(n)) for n in range(11, 15)] + [
    (f"biclique-{m}-{n}", biclique_graph(m, n)) for m, n in ((6, 6), (5, 7), (4, 9))
]
# Every graph of the verify corpus with a non-empty V'', the pendant graphs,
# the dense graphs, and a dense and a sparse G(n, p).
PAIR_SUM_GRAPHS = [
    (name, g)
    for name, g in family_corpus()
    + random_corpus(100, 10)
    + PENDANT_GRAPHS
    + DENSE_GRAPHS
    + [("gnp-40", _gnp(40, 0.5, 1)), ("gnp-30-sparse", _gnp(30, 0.12, 2))]
    if neighborhood_stats(g).v_double_prime
]


def test_pendant_graphs_have_v_double_prime_inside_v_prime():
    for _, g in PENDANT_GRAPHS:
        stats = neighborhood_stats(g)
        assert len(stats.v_double_prime) >= 4
        assert stats.v_double_prime < stats.v_prime


@pytest.mark.parametrize("name, g", PAIR_SUM_GRAPHS, ids=[name for name, _ in PAIR_SUM_GRAPHS])
def test_pair_sum_matches_all_pairs(name, g):
    stats = neighborhood_stats(g)
    assert _moments(g, stats)[1] == _pair_sum_all_pairs(g, stats)


@pytest.mark.parametrize(
    "g, calls",
    [
        pytest.param(complete_graph(30), 2, id="K_30"),
        pytest.param(biclique_graph(8, 8), 4, id="K_8,8"),
        pytest.param(biclique_graph(7, 9), 6, id="K_7,9"),
        pytest.param(cycle_graph(50), 4, id="C_50"),
        pytest.param(cycle_graph(500), 4, id="C_500"),
    ],
)
def test_alpha_runs_once_per_pair_type(g, calls, monkeypatch):
    # Two calls (i = 0, 1) per local type of dependent pair, however many
    # pairs share it.
    seen = []

    def counting_alpha(*args):
        seen.append(args)
        return alpha(*args)

    monkeypatch.setattr(bounds, "alpha", counting_alpha)
    assert bound_general(g).applicable
    assert len(seen) == calls


def test_alpha_matches_nested_loop():
    checked = 0
    for _, g in PAIR_SUM_GRAPHS:
        stats = neighborhood_stats(g)
        members = sorted(stats.v_double_prime)
        for a_idx, v in enumerate(members):
            for w in members[a_idx + 1 :]:
                j = int(g.has_edge(v, w))
                for i in (0, 1):
                    assert alpha(g, stats, v, w, i, j) == _alpha_nested(g, stats, v, w, i, j)
                    checked += 1
    assert checked > 5000


def test_bound_general_square():
    report = bound_general(cycle_graph(4))
    assert report.applicable
    assert report.mu == 3
    assert report.sigma_sq == Fraction(3, 2)
    assert report.upper_bound == Fraction(48, 5)
    assert float(report.upper_bound) == 9.6
    assert mix_histogram(cycle_graph(4)).ic == 6 <= math.ceil(report.upper_bound)


def test_bound_general_path3_exact():
    report = bound_general(path_graph(3))
    assert report.applicable and report.exact
    assert report.upper_bound == 2
    assert mix_histogram(path_graph(3)).ic == 2


def test_bound_general_star_exact():
    star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    report = bound_general(star)
    assert report.applicable and report.exact
    assert report.upper_bound == 2
    assert mix_histogram(star).ic == 2


def test_bound_rejects_k2_component():
    report = bound_general(path_graph(2))
    assert not report.applicable
    assert "degree below 2" in report.reason
    mixed = build_graph([(0, 1), (1, 2), (3, 4)], 5)
    report = bound_general(mixed)
    assert not report.applicable and "1 two-vertex" in report.reason


def test_bound_rejects_edgeless():
    report = bound_general(build_graph([], 3))
    assert not report.applicable


def _insert_isolated(g, slots):
    """``g`` with one isolated vertex inserted before each original id in
    ``slots``; a slot of ``g.vertex_count`` or more puts it last."""
    new = [v + sum(s <= v for s in slots) for v in range(g.vertex_count)]
    return build_graph([(new[u], new[v]) for u, v in g.edges()], g.vertex_count + len(slots))


@given(graphs(max_vertices=9), st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3))
@example(cycle_graph(4), [4])
@example(cycle_graph(4), [0, 0])
@example(build_graph([(0, 1), (0, 2), (0, 3)], 4), [0, 4])
@settings(max_examples=150, deadline=None)
def test_bound_isolated_vertex_adjustment(g, slots):
    # Each isolated vertex, at any id, lies in V' and not in V'': it doubles
    # 2^|V'|, the bound and the exact count, and leaves the moments alone.
    padded = _insert_isolated(g, slots)
    k = len(slots)
    base, report = bound_general(g), bound_general(padded)
    assert (report.applicable, report.reason, report.exact) == (
        base.applicable,
        base.reason,
        base.exact,
    )
    if not base.applicable:
        return
    assert (report.mu, report.sigma_sq, report.v_double_prime_size) == (
        base.mu,
        base.sigma_sq,
        base.v_double_prime_size,
    )
    assert report.v_prime_size == base.v_prime_size + k
    assert report.upper_bound == base.upper_bound * 2**k
    assert report.isolated_count == base.isolated_count + k
    # The exact count doubles as well, so soundness is preserved.
    assert mix_histogram(padded).ic == mix_histogram(g).ic * 2**k


def test_oracle_square():
    oracle = semirandom_oracle(cycle_graph(4))
    assert oracle.prob_integrated == Fraction(6, 16)
    assert oracle.ex == 3
    assert oracle.ex2 == Fraction(21, 2)


def test_oracle_k4():
    oracle = semirandom_oracle(complete_graph(4))
    assert oracle.prob_integrated == Fraction(6, 16)
    report = bound_general(complete_graph(4))
    assert report.mu == oracle.ex
    assert report.sigma_sq == oracle.ex2 - oracle.ex**2


def test_oracle_path4():
    oracle = semirandom_oracle(path_graph(4))
    assert oracle.prob_integrated == 1
    assert neighborhood_stats(path_graph(4)).v_double_prime == frozenset()


def test_oracle_cap_and_rejections(monkeypatch):
    with pytest.raises(InapplicableError):
        semirandom_oracle(path_graph(2))
    with monkeypatch.context() as m, pytest.raises(InapplicableError):
        m.setattr(bounds, "ORACLE_CAP", 5)
        semirandom_oracle(cycle_graph(10))
    # Isolated vertices change no reason.
    cases = [
        (build_graph([], 4), "graph has no edges (the count is exactly 2^|V|)"),
        (build_graph([(0, 1), (2, 3)], 5),
         "maximum degree below 2: the graph is a union of disjoint edges"),
        (build_graph([(0, 1), (1, 2), (0, 2), (3, 4)], 6),
         "1 two-vertex component(s): both endpoints are pendant, so forcing pendants "
         "opposite their neighbors is circular (each such component contributes an "
         "exact factor 2)"),
    ]
    for g, reason in cases:
        assert _rejection(g) == reason
        with pytest.raises(InapplicableError) as exc:
            semirandom_oracle(g)
        assert str(exc.value) == reason


def _k2_by_bfs(g):
    """Two-vertex components, counted by a breadth-first search."""
    seen, k2 = set(), 0
    for root in range(g.vertex_count):
        if root in seen:
            continue
        component, queue = {root}, deque([root])
        while queue:
            for w in g.adjacency[queue.popleft()] - component:
                component.add(w)
                queue.append(w)
        seen |= component
        k2 += len(component) == 2
    return k2


@st.composite
def _graphs_with_k2_and_isolated(draw):
    """A random core, plus disjoint edges and isolated vertices, with all ids shuffled."""
    core = draw(graphs(max_vertices=8))
    pairs = draw(st.integers(min_value=0, max_value=3))
    isolated = draw(st.integers(min_value=0, max_value=3))
    n = core.vertex_count + 2 * pairs + isolated
    ids = draw(st.permutations(range(n)))
    edges = list(core.edges())
    edges += [(core.vertex_count + 2 * i, core.vertex_count + 2 * i + 1) for i in range(pairs)]
    return build_graph([(ids[u], ids[v]) for u, v in edges], n)


@given(_graphs_with_k2_and_isolated())
@example(build_graph([(0, 1), (1, 2), (0, 2), (3, 4)], 6))
@example(build_graph([(0, 1), (1, 2), (3, 4), (5, 6)], 8))
@settings(max_examples=300, deadline=None)
def test_rejection_counts_two_vertex_components(g):
    k2 = _k2_by_bfs(g)
    reason = _rejection(g)
    if g.edge_count == 0 or g.max_degree() < 2:
        assert reason is not None and "two-vertex" not in reason
    elif k2:
        assert reason is not None and reason.startswith(f"{k2} two-vertex component(s): ")
    else:
        assert reason is None


def test_oracle_counts_integrated_colorings():
    for g in (cycle_graph(6), petersen_graph(), path_graph(7), cube_graph()):
        oracle = semirandom_oracle(g)
        stats = neighborhood_stats(g)
        assert oracle.prob_integrated * 2 ** len(stats.v_prime) == mix_histogram(g).ic


def _semirandom_scan(g):
    """Reference scan: yield (all integrated, [v integrated for v in sorted V''])
    for every semi-random draw, rebuilding each draw's white mask bit by bit."""
    stats = neighborhood_stats(g)
    reason = _rejection(g)
    if reason is not None:
        raise InapplicableError(reason)
    v_prime = sorted(stats.v_prime)
    if len(v_prime) > bounds.ORACLE_CAP:
        raise InapplicableError(
            f"|V'| = {len(v_prime)} exceeds the oracle cap {bounds.ORACLE_CAP}"
        )
    vpp = sorted(stats.v_double_prime)
    n = g.vertex_count
    nbr_mask = [0] * n
    for v in range(n):
        for w in g.adjacency[v]:
            nbr_mask[v] |= 1 << w
    deg = [g.degree(v) for v in range(n)]
    pendant_pairs = [(p, next(iter(g.adjacency[p]))) for p in sorted(stats.pendants)]
    full = (1 << n) - 1
    for assignment in range(1 << len(v_prime)):
        white = 0
        for idx, v in enumerate(v_prime):
            if (assignment >> idx) & 1:
                white |= 1 << v
        for p, q in pendant_pairs:
            if not (white >> q) & 1:
                white |= 1 << p
        black = ~white & full
        ok_all = True
        ok_vpp = []
        for v in range(n):
            opposite = black if (white >> v) & 1 else white
            if 2 * (nbr_mask[v] & opposite).bit_count() < deg[v]:
                ok_all = False
                if v not in stats.v_double_prime:
                    # Vertices outside V'' are always integrated by construction.
                    raise AssertionError("vertex outside V'' failed integration")
        for v in vpp:
            opposite = black if (white >> v) & 1 else white
            ok_vpp.append(2 * (nbr_mask[v] & opposite).bit_count() >= deg[v])
        yield ok_all, ok_vpp


def _oracle_reference(g):
    outcomes = good = x_sum = x2_sum = 0
    for ok_all, ok_vpp in _semirandom_scan(g):
        outcomes += 1
        good += ok_all
        x = sum(ok_vpp)
        x_sum += x
        x2_sum += x * x
    return bounds.OracleMoments(
        Fraction(good, outcomes), Fraction(x_sum, outcomes), Fraction(x2_sum, outcomes)
    )


def _pair_reference(g):
    vpp = sorted(neighborhood_stats(g).v_double_prime)
    counts = {(v, w): 0 for i, v in enumerate(vpp) for w in vpp[i + 1 :]}
    outcomes = 0
    for _, ok_vpp in _semirandom_scan(g):
        outcomes += 1
        for i, v in enumerate(vpp):
            for k in range(i + 1, len(vpp)):
                if ok_vpp[i] and ok_vpp[k]:
                    counts[(v, vpp[k])] += 1
    return {pair: Fraction(c, outcomes) for pair, c in counts.items()}


def _outcome(fn, g):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(g)
    except Exception as exc:
        return type(exc), str(exc)


def _census_full_walk(g):
    """Reference census: every subset of V' walked once, each draw counted once."""
    stats = neighborhood_stats(g)
    reason = _rejection(g)
    if reason is not None:
        raise InapplicableError(reason)
    if len(stats.v_prime) > bounds.ORACLE_CAP:
        raise InapplicableError(
            f"|V'| = {len(stats.v_prime)} exceeds the oracle cap {bounds.ORACLE_CAP}"
        )
    failing = failing_vertices(g)
    vp = sum(1 << v for v in stats.v_prime)
    vpp = sum(1 << v for v in stats.v_double_prime)
    pendant_bits = [(1 << p, 1 << q) for p in sorted(stats.pendants) for q in g.adjacency[p]]
    counts = Counter()
    draw = 0
    while True:
        white = draw
        for p, q in pendant_bits:
            if not white & q:
                white |= p
        bad = failing(white)
        if bad & ~vpp:
            raise AssertionError("vertex outside V'' failed integration")
        counts[vpp & ~bad] += 1
        draw = (draw - vp) & vp
        if not draw:
            return counts, vpp


def _assert_oracles_match_scan(g):
    # The census walks half the draws and counts each twice; the full walk
    # must give the same counts, not only the same ratios.
    assert _outcome(census, g) == _outcome(_census_full_walk, g)
    assert _outcome(semirandom_oracle, g) == _outcome(_oracle_reference, g)
    got = _outcome(pair_joint_moments, g)
    want = _outcome(_pair_reference, g)
    assert got == want
    if isinstance(want, dict):
        assert list(got) == list(want)
        # One census handed to both oracles gives what each finds by its own scan,
        # and neither oracle changes it.
        shared = census(g)
        assert semirandom_oracle(g, census=shared) == semirandom_oracle(g)
        assert list(pair_joint_moments(g, census=shared).items()) == list(got.items())
        assert shared == census(g)


# The verify corpus, paths whose ends fall out of V'', the pendant graphs, and
# graphs with isolated vertices, one of them the top vertex of V'.
ORACLE_GRAPHS = (
    standard_corpus(100)
    + [(f"path-{n}", path_graph(n)) for n in range(5, 10)]
    + PENDANT_GRAPHS
    + [
        ("C_5+isolated-0-5", _insert_isolated(cycle_graph(5), [0, 5])),
        ("star-tail+isolated-top", _insert_isolated(PENDANT_GRAPHS[1][1], [99])),
        ("caterpillar-6+isolated-1", _insert_isolated(_caterpillar(6, 1), [1])),
    ]
)


@pytest.mark.parametrize("name, g", ORACLE_GRAPHS, ids=[name for name, _ in ORACLE_GRAPHS])
def test_oracles_match_reference_scan(name, g):
    _assert_oracles_match_scan(g)


@given(graphs(max_vertices=9))
@settings(max_examples=150, deadline=None)
def test_oracles_match_reference_scan_random(g):
    _assert_oracles_match_scan(g)


@pytest.mark.parametrize("g", [path_graph(2), build_graph([], 3), build_graph([(0, 1), (2, 3)])])
def test_oracles_reject_like_reference_scan(g):
    assert _outcome(semirandom_oracle, g)[0] is InapplicableError
    _assert_oracles_match_scan(g)


def test_oracles_cap_like_reference_scan(monkeypatch):
    monkeypatch.setattr(bounds, "ORACLE_CAP", 5)
    for g in (cycle_graph(10), petersen_graph(), _caterpillar(12, 1)):
        assert _outcome(semirandom_oracle, g)[0] is InapplicableError
        _assert_oracles_match_scan(g)


def test_oracle_cap_is_inclusive(monkeypatch):
    # |V'| equal to the cap is answered; one more vertex is refused.
    monkeypatch.setattr(bounds, "ORACLE_CAP", 5)
    counts, _ = census(cycle_graph(5))
    assert sum(counts.values()) == 2**5
    with pytest.raises(InapplicableError, match=r"^\|V'\| = 6 exceeds the oracle cap 5$"):
        census(cycle_graph(6))


def test_oracle_guard_outside_v_double_prime(monkeypatch):
    # In C_4 a vertex fails whenever both its neighbors share its color.  Drop
    # vertex 0 from V'' so that such a failure lies outside V'': the guard must
    # catch it rather than report wrong moments.
    real = bounds.neighborhood_stats

    def shrunk(g):
        stats = real(g)
        return type(stats)(stats.pendants, stats.v_prime, stats.v_double_prime - {0}, stats.lam)

    monkeypatch.setattr(bounds, "neighborhood_stats", shrunk)
    with pytest.raises(AssertionError, match="outside V''"):
        semirandom_oracle(cycle_graph(4))


def test_pair_joint_moments_square():
    c4 = cycle_graph(4)
    joint = pair_joint_moments(c4)
    stats = neighborhood_stats(c4)
    for (v, w), value in joint.items():
        j = int(c4.has_edge(v, w))
        avg = (alpha(c4, stats, v, w, 0, j) + alpha(c4, stats, v, w, 1, j)) / 2
        assert avg == value
    # Adjacent pairs: (1 + 1/4)/2; diagonal pairs: (3/4 + 1/2)/2.
    assert joint[(0, 1)] == Fraction(5, 8)
    assert joint[(0, 2)] == Fraction(5, 8)


def test_specialized_square_matches_general():
    general = bound_general(cycle_graph(4))
    for variant in ("min_degree", "regular", "srg"):
        report = bound_specialized(cycle_graph(4), variant)
        assert report.applicable
        assert report.mu == general.mu == 3
        assert report.sigma_sq == general.sigma_sq
        assert report.upper_bound == general.upper_bound


def test_specialized_cube():
    report = bound_specialized(cube_graph(), "regular")
    assert report.applicable
    assert report.mu == 4  # odd valency: no correction term
    general = bound_general(cube_graph())
    assert report.upper_bound == general.upper_bound
    assert mix_histogram(cube_graph()).ic <= math.ceil(report.upper_bound)


def test_specialized_petersen_srg():
    report = bound_specialized(petersen_graph(), "srg")
    assert report.applicable
    general = bound_general(petersen_graph())
    assert report.upper_bound == general.upper_bound
    assert mix_histogram(petersen_graph()).ic <= math.ceil(report.upper_bound)


def test_specialized_rejections():
    assert not bound_specialized(path_graph(4), "min_degree").applicable
    assert not bound_specialized(path_graph(4), "regular").applicable
    assert not bound_specialized(cube_graph(), "srg").applicable
    with pytest.raises(ValueError):
        bound_specialized(cycle_graph(4), "nope")


def _paley(q: int):
    """Paley graph on Z_q with i ~ j when i - j is a quadratic non-residue; for
    q = 13, vertex 0's first neighbor is 2 and its first non-neighbor 1."""
    residues = {x * x % q for x in range(1, q)}
    return build_graph([(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q not in residues], q)


def _relabeled(g, order):
    """``g`` with vertex ``order[i]`` renamed i."""
    new = {v: i for i, v in enumerate(order)}
    return build_graph([(new[u], new[v]) for u, v in g.edges()], g.vertex_count)


SRG_PAIR_GRAPHS = [
    ("petersen-relabeled", _relabeled(petersen_graph(), [0, 7, 2, 3, 8, 1, 6, 5, 9, 4])),
    ("paley-13", _paley(13)),
    ("K_4,4", biclique_graph(4, 4)),
    ("C_5-pentagram", build_graph([(i, (i + 2) % 5) for i in range(5)], 5)),
]


@pytest.mark.parametrize("name, g", SRG_PAIR_GRAPHS, ids=[name for name, _ in SRG_PAIR_GRAPHS])
def test_srg_pair_total_matches_pair_sum(name, g):
    params = detect_srg(g)
    assert params is not None
    first_neighbor = min(g.adjacency[0])
    first_non_neighbor = min(set(range(1, g.vertex_count)) - g.adjacency[0])
    assert (first_neighbor, first_non_neighbor) != (1, 2)
    stats = neighborhood_stats(g)
    assert _srg_pair_total(g, stats, params.r) == _moments(g, stats)[1]


def _corollary_mu(n: int, r: int) -> Fraction:
    """n R^chi(r) / 2 with R = 1 + C(r, r/2) 2^{-r} and chi the even indicator."""
    big_r = 1 + Fraction(math.comb(r, r // 2), 1 << r) if r % 2 == 0 else Fraction(1)
    return Fraction(n, 2) * big_r


_ALL_COROLLARIES = ("min_degree", "regular", "srg")
# C_4 = K_{2,2} and C_5 are the strongly regular cycles.
COROLLARY_GRAPHS = [
    (f"C_{n}", cycle_graph(n), _ALL_COROLLARIES if n in (4, 5) else ("min_degree", "regular"))
    for n in range(3, 41)
] + [
    ("K_3,3", biclique_graph(3, 3), _ALL_COROLLARIES),
    ("K_4,4", biclique_graph(4, 4), _ALL_COROLLARIES),
    ("cube", cube_graph(), ("min_degree", "regular")),
    ("petersen", petersen_graph(), _ALL_COROLLARIES),
    # Minimum degree 2, with degrees 2, 3 and 4.
    ("mixed", build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4), (4, 5), (5, 1)]),
     ("min_degree",)),
]


@pytest.mark.parametrize("g, variants", [pytest.param(g, v, id=name) for name, g, v in COROLLARY_GRAPHS])
def test_corollary_forms_match_general(g, variants):
    general = bound_general(g)
    applicable = []
    for variant in _ALL_COROLLARIES:
        report = bound_specialized(g, variant)
        if not report.applicable:
            continue
        applicable.append(variant)
        assert (report.mu, report.sigma_sq, report.upper_bound) == (
            general.mu,
            general.sigma_sq,
            general.upper_bound,
        )
        if variant != "min_degree":
            assert report.mu == _corollary_mu(g.vertex_count, g.is_regular())
    assert tuple(applicable) == variants


def test_chebyshev_gap_positive():
    for _, g in random_corpus(20, 8, seed=5):
        report = bound_general(g)
        if report.applicable and not report.exact:
            assert report.mu < report.v_double_prime_size


def test_extremal_square():
    ext = extremal_bounds(cycle_graph(4))
    assert ext.ims_lower == 2
    assert ext.edwards == 3
    assert ext.edwards_erdos == Fraction(11, 4)
    hist = mix_histogram(cycle_graph(4))
    assert hist.ims_min == 2 and hist.ims_max == 4


def test_extremal_k4():
    ext = extremal_bounds(complete_graph(4))
    assert ext.ims_lower == 3
    assert ext.edwards == 4
    assert ext.edwards_erdos == Fraction(15, 4)


def test_extremal_disconnected_skips_connected_bound():
    g = build_graph([], 4)
    ext = extremal_bounds(g)
    assert ext.ims_lower == 0 and ext.edwards == 0
    assert ext.edwards_erdos is None


def test_edwards_ceiling_exact():
    # m = ceil((4e - 1 + sqrt(8e + 1)) / 8) iff m - 1 < x <= m; compare the
    # square root against integers by squaring so the check is exact.
    # Besides the small e, bignum e: random ones, and triangular ones
    # t(t+1)/2, where 8e + 1 = (2t + 1)^2 is a perfect square.
    from mixspec.bounds import _ceil_edwards

    rng = random.Random(20)
    randoms = [rng.getrandbits(rng.randrange(1, 301)) for _ in range(2000)]
    ts = list(range(2000)) + [rng.getrandbits(150) for _ in range(500)]
    triangular = [t * (t + 1) // 2 for t in ts]
    assert all(math.isqrt(8 * e + 1) ** 2 == 8 * e + 1 for e in triangular)
    for e in [*range(0, 5000), *randoms, *triangular]:
        m = _ceil_edwards(e)
        radicand = 8 * e + 1
        upper = 8 * m - 4 * e + 1  # x <= m  <=>  sqrt(radicand) <= upper
        assert upper >= 0 and radicand <= upper * upper
        lower = upper - 8  # x > m - 1  <=>  sqrt(radicand) > lower
        assert lower < 0 or lower * lower < radicand


def test_edwards_ceiling_spot_values():
    from mixspec.bounds import _ceil_edwards

    assert _ceil_edwards(0) == 0
    assert _ceil_edwards(1) == 1
    assert _ceil_edwards(4) == 3
    assert _ceil_edwards(6) == 4
    for e in range(0, 400):
        assert _ceil_edwards(e) == math.ceil(e / 2 + math.sqrt(e / 8 + 1 / 64) - 1 / 8 - 1e-9)
