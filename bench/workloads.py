"""The three benchmark workloads: CLI requests and the inputs made from a seed.

Every request is one ``mixspec`` invocation.  The program sees only its flags
and, for ``--input -``, edge-list text on stdin; every random choice is made
here from the benchmark seed.  README.md says why each request is in its
workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exhaustive", "large_n", "crosscheck")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and how its output is judged.

    ``check`` names the checker in ``checks.py``; ``params`` carries what the
    checker needs to know about the instance (order, family, sample count).
    ``known_failure`` names a documented defect the request reproduces today.
    ``repeats`` runs a short request several times per pass, so that its
    median rests on enough samples.
    """

    rid: str
    argv: tuple[str, ...]
    check: str
    params: tuple[tuple[str, object], ...] = ()
    stdin: str | None = None
    known_failure: str | None = None
    repeats: int = 1

    def param(self, key: str, default=None):
        return dict(self.params).get(key, default)


# ---------------------------------------------------------------------------
# Seeded input graphs, written as edge-list text
# ---------------------------------------------------------------------------


def edge_list(n: int, edges) -> str:
    return "\n".join([f"n {n}"] + [f"{u} {v}" for u, v in sorted(edges)]) + "\n"


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def gnp_min_degree_2(rng: random.Random, n: int, p: float) -> set[tuple[int, int]]:
    """G(n, p) conditioned on being connected with minimum degree >= 2."""
    while True:
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) >= 2 and _connected(n, edges):
            return edges


def cycle_with_chords(rng: random.Random, n: int, chords: int) -> set[tuple[int, int]]:
    """The n-cycle plus ``chords`` distinct uniformly chosen extra edges."""
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    target = n + chords
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return edges


def grid(rows: int, cols: int) -> set[tuple[int, int]]:
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.add((v, v + 1))
            if r + 1 < rows:
                edges.add((v, v + cols))
    return edges


def caterpillar(spine: int, legs: int) -> tuple[int, set[tuple[int, int]]]:
    """A spine path with ``legs`` pendant vertices hung on every spine vertex.

    With two legs or more no vertex has more non-pendant neighbors than half
    its degree, so V'' is empty and the bound is exactly 2^spine.
    """
    edges = {(i, i + 1) for i in range(spine - 1)}
    edges |= {(i, spine + legs * i + k) for i in range(spine) for k in range(legs)}
    return spine * (1 + legs), edges


CATERPILLAR_SPINE = 1100


# ---------------------------------------------------------------------------
# Request lists
# ---------------------------------------------------------------------------


def _family(verb: str, family: str, n: int, *extra: str) -> tuple[str, ...]:
    return (verb, "--family", family, "--n", str(n)) + extra


def exhaustive(rng: random.Random) -> list[Request]:
    dense = gnp_min_degree_2(rng, 22, 0.5)
    sparse22 = cycle_with_chords(rng, 22, 11)
    sparse20 = cycle_with_chords(rng, 20, 10)
    return [
        Request("spectrum-cycle-24", _family("spectrum", "cycle", 24), "spectrum",
                (("family", "cycle"), ("n", 24))),
        Request("spectrum-complete-16", _family("spectrum", "complete", 16), "spectrum",
                (("family", "complete"), ("n", 16))),
        Request("enumerate-path-24", _family("enumerate", "path", 24), "enumerate",
                (("family", "path"), ("n", 24))),
        Request("spectrum-gnp-22", ("spectrum", "--input", "-"), "spectrum",
                (("m", len(dense)),), edge_list(22, dense)),
        Request("pmf-sparse-22", ("pmf", "--input", "-"), "pmf",
                (("m", len(sparse22)),), edge_list(22, sparse22), repeats=4),
        Request("moments-grid-4x6", ("moments", "--input", "-"), "moments",
                (("m", len(grid(4, 6))),), edge_list(24, grid(4, 6)), repeats=4),
        Request("bound-exact-sparse-20", ("bound", "--exact", "--input", "-"), "bound",
                (("exact", True),), edge_list(20, sparse20), repeats=4),
    ]


def large_n(rng: random.Random) -> list[Request]:
    seed = str(rng.getrandbits(32))
    sparse = cycle_with_chords(rng, 400, 200)
    dense = gnp_min_degree_2(rng, 100, 0.3)
    cat_n, cat_edges = caterpillar(CATERPILLAR_SPINE, 2)
    requests = []
    for family, n, count in (("path", 6000, 50), ("cycle", 6000, 50),
                             ("path", 60, 20000), ("cycle", 60, 20000)):
        requests.append(Request(
            f"sample-{family}-{n}x{count}",
            _family("sample", family, n, "--seed", seed, "--count", str(count)),
            "sample", (("family", family), ("n", n), ("count", count))))
    requests += [
        Request("gf-path-2000", _family("gf", "path", 2000), "gf",
                (("family", "path"), ("n", 2000))),
        Request("gf-cycle-2000", _family("gf", "cycle", 2000), "gf",
                (("family", "cycle"), ("n", 2000))),
        Request("moments-cycle-2000", _family("moments", "cycle", 2000), "moments",
                (("m", 2000),)),
        Request("pmf-path-3000", _family("pmf", "path", 3000), "pmf",
                (("family", "path"), ("n", 3000)), repeats=3),
        Request("bound-cycle-500", _family("bound", "cycle", 500), "bound"),
        Request("bound-sparse-400", ("bound", "--variant", "general", "--input", "-"), "bound",
                (), edge_list(400, sparse)),
        Request("bound-gnp-100", ("bound", "--variant", "general", "--input", "-"), "bound",
                (), edge_list(100, dense)),
        Request("bound-caterpillar-1100", ("bound", "--variant", "general", "--input", "-"),
                "bound", (("power_of_two", CATERPILLAR_SPINE),), edge_list(cat_n, cat_edges),
                known_failure="OverflowError", repeats=5),
    ]
    return requests


def crosscheck(rng: random.Random) -> list[Request]:
    # verify draws its corpus from its own fixed seed, so this workload is the
    # same for every benchmark seed.
    return [Request("verify-20x300", ("verify", "--max-n", "20", "--random-count", "300"),
                    "verify")]


def build(workload: str, seed: int) -> list[Request]:
    return {"exhaustive": exhaustive, "large_n": large_n, "crosscheck": crosscheck}[workload](
        random.Random(f"{workload}:{seed}"))
