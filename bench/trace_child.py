"""Run one mixspec CLI request with a span around every call into a layer.

Usage: python3 trace_child.py <summary.json> <mixspec argv...>

The child times ``import mixspec.cli``, rebinds each public function in
``layers.TIMED`` in every mixspec module namespace that binds it, counts
stdout bytes and write time through a wrapping sink, and calls
``mixspec.cli.main(argv)``.  Spans (name, start, end, parent) are kept in
memory in flat arrays, one child process per request, and summarized once
the command has finished: self times per function, generator draw times, and
the work counts the code does not expose, computed here from the graphs the
functions received.  The raw spans go to ``<summary.json>.spans``: a JSON
line of span names, then the name, parent, start and end columns as arrays
of int32, int32, float64 and float64.

Exit status and stdout are those of the plain CLI; an uncaught exception
prints its traceback and exits 1, as the console script does.  A function
missing from the inventory exits with INVENTORY_EXIT.
"""

from __future__ import annotations

import functools
import json
import sys
import traceback
from array import array
from collections import defaultdict
from time import perf_counter

import layers

INVENTORY_EXIT = 70


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [layers.ROOT]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.instance = array("i")  # generator instance of a next() span, else -1
        self.stopped: set[int] = set()  # next() spans that ended the generator
        self.stack = [-1]
        self.captured: list[tuple[str, tuple, dict, object]] = []
        self.instances = 0

    def enter(self, name_id: int, instance: int = -1) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.instance.append(instance)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def call_wrapper(self, key: str, fn):
        nid = len(self.names)
        self.names.append(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(i)
            if key in CAPTURED:
                self.captured.append((key, args, kwargs, result))
            return result

        return wrapper

    def generator_wrapper(self, key: str, fn):
        nid = len(self.names)
        self.names.append(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._steps(nid, fn(*args, **kwargs))

        return wrapper

    def _steps(self, nid: int, gen):
        """Re-yield ``gen``, with one span around each of its next() calls."""
        instance = self.instances
        self.instances += 1
        try:
            while True:
                i = self.enter(nid, instance)
                try:
                    item = next(gen)
                except StopIteration:
                    self.stopped.add(i)
                    return
                finally:
                    self.exit(i)
                yield item
        finally:
            gen.close()


class CountingSink:
    """Stdout replacement that counts bytes and times every write."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.bytes = 0
        self.seconds = 0.0

    def write(self, text: str) -> int:
        t0 = perf_counter()
        written = self.stream.write(text)
        self.seconds += perf_counter() - t0
        self.bytes += len(text.encode())
        return written

    def flush(self) -> None:
        t0 = perf_counter()
        self.stream.flush()
        self.seconds += perf_counter() - t0

    def __getattr__(self, name):
        return getattr(self.stream, name)


def install(tracer: Tracer) -> None:
    """Rebind every inventory function wherever a mixspec module binds it."""
    replacements = {}
    for key in layers.TIMED:
        module_name, fn_name = key.split(".")
        fn = getattr(sys.modules.get(f"mixspec.{module_name}"), fn_name, None)
        if not callable(fn):
            print(f"bench inventory: mixspec.{key} no longer exists", file=sys.stderr)
            sys.exit(INVENTORY_EXIT)
        make = tracer.generator_wrapper if key in layers.GENERATORS else tracer.call_wrapper
        replacements[id(fn)] = make(key, fn)
    for name, module in list(sys.modules.items()):
        if name == "mixspec" or name.startswith("mixspec."):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])


# ---------------------------------------------------------------------------
# Work counts computed from the captured arguments and results
# ---------------------------------------------------------------------------

CAPTURED = {"graph.parse_edge_list", "genfunc.path_gf_coeffs", "genfunc.cycle_gf_coeffs",
            "bounds.bound_general", "bounds.bound_specialized", "enumeration.max_cut",
            "bounds.semirandom_oracle", "bounds.pair_joint_moments"}


def _v_double_prime(adj) -> list[int]:
    """Non-pendant vertices with more non-pendant neighbors than half their degree."""
    pendant = {v for v, nbrs in enumerate(adj) if len(nbrs) == 1}
    return [v for v, nbrs in enumerate(adj)
            if len(nbrs) != 1 and 2 * sum(w not in pendant for w in nbrs) > len(nbrs)]


def _pairs(adj) -> tuple[int, int]:
    """V'' pairs, and those within distance 2 (the dependent ones)."""
    members = _v_double_prime(adj)
    inside = set(members)
    dependent = 0
    for v in members:
        near = set(adj[v]).union(*(adj[u] for u in adj[v]))
        dependent += sum(1 for w in near if w > v and w in inside)
    return len(members) * (len(members) - 1) // 2, dependent


def work_counts(captured) -> dict[str, int]:
    counts = dict.fromkeys(layers.COUNTS, 0)
    for key, args, kwargs, result in captured:
        fn = key.split(".")[1]
        if fn == "parse_edge_list":
            counts["edges_parsed"] += result.edge_count
        elif fn.endswith("_gf_coeffs"):
            counts["rows"] += len(result)
            counts["coeff_bits"] += sum(c.bit_length() for row in result for c in row.coeffs)
        elif fn.startswith("bound_"):
            variant = "general" if fn == "bound_general" else (args[1:] or [kwargs.get("variant")])[0]
            if variant in ("general", "min_degree", "regular") and result.applicable and not result.exact:
                total, dependent = _pairs(args[0].adjacency)
                counts["vpp_pairs"] += total
                counts["dependent_pairs"] += dependent
        elif fn == "max_cut":
            g = args[0]
            if g.vertex_count > 1 and g.edge_count:
                counts["max_cut_masks"] += 1 << (g.vertex_count - 1)
        else:  # semirandom_oracle, pair_joint_moments: one scan of all V' colorings
            counts["oracle_assignments"] += 1 << sum(len(n) != 1 for n in args[0].adjacency)
    return counts


def summarize(tracer: Tracer, import_s: float, sink: CountingSink) -> dict:
    n = len(tracer.start)
    covered = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            covered[tracer.parent[i]] += tracer.end[i] - tracer.start[i]
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    yields: dict[str, int] = defaultdict(int)
    draws: dict[int, list[float]] = defaultdict(list)
    for i in range(n):
        key = tracer.names[tracer.name[i]]
        duration = tracer.end[i] - tracer.start[i]
        self_s[key] += duration - covered[i]
        incl_s[key] += duration
        calls[key] += 1
        if tracer.instance[i] >= 0 and i not in tracer.stopped:
            yields[key] += 1
            if key in layers.SAMPLERS:
                draws[tracer.instance[i]].append(duration)
    return {
        "spans": n,
        "import_s": import_s,
        "stdout_bytes": sink.bytes,
        "write_s": sink.seconds,
        "self_s": self_s,
        "incl_s": incl_s,
        "calls": calls,
        "yields": yields,
        "draws": list(draws.values()),
        "counts": work_counts(tracer.captured),
    }


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import mixspec.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    sink = CountingSink(sys.stdout)
    sys.stdout = sink
    root = tracer.enter(0)
    try:
        code = mixspec.cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.exit(root)
        sink.flush()
        sys.stdout = sink.stream
    with open(summary_path, "w") as fh:
        json.dump(summarize(tracer, import_s, sink), fh)
    with open(summary_path + ".spans", "wb") as fh:
        fh.write(json.dumps(tracer.names).encode() + b"\n")
        for column in (tracer.name, tracer.parent, tracer.start, tracer.end):
            column.tofile(fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
