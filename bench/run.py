"""mixspec benchmark: real CLI requests, exact-output checks, per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload exhaustive|large_n|crosscheck|all \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --record [--seed N]   # rewrite bench/reference.json

Every request is a fresh ``mixspec`` process run from ``src`` with nothing
installed, in a closed loop: one client, one request at a time.  The run
first times a cold no-op ``mixspec gen`` several times (``setup_s``), then
repeats the workload's request list while the next pass fits in
``--seconds`` (at least once).  Short requests run several times in a row in
each pass; every metric is built from per-request medians.  Each child is reaped with ``os.wait4``, so its
max RSS and CPU time are its own.  Every output is checked (see checks.py).

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the passes alternate between plain and traced
(trace_child.py) runs of the same requests and the JSON holds the per-layer
metrics.  The lines before it list every request's check result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import layers
import workloads
from trace_child import INVENTORY_EXIT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI = ("-c", "import sys; from mixspec.cli import main; sys.exit(main())")
TRACED = (str(BENCH / "trace_child.py"),)
SETUP_ARGV = ("gen", "--family", "path", "--n", "2")
SETUP_REPEATS = 15
RUN_LIMIT_S = 165.0  # every child is killed past this point of a run
DEFAULT_SEED = 1

END_TO_END = {"wall_s": "s", "req_geomean_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Result:
    request: workloads.Request
    status: str
    detail: str
    wall_s: float
    max_rss_mb: float
    cpu_s: float
    trace: dict | None = None


class Runner:
    """Runs one child at a time through spawner.py and reads back its output."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("MIXSPEC_CAP", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.spawner = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], env=env,
                                        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, argv: list[str], stdin: Path | None):
        """Return the child's Outcome and its reply: exit, wall_s, max_rss_kb, cpu_s."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        job = {"argv": [sys.executable, *argv], "stdin": str(stdin) if stdin else None,
               "stdout": str(out_path), "stderr": str(err_path),
               "timeout": self.deadline - perf_counter()}
        self.spawner.stdin.write(json.dumps(job) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        outcome = checks.Outcome(reply["exit"], out_path.read_bytes(), err_path.read_bytes())
        return outcome, reply


def _stdin_files(requests, workdir: Path) -> dict[str, Path]:
    files = {}
    for req in requests:
        if req.stdin is not None:
            files[req.rid] = workdir / f"{req.rid}.in"
            files[req.rid].write_text(req.stdin)
    return files


def run_pass(runner: Runner, requests, stdin_files, references, trace_dir: Path | None):
    """One pass over the request list: per request, the list of its runs.

    Plain passes run each request ``repeats`` times in a row; traced passes
    run it once, so that layer totals cover the request list exactly once.
    """
    samples = []
    for k, req in enumerate(requests):
        runs = []
        for _ in range(1 if trace_dir else req.repeats):
            argv = list(CLI) + list(req.argv)
            if trace_dir is not None:
                summary = trace_dir / f"{k:02d}-{req.rid}.json"
                argv = list(TRACED) + [str(summary)] + list(req.argv)
            out, reply = runner.run(argv, stdin_files.get(req.rid))
            if out.exit_code == INVENTORY_EXIT:
                sys.exit(f"traced run stopped: {out.stderr.decode().strip()}")
            status, detail = checks.judge(req, out, references)
            trace = json.loads(summary.read_text()) if trace_dir and summary.exists() else None
            runs.append(Result(req, status, detail, reply["wall_s"], reply["max_rss_kb"] / 1024,
                               reply["cpu_s"], trace))
        samples.append(runs)
    return samples


def measure_setup(runner: Runner) -> list[float]:
    """Cold start of a CLI verb that does no work: interpreter, imports, argparse."""
    times = []
    for _ in range(SETUP_REPEATS):
        out, reply = runner.run(list(CLI) + list(SETUP_ARGV), None)
        if out.exit_code != 0:
            sys.exit(f"mixspec gen failed (exit {out.exit_code}): {out.stderr.decode()[-2000:]}")
        times.append(reply["wall_s"])
    return times


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    workdir = ROOT / ".bench_build" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    references = checks.load_references()
    requests = workloads.build(name, seed)
    stdin_files = _stdin_files(requests, workdir)
    plain, traced = [], []
    with Runner(workdir, started + RUN_LIMIT_S) as runner:
        runner.run(list(CLI) + list(SETUP_ARGV), None)  # fills the bytecode cache
        setup = measure_setup(runner)
        t0 = perf_counter()
        while True:
            p0 = perf_counter()
            plain.append(run_pass(runner, requests, stdin_files, references, None))
            if trace:
                trace_dir = workdir / "trace"
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir()
                traced.append(run_pass(runner, requests, stdin_files, references, trace_dir))
            now = perf_counter()
            if now - t0 + (now - p0) > seconds or now + (now - p0) > started + RUN_LIMIT_S:
                break

    runs = [[r for p in plain + traced for r in p[k]] for k in range(len(requests))]
    statuses = [r.status for rs in runs for r in rs]
    plain_runs = [[r for p in plain for r in p[k]] for k in range(len(requests))]
    medians = [statistics.median(r.wall_s for r in rs) for rs in plain_runs]
    report = {
        "workload": name,
        "passes": len(plain),
        "runs": runs,
        "plain_runs": plain_runs,
        "attempted": len(statuses),
        "failed": statuses.count(checks.FAIL),
        "known": statuses.count(checks.KNOWN),
        "fail_ratio": checks.fail_ratio([[r.status for r in rs] for rs in runs]),
        "end_to_end": {
            "wall_s": sum(medians),
            "req_geomean_s": _geomean(medians),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(statistics.median(r.max_rss_mb for r in rs) for rs in plain_runs),
        },
    }
    if trace:
        per_pass = [layers.layer_metrics([rs[0].trace for rs in p]) for p in traced]
        per_layer = {m: statistics.median(pp[m] for pp in per_pass) for m in per_pass[0]}
        traced_walls = [sum(rs[0].wall_s for rs in p) for p in traced]
        per_layer["trace.overhead_ratio"] = statistics.median(traced_walls) / sum(medians)
        report["per_layer"] = per_layer
        report["missing_layers"] = [m for m in layers.EXPECTED[name] if not per_layer[m]]
    return report


def print_report(report: dict, trace: bool) -> None:
    print(f"== workload {report['workload']}: plain passes {report['passes']}"
          f"{', each followed by a traced pass' if trace else ''}")
    for rs, plain in zip(report["runs"], report["plain_runs"]):
        shown = next((r for r in rs if r.status == checks.FAIL), None) or \
            next((r for r in rs if r.status == checks.KNOWN), rs[0])
        walls = [r.wall_s for r in plain]
        print(f"  {shown.request.rid:26s} {shown.status:13s} runs {len(rs):2d}"
              f"  wall_s median {statistics.median(walls):8.4f} min {min(walls):8.4f}"
              f"  max_rss_mb {max(r.max_rss_mb for r in plain):6.1f}"
              f"  cpu_s {statistics.median(r.cpu_s for r in plain):8.4f}  {shown.detail}")
    for metric, value in report["end_to_end"].items():
        print(f"  metric {metric:24s} {value:.6g} {END_TO_END[metric]}")
    print(f"  metric {'fail_ratio':24s} {report['fail_ratio']:.6g} 1 "
          f"(of {len(report['runs'])} requests; runs: {report['failed']} failed, "
          f"{report['known']} known failure, {report['attempted']} attempted)")
    for metric, value in report.get("per_layer", {}).items():
        print(f"  layer  {metric:32s} {value:.6g} {layers.PER_LAYER[metric]}")
    for metric in report.get("missing_layers", []):
        print(f"  MISSING layer {metric}: no spans recorded where the workload should do work",
              file=sys.stderr)


def _metrics(report: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + m: {"value": v, "unit": layers.PER_LAYER[m]}
                for m, v in report["per_layer"].items()}
    return {prefix + m: {"value": v, "unit": END_TO_END[m]} for m, v in report["end_to_end"].items()}


def record(seed: int) -> None:
    """Rewrite reference.json from one pass of every workload at ``seed``."""
    workdir = ROOT / ".bench_build" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    entries = {}
    with Runner(workdir, perf_counter() + 3600) as runner:
        for name in workloads.WORKLOADS:
            requests = workloads.build(name, seed)
            stdin_files = _stdin_files(requests, workdir)
            for req in requests:
                out, _ = runner.run(list(CLI) + list(req.argv), stdin_files.get(req.rid))
                if req.known_failure and out.exit_code != 0:
                    continue
                entries[req.rid] = checks.reference_entry(req, out)
    checks.REFERENCE_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} references at seed {seed}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    started = perf_counter()
    if not (ROOT / "src" / "mixspec" / "cli.py").is_file():
        sys.exit(f"no mixspec sources under {ROOT / 'src'}")
    problems = checks.self_test()
    if problems:
        sys.exit("output checker self-test failed: " + "; ".join(problems))
    if args.record:
        record(args.seed)
        return 0
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, trace,
                              started if len(names) == 1 else perf_counter())
        print_report(report, trace)
        reports.append(report)
    print(f"machine: {os.cpu_count()} CPUs, Python {sys.version.split()[0]}, seed {args.seed}")
    metrics = {}
    for report in reports:
        metrics.update(_metrics(report, trace, f"{report['workload']}." if len(names) > 1 else ""))
    print(json.dumps({
        "correct": not any(r["failed"] or r.get("missing_layers") for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
