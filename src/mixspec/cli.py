"""Command-line interface.

Verbs: gen, enumerate, spectrum, pmf, sample, gf, moments, bound, verify.
Graphs come either from ``--input <edge-list>`` ('-' for stdin) or from
``--family <name> --n <size>`` (families: path, cycle, complete, biclique
with ``--m``, petersen).  Output is deterministic: identical invocations
produce byte-identical reports.

Exit codes: 0 success, 1 failed verification checks, 2 malformed input or
flags, 3 command inapplicable to the given graph (caps, bound hypotheses).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import families, genfunc, verify
from .enumeration import CapExceededError, enumerate_integrated, mix_histogram
from .graph import (
    Graph,
    biclique_graph,
    coloring_to_string,
    complete_graph,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    petersen_graph,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3


class UsageError(ValueError):
    pass


def _env_cap() -> int | None:
    raw = os.environ.get("MIXSPEC_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"MIXSPEC_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise UsageError(f"MIXSPEC_CAP must not be negative, got {cap}")
    return cap


def _effective_cap(args) -> int | None:
    if getattr(args, "cap", None) is not None:
        return args.cap
    return _env_cap()


def _non_negative(text: str) -> int:
    """argparse type for counts and caps."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _load_graph(args) -> Graph:
    if args.input is not None and args.family is not None:
        raise UsageError("give exactly one of --input and --family")
    if args.input is not None:
        text = sys.stdin.read() if args.input == "-" else _read_file(args.input)
        return parse_edge_list(text)
    if args.family is None:
        raise UsageError("one of --input or --family is required")
    return _family_graph(args)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _family_graph(args) -> Graph:
    family = args.family
    if family == "petersen":
        return petersen_graph()
    if args.n is None:
        raise UsageError(f"--family {family} requires --n")
    if family == "path":
        return path_graph(args.n)
    if family == "cycle":
        return cycle_graph(args.n)
    if family == "complete":
        return complete_graph(args.n)
    if family == "biclique":
        if args.m is None:
            raise UsageError("--family biclique requires --m and --n")
        return biclique_graph(args.m, args.n)
    raise UsageError(f"unknown family {family!r}")


def _rational(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    sys.stdout.write(format_edge_list(_family_graph(args)))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    g = _load_graph(args)
    for coloring in enumerate_integrated(g, cap=_effective_cap(args)):
        sys.stdout.write(coloring_to_string(coloring) + "\n")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _load_graph(args)
    hist = mix_histogram(g, cap=_effective_cap(args))
    if args.format == "csv":
        lines = ["mix,count"] + [f"{k},{c}" for k, c in sorted(hist.counts.items())]
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "ic": hist.ic,
                "ims": list(hist.ims),
                "histogram": {str(k): c for k, c in sorted(hist.counts.items())},
            }
        )
    return EXIT_OK


def _family_pmf(args) -> families.FamilyPmf:
    if args.family == "path":
        return families.path_pmf(args.n)
    if args.family == "cycle":
        return families.cycle_pmf(args.n)
    raise UsageError("pmf supports --family path or cycle (or --input)")


def _cmd_pmf(args) -> int:
    if args.input is not None:
        g = _load_graph(args)
        hist = mix_histogram(g, cap=_effective_cap(args))
        label, order, total = "input", g.vertex_count, hist.ic
        numerators = dict(sorted(hist.counts.items()))
    else:
        if args.family in ("path", "cycle"):
            if args.n is None:
                raise UsageError("--family requires --n")
            pmf = _family_pmf(args)
            label, order, total = pmf.family, pmf.n, pmf.ic
            numerators = {k: int(p * total) for k, p in sorted(pmf.masses.items())}
        else:
            g = _family_graph(args)
            hist = mix_histogram(g, cap=_effective_cap(args))
            label, order, total = args.family, g.vertex_count, hist.ic
            numerators = dict(sorted(hist.counts.items()))
    if args.format == "csv":
        lines = ["mix,num,den"] + [f"{k},{num},{total}" for k, num in numerators.items()]
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "family": label,
                "n": order,
                "ic": str(total),
                "pmf": [
                    {"mix": k} | _rational(Fraction(num, total))
                    for k, num in numerators.items()
                ],
            }
        )
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.family == "path":
        stream = families.sample_path(args.n, args.seed, args.count)
    elif args.family == "cycle":
        stream = families.sample_cycle(args.n, args.seed, args.count)
    else:
        raise UsageError("sample supports --family path or cycle")
    for coloring in stream:
        sys.stdout.write(coloring_to_string(coloring) + "\n")
    return EXIT_OK


def _cmd_gf(args) -> int:
    if args.family == "path":
        poly = genfunc.path_gf_coeff(args.n)
    elif args.family == "cycle":
        poly = genfunc.cycle_gf_coeff(args.n)
    else:
        raise UsageError("gf supports --family path or cycle")
    if args.format == "csv":
        lines = ["power,coeff"] + [f"{k},{c}" for k, c in enumerate(poly.coeffs) if c]
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "family": args.family,
                "n": args.n,
                "coeffs": [str(c) for c in poly.coeffs],
                "count": str(poly.at_one()),
            }
        )
    return EXIT_OK


def _cmd_moments(args) -> int:
    if args.input is not None or args.family not in ("path", "cycle", None):
        g = _load_graph(args)
        counts = mix_histogram(g, cap=_effective_cap(args)).counts
        poly = genfunc.UPoly.of([counts.get(k, 0) for k in range(max(counts) + 1)])
        label = "input" if args.input is not None else args.family
        order = g.vertex_count
    elif args.family is None or args.n is None:
        raise UsageError("moments needs --input or --family path|cycle with --n")
    elif args.n >= 8:
        _emit_json(genfunc.clt_diagnostics(args.family, args.n).to_json_dict())
        return EXIT_OK
    else:
        poly = (
            genfunc.path_gf_coeff(args.n)
            if args.family == "path"
            else genfunc.cycle_gf_coeff(args.n)
        )
        label, order = args.family, args.n
    mean, variance = genfunc.pgf_moments(poly)
    _emit_json(
        {
            "family": label,
            "n": order,
            "mean": _rational(mean),
            "variance": _rational(variance),
        }
    )
    return EXIT_OK


def _cmd_bound(args) -> int:
    g = _load_graph(args)
    variant = args.variant.replace("-", "_")
    exact_ic = None
    if args.exact:
        exact_ic = mix_histogram(g, cap=_effective_cap(args)).ic
    if variant == "auto":
        general = bounds_mod.bound_general(g)
        chosen = None
        for candidate in ("srg", "regular", "min_degree"):
            report = bounds_mod.bound_specialized(g, candidate)
            if report.applicable:
                chosen = report
                break
        payload = {
            "general": _bound_dict(general, exact_ic),
            "specialized": _bound_dict(chosen, exact_ic) if chosen else None,
        }
        _emit_json(payload)
        return EXIT_OK if general.applicable else EXIT_INAPPLICABLE
    if variant == "general":
        report = bounds_mod.bound_general(g)
    else:
        report = bounds_mod.bound_specialized(g, variant)
    _emit_json(_bound_dict(report, exact_ic))
    return EXIT_OK if report.applicable else EXIT_INAPPLICABLE


def _bound_dict(report: bounds_mod.BoundReport, exact_ic: int | None) -> dict:
    data = report.to_json_dict()
    if exact_ic is not None:
        data["exact_ic"] = str(exact_ic)
    return data


def _cmd_verify(args) -> int:
    results, notes = verify.run_checks(max_n=args.max_n, random_count=args.random_count)
    failed = 0
    for result in results:
        status = "pass" if result.passed else "FAIL"
        _emit(f"{status}  {result.name}: {result.detail}")
        if not result.passed:
            failed += 1
    for note in notes:
        _emit(f"note  {note}")
    _emit(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECKS_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_source_flags(p: argparse.ArgumentParser, families_only: bool = False) -> None:
    if not families_only:
        p.add_argument("--input", help="edge-list file, or '-' for stdin")
    p.add_argument(
        "--family", choices=["path", "cycle", "complete", "biclique", "petersen"]
    )
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--m", type=int, help="first part size for bicliques")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixspec", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="emit a family graph as edge-list text")
    _add_source_flags(p, families_only=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("enumerate", help="stream integrated colorings, one 0/1 line each")
    _add_source_flags(p)
    p.add_argument("--cap", type=_non_negative, help="vertex cap for exhaustive search")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("spectrum", help="exact mixing-number histogram")
    _add_source_flags(p)
    p.add_argument("--cap", type=_non_negative)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pmf", help="exact mixing-number distribution")
    _add_source_flags(p)
    p.add_argument("--cap", type=_non_negative)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("sample", help="uniform random integrated colorings")
    _add_source_flags(p, families_only=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_non_negative, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gf", help="generating-function coefficients for one order")
    _add_source_flags(p, families_only=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("moments", help="exact mean/variance and normal-law diagnostics")
    _add_source_flags(p)
    p.add_argument("--cap", type=_non_negative)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("bound", help="second-moment upper bounds on the coloring count")
    _add_source_flags(p)
    p.add_argument("--cap", type=_non_negative)
    p.add_argument(
        "--variant",
        choices=["general", "min-degree", "regular", "srg", "auto"],
        default="auto",
    )
    p.add_argument(
        "--exact", action="store_true", help="also enumerate the exact count"
    )
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="run the full cross-check suite")
    p.add_argument("--max-n", type=int, default=12, dest="max_n")
    p.add_argument("--random-count", type=int, default=100, dest="random_count")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"mixspec: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except bounds_mod.InapplicableError as exc:
        print(f"mixspec: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (UsageError, ValueError) as exc:
        print(f"mixspec: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
