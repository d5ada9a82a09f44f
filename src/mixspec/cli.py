"""Command-line interface.

Verbs: gen, enumerate, spectrum, pmf, sample, gf, moments, bound, verify.
Graphs come either from ``--input <edge-list>`` ('-' for stdin) or from
``--family <name> --n <size>`` (families: path, cycle, complete, biclique
with ``--m``, petersen).  Output is deterministic: identical invocations
produce byte-identical reports.

This module alone encodes results: the library returns immutable
``NamedTuple``s of exact ``Fraction``s and integers, and only the encoders
here write them as JSON (each rational as ``{"num", "den"}`` strings) or CSV.
A bound's ``upper_bound_decimal`` is its nearest double, or null beyond the
double range.

Exit codes: 0 success (also when the reader of stdout closes the pipe
early), 1 failed verification checks, 2 malformed input or flags, 3 command
inapplicable to the given graph (caps, bound hypotheses) or out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import families, genfunc, verify
from .enumeration import (DEFAULT_VERTEX_CAP, CapExceededError, MixHistogram,
                          enumerate_integrated, exact_histogram)
from .graph import (
    Graph,
    biclique_graph,
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
    if args.cap is not None:
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


def _verify_order(text: str) -> int:
    """argparse type for ``verify --max-n``: an order the enumerator accepts."""
    value = _non_negative(text)
    if not 1 <= value <= DEFAULT_VERTEX_CAP:
        raise argparse.ArgumentTypeError(f"must be between 1 and {DEFAULT_VERTEX_CAP}, got {value}")
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
    n = _family_n(args)
    if family == "path":
        return path_graph(n)
    if family == "cycle":
        return cycle_graph(n)
    if family == "complete":
        return complete_graph(n)
    if args.m is None:
        raise UsageError("--family biclique requires --m and --n")
    return biclique_graph(args.m, n)


def _family_n(args) -> int:
    """The ``--n`` that every family but petersen needs."""
    if args.n is None:
        raise UsageError("--family requires --n")
    return args.n


def _path_or_cycle(args, verb: str | None = None) -> str | None:
    """The family, "path" or "cycle", whose formulas answer the request, or
    None when it names a graph for ``_load_graph``.  A ``verb`` given here
    serves only those two families and rejects any other source."""
    if getattr(args, "input", None) is None and args.family in ("path", "cycle"):
        _family_n(args)
        return args.family
    if verb is not None:
        raise UsageError(f"{verb} supports --family path or cycle")
    return None


def _graph_histogram(args) -> tuple[str, int, MixHistogram]:
    """The graph source's label ("input" or its family), its order, and its
    exact histogram from the cheapest engine."""
    g = _load_graph(args)
    label = "input" if args.input is not None else args.family
    return label, g.vertex_count, exact_histogram(g, cap=_effective_cap(args))


def _histogram(args) -> tuple[str, int, MixHistogram]:
    """``_graph_histogram``'s triple, from the family pmf for path and cycle,
    which take any order in the family's range, else from the graph."""
    family = _path_or_cycle(args)
    if family:
        return family, args.n, getattr(families, f"{family}_pmf")(args.n)
    return _graph_histogram(args)


def _rational(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _bound_json(report: bounds_mod.BoundReport, exact_ic: int | None) -> dict:
    try:
        decimal = float(report.upper_bound)
    except OverflowError:
        decimal = None
    return {
        "variant": report.variant,
        "applicable": report.applicable,
        "reason": report.reason,
        "v_prime_size": report.v_prime_size,
        "v_double_prime_size": report.v_double_prime_size,
        "isolated_count": report.isolated_count,
        "mu": _rational(report.mu),
        "sigma_sq": _rational(report.sigma_sq),
        "upper_bound": _rational(report.upper_bound),
        "upper_bound_decimal": decimal,
        "exact": report.exact,
        "exact_ic": None if exact_ic is None else str(exact_ic),
    }


def _clt_json(report: genfunc.CltReport) -> dict:
    return {
        "family": report.family,
        "n": report.n,
        "mean": _rational(report.mean),
        "variance": _rational(report.variance),
        "delta_mean": report.delta_mean,
        "delta_var": report.delta_variance,
        "mean_rate_gap": report.mean_rate_gap,
        "variance_rate_gap": report.variance_rate_gap,
        "variance_rate_gap_quoted": report.variance_rate_gap_quoted,
        "mean_offset": report.mean_offset,
        "cdf_sup_distance": report.cdf_sup_distance,
    }


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, separators=(",", ":")))


# A coloring holds one 0 or 1 per vertex, so a bytearray takes it as bytes;
# a whole block of lines is turned into digits at C level and written at
# once, and the size bound keeps memory flat however long a line is.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _emit_colorings(colorings) -> None:
    """Write one line of 0s and 1s per coloring, in blocks of about 64 KiB."""
    block = bytearray()
    for coloring in colorings:
        block.extend(coloring)
        block.append(10)  # "\n"
        if len(block) >= 1 << 16:
            sys.stdout.write(block.translate(_DIGITS).decode())
            block.clear()
    if block:
        sys.stdout.write(block.translate(_DIGITS).decode())


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    sys.stdout.write(format_edge_list(_family_graph(args)))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    g = _load_graph(args)
    _emit_colorings(enumerate_integrated(g, cap=_effective_cap(args)))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    _, _, hist = _graph_histogram(args)
    if args.format == "csv":
        lines = ["mix,count"] + [f"{k},{c}" for k, c in hist.counts.items()]
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "ic": hist.ic,
                "ims": list(hist.ims),
                "histogram": {str(k): c for k, c in hist.counts.items()},
            }
        )
    return EXIT_OK


def _cmd_pmf(args) -> int:
    label, order, hist = _histogram(args)
    total = hist.ic
    if args.format == "csv":
        den = str(total)
        lines = ["mix,num,den"] + [f"{k},{num},{den}" for k, num in hist.counts.items()]
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "family": label,
                "n": order,
                "ic": str(total),
                "pmf": [
                    {"mix": k} | _rational(Fraction(num, total))
                    for k, num in hist.counts.items()
                ],
            }
        )
    return EXIT_OK


def _cmd_sample(args) -> int:
    family = _path_or_cycle(args, "sample")
    _emit_colorings(getattr(families, f"sample_{family}")(args.n, args.seed, args.count))
    return EXIT_OK


def _cmd_gf(args) -> int:
    family = _path_or_cycle(args, "gf")
    poly = getattr(genfunc, f"{family}_gf_coeff")(args.n)
    if args.format == "csv":
        lines = ["power,coeff"] + [f"{k},{c}" for k, c in enumerate(poly.coeffs) if c]
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "family": family,
                "n": args.n,
                "coeffs": [str(c) for c in poly.coeffs],
                "count": str(poly.at_one()),
            }
        )
    return EXIT_OK


def _cmd_moments(args) -> int:
    family = _path_or_cycle(args)
    if family and args.n >= 8:
        _emit_json(_clt_json(genfunc.clt_diagnostics(family, args.n)))
        return EXIT_OK
    label, order, hist = _histogram(args)
    mean, variance = genfunc.pgf_moments(genfunc.UPoly.of_counts(hist.counts))
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
    exact_ic = exact_histogram(g, cap=_effective_cap(args)).ic if args.exact else None
    if variant == "auto":
        general = bounds_mod.bound_general(g)
        # The strongest specialized bound whose hypotheses hold, tried lazily.
        candidates = (bounds_mod.bound_specialized(g, v) for v in ("srg", "regular", "min_degree"))
        chosen = next((report for report in candidates if report.applicable), None)
        specialized = _bound_json(chosen, exact_ic) if chosen else None
        _emit_json({"general": _bound_json(general, exact_ic), "specialized": specialized})
        return EXIT_OK if general.applicable else EXIT_INAPPLICABLE
    if variant == "general":
        report = bounds_mod.bound_general(g)
    else:
        report = bounds_mod.bound_specialized(g, variant)
    _emit_json(_bound_json(report, exact_ic))
    return EXIT_OK if report.applicable else EXIT_INAPPLICABLE


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
        p.add_argument("--cap", type=_non_negative, help="vertex cap for exhaustive search")
    p.add_argument(
        "--family",
        choices=["path", "cycle", "complete", "biclique", "petersen"],
        required=families_only,
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
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("spectrum", help="exact mixing-number histogram")
    _add_source_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pmf", help="exact mixing-number distribution")
    _add_source_flags(p)
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
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("bound", help="second-moment upper bounds on the coloring count")
    _add_source_flags(p)
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
    p.add_argument("--max-n", type=_verify_order, default=12, dest="max_n")
    p.add_argument("--random-count", type=_non_negative, default=100, dest="random_count")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Exact counts can pass the default 4300-digit int->str limit (3.10.7+).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (CapExceededError, bounds_mod.InapplicableError) as exc:
        print(f"mixspec: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (UsageError, ValueError) as exc:
        print(f"mixspec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("mixspec: out of memory: the input is too large", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except BrokenPipeError:
        # The reader closed the pipe (``mixspec enumerate ... | head -1``).
        # Point stdout at the null device so the final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
