from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixspec import cli, families, genfunc
from mixspec.cli import main

from test_golden import CASES


def run_cli(capsys, *argv: str, stdin: str | None = None, monkeypatch=None) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def feed_stdin(monkeypatch):
    import io
    import sys

    def _feed(text: str):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))

    return _feed


def test_gen_cycle(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "n 4"
    assert len(out.splitlines()) == 5


def test_gen_pipe_spectrum(capsys, feed_stdin):
    code, out, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "4")
    assert code == 0
    feed_stdin(out)
    code, out, _ = run_cli(capsys, "spectrum", "--input", "-")
    assert code == 0
    assert json.loads(out) == {"ic": 6, "ims": [2, 4], "histogram": {"2": 4, "4": 2}}


def test_spectrum_family_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "cycle", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "mix,count\n2,4\n4,2\n"


def test_pmf_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--family", "path", "--n", "5", "--format", "csv")
    assert code == 0
    assert out == "mix,num,den\n3,4,6\n4,2,6\n"


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_pmf_csv_large_n_matches_per_line_formula(capsys, family):
    # At n = 2000 the shared denominator has about 1400 bits.
    n = 2000
    hist = getattr(families, f"{family}_pmf")(n)
    code, out, _ = run_cli(capsys, "pmf", "--family", family, "--n", str(n), "--format", "csv")
    assert code == 0
    lines = ["mix,num,den"] + [f"{k},{num},{hist.ic}" for k, num in hist.counts.items()]
    assert out == "\n".join(lines) + "\n"
    assert len(lines) > 100


def test_pmf_json_reduced(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--family", "path", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "family": "path",
        "n": 5,
        "ic": "6",
        "pmf": [
            {"mix": 3, "num": "2", "den": "3"},
            {"mix": 4, "num": "1", "den": "3"},
        ],
    }


def test_pmf_from_input_matches_family(capsys, feed_stdin):
    code, gen_out, _ = run_cli(capsys, "gen", "--family", "path", "--n", "6")
    feed_stdin(gen_out)
    code, from_input, _ = run_cli(capsys, "pmf", "--input", "-", "--format", "csv")
    assert code == 0
    code, from_family, _ = run_cli(capsys, "pmf", "--family", "path", "--n", "6", "--format", "csv")
    assert from_input == from_family


def test_enumerate_jsonl(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "path", "--n", "3")
    assert code == 0
    assert out == "010\n101\n"


def test_sample_deterministic(capsys):
    code, first, _ = run_cli(capsys, "sample", "--family", "cycle", "--n", "6", "--seed", "9", "--count", "8")
    assert code == 0
    code, second, _ = run_cli(capsys, "sample", "--family", "cycle", "--n", "6", "--seed", "9", "--count", "8")
    assert first == second
    assert len(first.splitlines()) == 8
    assert all(set(line) <= {"0", "1"} and len(line) == 6 for line in first.splitlines())


def test_sample_requires_seed(capsys):
    code, _, _ = run_cli(capsys, "sample", "--family", "cycle", "--n", "6", "--count", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--family", "path", "--seed", "1", "--count", "2"],
        ["gf", "--family", "cycle"],
        ["moments", "--family", "path"],
        ["pmf", "--family", "cycle"],
        ["gen", "--family", "path"],
        ["spectrum", "--family", "complete"],
        ["bound", "--family", "cycle"],
        ["enumerate", "--family", "path"],
    ],
)
def test_family_without_n_exit2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "mixspec: --family requires --n\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["moments", "--family", "path", "--n", "0"], "mixspec: need n >= 1\n"),
        (["gf", "--family", "cycle", "--n", "1"], "mixspec: need n >= 2\n"),
        (["pmf", "--family", "path", "--n", "0"], "mixspec: need n >= 1\n"),
        (["sample", "--family", "cycle", "--n", "1", "--seed", "1", "--count", "1"],
         "mixspec: need n >= 2\n"),
        (["moments", "--family", "cycle", "--n", "1"], "mixspec: need n >= 2\n"),
    ],
)
def test_single_row_below_family_range_names_n(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)


def test_smallest_family_orders_get_one_law_across_verbs(capsys):
    # P_1 is one vertex with mix 0 in both colors; C_2 is the two-vertex ring,
    # both edges balanced.  pmf and sample answer them as spectrum, gf and
    # moments do.
    code, out, _ = run_cli(capsys, "spectrum", "--family", "path", "--n", "1")
    assert code == 0
    histogram = {int(k): c for k, c in json.loads(out)["histogram"].items()}
    code, out, _ = run_cli(capsys, "pmf", "--family", "path", "--n", "1")
    assert code == 0
    masses = {e["mix"]: Fraction(int(e["num"]), int(e["den"])) for e in json.loads(out)["pmf"]}
    assert masses == {k: Fraction(c, sum(histogram.values())) for k, c in histogram.items()}
    for family, n, words in (("path", "1", {"0", "1"}), ("cycle", "2", {"01", "10"})):
        code, out, _ = run_cli(capsys, "sample", "--family", family, "--n", n,
                               "--seed", "3", "--count", "40")
        assert code == 0
        assert set(out.splitlines()) == words, family


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "4"],
        ["gen"],
        ["sample", "--n", "5", "--seed", "1", "--count", "1"],
        ["gf", "--n", "5"],
    ],
)
def test_families_only_verbs_require_family(capsys, argv):
    # gen, sample and gf read only --family, so argparse rejects its absence.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"mixspec {argv[0]}: error:" in err
    assert "the following arguments are required: --family" in err


def test_gf_json(capsys):
    code, out, _ = run_cli(capsys, "gf", "--family", "cycle", "--n", "6")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == ["0", "0", "0", "0", "18", "0", "2"]
    assert data["count"] == "20"


def test_moments_family(capsys):
    code, out, _ = run_cli(capsys, "moments", "--family", "path", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["mean"] == {"num": "5", "den": "2"}
    assert data["variance"] == {"num": "1", "den": "4"}


def test_moments_diagnostics(capsys):
    code, out, _ = run_cli(capsys, "moments", "--family", "cycle", "--n", "50")
    assert code == 0
    data = json.loads(out)
    assert "cdf_sup_distance" in data and "delta_mean" in data
    code, out, _ = run_cli(capsys, "moments", "--family", "path", "--n", "40")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 40
    assert set(data["mean"]) == {"num", "den"}
    assert isinstance(data["delta_mean"], float)
    assert isinstance(data["cdf_sup_distance"], float)


def test_moments_from_input(capsys, feed_stdin):
    feed_stdin("0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(capsys, "moments", "--input", "-")
    assert code == 0
    data = json.loads(out)
    assert data["mean"] == {"num": "8", "den": "3"}
    assert data["variance"] == {"num": "8", "den": "9"}


def test_bound_variant_general(capsys, feed_stdin):
    feed_stdin("0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(capsys, "bound", "--input", "-", "--variant", "general", "--exact")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == {"num": "3", "den": "1"}
    assert data["sigma_sq"] == {"num": "3", "den": "2"}
    assert data["upper_bound_decimal"] == 9.6
    assert data["exact_ic"] == "6"


def test_bound_auto_includes_both(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "petersen", "--variant", "auto")
    assert code == 0
    data = json.loads(out)
    assert data["specialized"]["variant"] == "srg"
    assert data["general"]["upper_bound"] == data["specialized"]["upper_bound"]


def test_bound_inapplicable_exit_code(capsys):
    code, out, err = run_cli(capsys, "bound", "--family", "path", "--n", "2", "--variant", "general")
    assert code == 3
    data = json.loads(out)
    assert data["applicable"] is False and data["reason"]


def test_self_loop_input_exit2(capsys, feed_stdin):
    feed_stdin("0 0\n")
    code, _, err = run_cli(capsys, "spectrum", "--input", "-")
    assert code == 2
    assert "line 1" in err


def test_two_sources_rejected(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n")
    code, _, err = run_cli(capsys, "spectrum", "--input", str(f), "--family", "path", "--n", "3")
    assert code == 2


def test_missing_source_rejected(capsys):
    code, _, err = run_cli(capsys, "spectrum")
    assert code == 2


def test_unknown_flag_exit2(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--bogus")
    assert code == 2


def test_cap_flag_and_env(capsys, monkeypatch, feed_stdin):
    code, _, err = run_cli(capsys, "spectrum", "--family", "path", "--n", "10", "--cap", "5")
    assert code == 3
    assert "cap" in err
    monkeypatch.setenv("MIXSPEC_CAP", "5")
    code, _, err = run_cli(capsys, "spectrum", "--family", "path", "--n", "10")
    assert code == 3
    monkeypatch.setenv("MIXSPEC_CAP", "12")
    code, out, _ = run_cli(capsys, "spectrum", "--family", "path", "--n", "10")
    assert code == 0


def test_negative_count_and_caps_exit2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "sample", "--family", "path", "--n", "5", "--seed", "1", "--count", "-1")
    assert (code, out) == (2, "") and "negative" in err
    code, out, err = run_cli(capsys, "spectrum", "--family", "path", "--n", "10", "--cap", "-1")
    assert (code, out) == (2, "") and "negative" in err
    monkeypatch.setenv("MIXSPEC_CAP", "-3")
    code, out, err = run_cli(capsys, "spectrum", "--family", "path", "--n", "10")
    assert (code, out) == (2, "") and "MIXSPEC_CAP" in err


def test_bound_beyond_double_range(capsys, feed_stdin):
    # A 1100-vertex spine with two pendant legs on each spine vertex: V'' is
    # empty and the bound is exactly 2^1100, past the largest double.
    spine = 1100
    edges = [f"{i} {i + 1}" for i in range(spine - 1)]
    edges += [f"{i} {spine + 2 * i + k}" for i in range(spine) for k in range(2)]
    feed_stdin("\n".join(edges) + "\n")
    code, out, err = run_cli(capsys, "bound", "--variant", "general", "--input", "-")
    assert code == 0, err
    data = json.loads(out)
    assert data["exact"] is True
    assert data["upper_bound"] == {"num": str(2**spine), "den": "1"}
    assert data["upper_bound_decimal"] is None


@pytest.mark.parametrize("n", [5, 60, 2000, 14500])
@pytest.mark.parametrize("variant", ["general", "regular"])
def test_cycle_bound_closed_form(capsys, variant, n):
    # For C_n, n >= 5: mu = 3n/4, sigma^2 = 5n/16, bound = 5 * 2^n / (n + 5).
    code, out, err = run_cli(capsys, "bound", "--variant", variant, "--family", "cycle", "--n", str(n))
    assert (code, err) == (0, "")
    data = json.loads(out)

    def fraction(key):
        return Fraction(int(data[key]["num"]), int(data[key]["den"]))

    assert fraction("mu") == Fraction(3 * n, 4)
    assert fraction("sigma_sq") == Fraction(5 * n, 16)
    assert fraction("upper_bound") == Fraction(5 * 2**n, n + 5)


def test_counts_past_the_int_str_digit_limit(capsys):
    # ic(K_{2,14400}) has over 4300 digits, Python's default int->str limit.
    code, out, err = run_cli(capsys, "spectrum", "--family", "biclique", "--m", "2",
                             "--n", "14400", "--cap", "20000")
    assert (code, err) == (0, "")
    assert json.loads(out)["ic"] == families.ic_biclique(2, 14400)[0]


def test_deep_search_past_recursion_limit(capsys, feed_stdin):
    # The star K_{1,1500}: a 1501-level search with exactly two leaves.
    star = "".join(f"0 {leaf}\n" for leaf in range(1, 1501))
    feed_stdin(star)
    code, out, err = run_cli(capsys, "spectrum", "--cap", "2000", "--input", "-")
    assert (code, err) == (0, "")
    assert out == '{"ic":2,"ims":[1500],"histogram":{"1500":2}}\n'
    feed_stdin(star)
    code, out, err = run_cli(capsys, "enumerate", "--cap", "2000", "--input", "-")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0" + "1" * 1500, "1" + "0" * 1500]


def test_raised_cap_finishes_on_narrow_graphs(capsys):
    # C_400 is far past any search, but the frontier DP holds at most 16
    # states: the histogram is the cycle GF row, coefficient for coefficient.
    code, out, err = run_cli(capsys, "spectrum", "--family", "cycle", "--n", "400", "--cap", "400")
    assert (code, err) == (0, "")
    row = genfunc.cycle_gf_coeff(400)
    assert json.loads(out)["histogram"] == {str(k): c for k, c in enumerate(row.coeffs) if c}
    code, out, err = run_cli(capsys, "spectrum", "--family", "cycle", "--n", "400")
    assert (code, out) == (3, "") and "capped at 24" in err


@pytest.mark.parametrize("text", ["0 99999999999999999999\n", "n 99999999999999999999\n0 1\n"])
def test_vertex_count_past_maxsize_exit2(capsys, feed_stdin, text):
    # Both the inferred and the declared count are refused before the
    # neighbor list is built, which would otherwise grow until memory ran out.
    feed_stdin(text)
    code, out, err = run_cli(capsys, "spectrum", "--input", "-")
    assert (code, out) == (2, "")
    assert err.startswith("mixspec: vertex count") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags", [("--max-n", "25"), ("--max-n", "-3"), ("--random-count", "-5")]
)
def test_verify_rejects_bad_flags_before_checks(capsys, monkeypatch, flags):
    from mixspec import verify

    def no_checks(**kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run_checks", no_checks)
    code, out, err = run_cli(capsys, "verify", *flags)
    assert (code, out) == (2, "")
    assert flags[0] in err


def test_biclique_family(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "biclique", "--m", "2", "--n", "2")
    assert code == 0
    assert json.loads(out)["ic"] == 6


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--random-count", "5")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("pass", "note")) or "checks passed" in line for line in lines)
    assert any("note" in line for line in lines)


def test_output_determinism(capsys):
    code, a, _ = run_cli(capsys, "bound", "--family", "petersen")
    code, b, _ = run_cli(capsys, "bound", "--family", "petersen")
    assert a == b
    code, a, _ = run_cli(capsys, "pmf", "--family", "cycle", "--n", "12")
    code, b, _ = run_cli(capsys, "pmf", "--family", "cycle", "--n", "12")
    assert a == b


def test_closed_pipe_exits_0_without_traceback():
    # ``mixspec enumerate --family path --n 24 | head -1``: the reader takes one
    # line and closes the pipe while 57 314 colorings are still to come.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from mixspec.cli import main; sys.exit(main())",
         "enumerate", "--family", "path", "--n", "24"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.readline()) == 25
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "Exception ignored" not in err


def test_gf_row_at_8000_fits_one_gigabyte():
    # Building the whole table for one row ran out of memory under this limit.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from mixspec.cli import main; sys.exit(main())",
         "gf", "--family", "path", "--n", "8000"],
        capture_output=True, env=env, preexec_fn=limit, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["count"] == str(families.ic_path(8000))


def test_library_runs_on_the_standard_library_alone():
    # ``-S`` skips site-packages: no third-party module can be imported.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv, _, code, digest = CASES["verify-small"]
    proc = subprocess.run([sys.executable, "-S", "-m", "mixspec.cli", *argv.split()],
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    script = "import sys, mixspec.cli; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert set(proc.stdout.split()) - set(sys.stdlib_module_names) <= {"mixspec", "__main__"}


def test_out_of_memory_exit3(capsys, monkeypatch, feed_stdin):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_edge_list", exhausted)
    feed_stdin("n 300000000\n0 1\n")
    code, out, err = run_cli(capsys, "spectrum", "--input", "-")
    assert (code, out) == (3, "")
    assert err.startswith("mixspec: out of memory") and err.count("\n") == 1


_ids = st.integers(min_value=0, max_value=13).map(str)
_malformed = st.lists(
    _ids | st.sampled_from(["-1", "x", "1.5", "n", "#", "99", "0x3"]), max_size=3
).map(" ".join)


@st.composite
def _edge_lists(draw) -> str:
    """Edge-list text on at most 14 vertex ids; it may carry a header and one
    malformed line anywhere."""
    edge = st.tuples(_ids, _ids).filter(lambda e: e[0] != e[1]).map(" ".join)
    lines = draw(st.lists(edge, max_size=20))
    if draw(st.booleans()):
        lines.insert(0, "n " + draw(st.integers(min_value=0, max_value=14).map(str) | _malformed))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(_malformed))
    return "\n".join(lines) + "\n"


@given(verb=st.sampled_from(["spectrum", "pmf", "moments", "bound", "enumerate"]), text=_edge_lists())
@settings(max_examples=150, deadline=None)
def test_cli_exit_codes_on_arbitrary_edge_lists(verb, text):
    # Well-formed or not, an edge list ends in a documented code, never in a
    # traceback: 0 ok, 2 malformed input, 3 inapplicable.
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(text)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        old_stdin, sys.stdin = sys.stdin, stdin
        try:
            code = main([verb, "--input", "-"])
        finally:
            sys.stdin = old_stdin
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


_SUBPARSERS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
_FAMILY_FLAGS = (
    ("--family", st.sampled_from(_SUBPARSERS.choices["gen"]._option_string_actions["--family"].choices)),
    ("--n", st.integers(min_value=-3, max_value=40)),
    ("--m", st.integers(min_value=-3, max_value=40)),
)
_SAMPLE_FLAGS = (
    ("--seed", st.integers(min_value=-(2**70), max_value=2**70)),
    ("--count", st.integers(min_value=-2, max_value=5)),
)


@st.composite
def _family_argv(draw) -> list[str]:
    """A verb with each flag present or absent: mostly the flags the verb
    takes, sometimes one it rejects."""
    verb = draw(st.sampled_from(["gen", "pmf", "sample", "gf", "moments"]))
    argv = [verb]
    for flags, tenths in ((_FAMILY_FLAGS, 8), (_SAMPLE_FLAGS, 8 if verb == "sample" else 1)):
        for flag, values in flags:
            if draw(st.integers(min_value=0, max_value=9)) < tenths:
                argv += [flag, str(draw(values))]
    return argv


@given(argv=_family_argv())
@settings(max_examples=300, deadline=None)
def test_cli_exit_codes_on_arbitrary_family_flags(argv):
    # Any mix of family flags, in range or not, ends in a documented code and
    # never in a traceback.  MIXSPEC_CAP keeps the exhaustive verbs (pmf and
    # moments on complete graphs and bicliques) to at most 14 vertices;
    # larger orders take the cap path and exit 3.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"MIXSPEC_CAP": "14"}):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
