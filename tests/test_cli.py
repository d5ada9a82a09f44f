from __future__ import annotations

import json

import pytest

from mixspec.cli import main


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
