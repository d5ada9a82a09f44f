"""Output checks for every benchmark request.

Each request's output is checked twice:

* against invariants that hold for every seed, computed by the few-line
  checkers below rather than by mixspec itself: sample and enumerate lines are
  integrated colorings, ``ic`` equals the sum of the histogram, path and cycle
  counts equal 2 F_{n-1} and the Lucas form, pmfs sum to one, ``verify`` ends
  in ``k/k checks passed``, the caterpillar bound is exactly 2^spine;
* against the reference digest in ``reference.json`` whenever the request's
  argv and stdin are the ones recorded.  Requests that do not depend on the
  seed therefore get the exact comparison on every seed; seeded ones get it
  on the recording seed.  The digest covers every exact field (integers,
  each Fraction's num/den, coloring lines, the full sample stream) and leaves
  out floats, which may be reformatted without changing any exact answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from workloads import Request

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TRACEBACK = b"Traceback (most recent call last)"

OK, KNOWN, FAIL = "ok", "known-failure", "FAIL"


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: bytes
    stderr: bytes


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Independent closed forms
# ---------------------------------------------------------------------------


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def ic_family(family: str, n: int) -> int:
    if family == "path":
        return 2 if n == 1 else 2 * _fib(n - 1)
    if family == "cycle":
        return _lucas(n) + (2 if n % 3 == 0 else -1)
    raise CheckError(f"no closed form for {family}")


def integrated_line(line: str, n: int, cyclic: bool) -> bool:
    """Whether a 0/1 line is an integrated coloring of P_n or C_n.

    On a path or cycle a vertex is integrated unless it matches all its
    neighbors, i.e. unless three consecutive colors agree or a path end
    matches its only neighbor.
    """
    if len(line) != n or line.strip("01"):
        return False
    window = line + line[:2] if cyclic else line
    if "000" in window or "111" in window:
        return False
    return cyclic or (line[0] != line[1] and line[-1] != line[-2])


# ---------------------------------------------------------------------------
# Exact views
# ---------------------------------------------------------------------------


def _drop_floats(value):
    if isinstance(value, dict):
        return {k: _drop_floats(v) for k, v in value.items() if not isinstance(v, float)}
    if isinstance(value, list):
        return [_drop_floats(v) for v in value if not isinstance(v, float)]
    return value


def _exact_json(doc) -> str:
    return json.dumps(_drop_floats(doc), sort_keys=True, separators=(",", ":"))


def _frac(d: dict) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


# ---------------------------------------------------------------------------
# Per-verb checkers: each validates invariants and returns the exact view
# ---------------------------------------------------------------------------


def _check_mix_range(req: Request, mixes) -> None:
    m = req.param("m")
    if m is not None:
        expect(all(m <= 2 * k <= 2 * m for k in mixes), "mixing number outside [m/2, m]")


def check_spectrum(req: Request, text: str) -> str:
    doc = json.loads(text)
    hist = {int(k): c for k, c in doc["histogram"].items()}
    expect(doc["ic"] == sum(hist.values()), "ic differs from the histogram sum")
    expect(doc["ims"] == sorted(k for k, c in hist.items() if c > 0), "ims differs from histogram")
    family, n = req.param("family"), req.param("n")
    if family in ("path", "cycle"):
        expect(doc["ic"] == ic_family(family, n), f"ic differs from the {family} closed form")
    if family == "complete":
        half = n // 2
        expected = {half * half: comb(n, half)} if n % 2 == 0 else {half * (half + 1): 2 * comb(n, half + 1)}
        expect(hist == expected, "complete-graph spectrum differs from C(n, n/2)")
    _check_mix_range(req, hist)
    return _exact_json(doc)


def check_enumerate(req: Request, text: str) -> str:
    family, n = req.param("family"), req.param("n")
    lines = text.splitlines()
    expect(all(integrated_line(s, n, family == "cycle") for s in lines), "non-integrated coloring")
    expect(all(a < b for a, b in zip(lines, lines[1:])), "colorings not in strict lexicographic order")
    expect(len(lines) == ic_family(family, n), "coloring count differs from the closed form")
    return text


def check_sample(req: Request, text: str) -> str:
    family, n = req.param("family"), req.param("n")
    lines = text.splitlines()
    expect(len(lines) == req.param("count"), "wrong number of samples")
    expect(all(integrated_line(s, n, family == "cycle") for s in lines), "non-integrated sample")
    return text


def check_pmf(req: Request, text: str) -> str:
    doc = json.loads(text)
    ic = int(doc["ic"])
    masses = {row["mix"]: _frac(row) for row in doc["pmf"]}
    expect(sum(masses.values()) == 1, "pmf does not sum to 1")
    expect(all(ic % p.denominator == 0 for p in masses.values()), "a mass is not a multiple of 1/ic")
    if req.param("family") == "path":
        n = req.param("n")
        expect(ic == ic_family("path", n), "ic differs from 2 F_{n-1}")
        expect(all(p == Fraction(2 * comb(k - 1, n - k - 1), ic) for k, p in masses.items()),
               "a mass differs from 2 C(k-1, n-k-1) / ic")
    _check_mix_range(req, masses)
    return _exact_json(doc)


def check_moments(req: Request, text: str) -> str:
    doc = json.loads(text)
    mean, variance = _frac(doc["mean"]), _frac(doc["variance"])
    expect(0 <= mean <= req.param("m") and variance >= 0, "moments out of range")
    return _exact_json(doc)


def check_gf(req: Request, text: str) -> str:
    doc = json.loads(text)
    coeffs = [int(c) for c in doc["coeffs"]]
    expect(all(c >= 0 for c in coeffs), "negative coefficient")
    expect(int(doc["count"]) == sum(coeffs) == ic_family(req.param("family"), req.param("n")),
           "coefficients do not sum to the closed-form count")
    return _exact_json(doc)


def _check_report(req: Request, report: dict) -> None:
    if not report["applicable"]:
        return
    upper = _frac(report["upper_bound"])
    if req.param("exact"):
        expect(0 < int(report["exact_ic"]) <= upper, "exact count exceeds the bound")
    if report["exact"]:
        expect(report["v_double_prime_size"] == 0, "exact flag with non-empty V''")
    else:
        mu, sigma_sq = _frac(report["mu"]), _frac(report["sigma_sq"])
        expect(0 <= mu < report["v_double_prime_size"] and sigma_sq >= 0, "moments out of range")
    power = req.param("power_of_two")
    if power is not None:
        expect(report["exact"] and upper == 2 ** power, f"bound differs from 2^{power}")


def check_bound(req: Request, text: str) -> str:
    doc = json.loads(text)
    reports = [doc["general"], doc["specialized"]] if "general" in doc else [doc]
    expect(reports[0]["applicable"], "general bound reported inapplicable")
    for report in reports:
        if report is not None:
            _check_report(req, report)
    return _exact_json(doc)


_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")
_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")


def check_verify(req: Request, text: str) -> str:
    lines = text.splitlines()
    summary = _SUMMARY.fullmatch(lines[-1]) if lines else None
    expect(summary is not None, "missing 'k/k checks passed' line")
    expect(summary[1] == summary[2] and int(summary[2]) > 0, f"verify reported {lines[-1]!r}")
    expect(all(s.startswith(("pass ", "note ")) for s in lines[:-1]), "a check failed")
    return "\n".join(_FLOAT.sub("<float>", s) for s in lines)


CHECKERS = {
    "spectrum": check_spectrum,
    "enumerate": check_enumerate,
    "sample": check_sample,
    "pmf": check_pmf,
    "moments": check_moments,
    "gf": check_gf,
    "bound": check_bound,
    "verify": check_verify,
}


# ---------------------------------------------------------------------------
# Judging one outcome
# ---------------------------------------------------------------------------


def input_digest(req: Request) -> str:
    return hashlib.sha256(json.dumps([req.argv, req.stdin]).encode()).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def _last_error(stderr: bytes) -> str:
    lines = stderr.decode(errors="replace").strip().splitlines()
    return lines[-1].split(":", 1)[0] if lines else ""


def exact_view(req: Request, out: Outcome) -> str:
    """Validate the invariants and return the exact view; raises CheckError."""
    expect(TRACEBACK not in out.stderr, "traceback on stderr")
    expect(out.exit_code == 0, f"exit code {out.exit_code}")
    try:
        return CHECKERS[req.check](req, out.stdout.decode())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None


def judge(req: Request, out: Outcome, references: dict) -> tuple[str, str]:
    """Return (status, detail); status is OK, KNOWN or FAIL."""
    if req.known_failure and out.exit_code == 1 and _last_error(out.stderr) == req.known_failure:
        return KNOWN, f"{req.known_failure}, the documented defect"
    try:
        view = exact_view(req, out)
    except CheckError as exc:
        return FAIL, str(exc)
    ref = references.get(req.rid)
    if ref is None or ref["input"] != input_digest(req):
        return OK, "invariants hold (no reference for this input)"
    if ref["output"] != hashlib.sha256(view.encode()).hexdigest():
        return FAIL, "exact fields differ from the reference"
    return OK, "invariants hold, exact fields match the reference"


def reference_entry(req: Request, out: Outcome) -> dict:
    view = exact_view(req, out)
    return {"input": input_digest(req), "output": hashlib.sha256(view.encode()).hexdigest()}


def fail_ratio(runs: list[list[str]]) -> float:
    """Share of requests with a failed run, given each request's run statuses.

    The documented known failure counts as failed here.
    """
    return sum(any(s != OK for s in statuses) for statuses in runs) / len(runs)


# ---------------------------------------------------------------------------
# Self-test: corrupted outputs must be flagged
# ---------------------------------------------------------------------------

_PATH4 = (("family", "path"), ("n", 4))
_SAMPLE = Request("self-sample", ("sample",), "sample", _PATH4 + (("count", 2),))
_PMF = Request("self-pmf", ("pmf",), "pmf", _PATH4)
_GOOD_SAMPLE = b"0101\n0110\n"
_GOOD_PMF = (b'{"family":"path","n":4,"ic":"4","pmf":[{"mix":2,"num":"1","den":"2"},'
             b'{"mix":3,"num":"1","den":"2"}]}\n')
_TRACE = b"Traceback (most recent call last):\n  File \"x\", line 1\nRuntimeError: boom\n"


def self_test() -> list[str]:
    """Problems found, empty when every checker behaves."""
    clean = [(_SAMPLE, Outcome(0, _GOOD_SAMPLE, b"")), (_PMF, Outcome(0, _GOOD_PMF, b""))]
    corrupted = [
        (_SAMPLE, Outcome(0, _GOOD_SAMPLE.replace(b"0110", b"0011"), b"")),
        (_PMF, Outcome(0, _GOOD_PMF.replace(b'"mix":3,"num":"1","den":"2"', b'"mix":3,"num":"1","den":"3"'), b"")),
        (_SAMPLE, Outcome(0, _GOOD_SAMPLE, _TRACE)),
    ]
    problems = [f"clean {r.rid} output flagged: {d}" for r, o in clean
                for s, d in [judge(r, o, {})] if s != OK]
    statuses = [judge(r, o, {})[0] for r, o in corrupted]
    problems += [f"corrupted case {i} not flagged" for i, s in enumerate(statuses) if s != FAIL]
    ratio = fail_ratio([[s] for s in statuses])
    if ratio != 1:
        problems.append(f"fail_ratio over corrupted cases is {ratio}, not 1")
    return problems
