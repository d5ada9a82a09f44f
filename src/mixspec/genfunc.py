"""Exact coefficient extraction for the path and ring generating functions,
exact moments of the induced mixing-number laws, and numeric checks of their
Gaussian limit behavior.

The bivariate generating functions are
    paths: (2z - 2uz^3) / (1 - uz - uz^2)
    rings: (2u^2z^2 + 6u^2z^3 + 4u^2z^4) / (1 - u^2z^2 - 2u^2z^3 - u^2z^4)
where z marks the number of vertices and u the number of balanced edges.
The tables of coefficients of z^n are extracted through the linear
recurrences the denominators induce, never through series division, so every
coefficient is an exact integer.  A single row is read from the family's
count vector instead, and the tables are its oracle.  ``UPoly`` is a GF row
or a PGF; ``UPoly.of_counts`` alone densifies a ``{mix: count}`` law.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import families


class UPoly(NamedTuple):
    """Dense polynomial in the edge-marking variable u with integer coefficients."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(values: list[int]) -> "UPoly":
        trimmed = list(values)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return UPoly(tuple(trimmed))

    @staticmethod
    def of_counts(counts: dict[int, int]) -> "UPoly":
        """The row of a ``{power: coefficient}`` map, e.g. ``MixHistogram.counts``."""
        coeffs = [0] * (max(counts) + 1)
        for k, c in counts.items():
            coeffs[k] = c
        return UPoly.of(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at_one(self) -> int:
        return sum(self.coeffs)


def _shift(coeffs: list[int], by: int) -> list[int]:
    return [0] * by + coeffs


def _add(*polys: list[int]) -> list[int]:
    """Element-wise sum of coefficient lists of any lengths, as a new list.

    Each step adds the common prefix with ``map`` at C level and extends the
    sum with the longer list's tail, so no coefficient is added in a Python
    loop."""
    out: list[int] = []
    for p in polys:
        longer, shorter = (out, p) if len(out) >= len(p) else (p, out)
        out = list(map(operator.add, longer, shorter))
        out.extend(longer[len(shorter):])
    return out


def path_gf_coeffs(max_n: int) -> list[UPoly]:
    """[z^n] of the path generating function for n = 1 .. max_n.

    The denominator gives f_n = u f_{n-1} + u f_{n-2} with corrections from
    the numerator at n = 1 and n = 3, so f_1 = 2, f_2 = 2u, f_3 = 2u^2.
    """
    if max_n < 1:
        raise ValueError("need max_n >= 1")
    table = [[2], [0, 2], [0, 0, 2]]
    while len(table) < max_n:
        table.append(_shift(_add(table[-1], table[-2]), 1))
    del table[max_n:]
    for i, coeffs in enumerate(table):  # in place: no second copy of the table
        table[i] = UPoly.of(coeffs)
    return table


def path_gf_coeff(n: int) -> UPoly:
    """[z^n] of the path generating function: the counts of
    ``families.path_pmf``, read from its O(n) count vector rather than the
    table; ``path_gf_coeffs`` is the recurrence oracle it must equal."""
    return UPoly.of_counts(families.path_pmf(n).counts)


def cycle_gf_coeffs(max_n: int) -> list[UPoly]:
    """[z^n] of the ring generating function for n = 2 .. max_n.

    g_n = u^2 (g_{n-2} + 2 g_{n-3} + g_{n-4}) with numerator corrections at
    n = 2, 3, 4; only even powers of u ever appear.
    """
    if max_n < 2:
        raise ValueError("need max_n >= 2")
    table = [
        [0, 0, 2],                  # n = 2
        [0, 0, 6],                  # n = 3
        [0, 0, 4, 0, 2],            # n = 4: u^2 g_2 + 4u^2
        [0, 0, 0, 0, 10],           # n = 5: u^2 g_3 + 2u^2 g_2
    ]
    while len(table) + 1 < max_n:
        back2, back3, back4 = table[-2], table[-3], table[-4]
        table.append(_shift(_add(back2, back3, back3, back4), 2))
    del table[max_n - 1:]
    for i, coeffs in enumerate(table):
        table[i] = UPoly.of(coeffs)
    return table


def cycle_gf_coeff(n: int) -> UPoly:
    """[z^n] of the ring generating function: the counts of
    ``families.cycle_pmf``, zeros at the odd powers; ``cycle_gf_coeffs`` is
    the recurrence oracle it must equal."""
    return UPoly.of_counts(families.cycle_pmf(n).counts)


def pgf_moments(p: UPoly) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the distribution a coefficient vector encodes.

    The polynomial is normalized by its value at 1; coefficients must be
    non-negative and not all zero.
    """
    if not p.coeffs:
        raise ValueError("zero polynomial has no induced distribution")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("coefficients must be non-negative")
    total = p.at_one()
    mean = Fraction(sum(k * c for k, c in enumerate(p.coeffs)), total)
    second = Fraction(sum(k * k * c for k, c in enumerate(p.coeffs)), total)
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# Normal distribution function
# ---------------------------------------------------------------------------

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def erf_approx(x: float) -> float:
    """erf via the confluent series 2x e^{-x^2}/sqrt(pi) * sum (2x^2)^n/(2n+1)!!.

    All terms are positive, so no cancellation occurs; truncation continues
    until terms fall below 1e-18 of the running sum, giving absolute error
    well under 1e-12.  Beyond |x| = 6 the complement is below 2.2e-17.
    """
    ax = abs(x)
    if ax >= 6.0:
        return -1.0 if x < 0 else 1.0
    t = 2.0 * ax * ax
    term = 1.0
    total = 1.0
    n = 0
    while term > 1e-18 * total:
        n += 1
        term *= t / (2 * n + 1)
        total += term
    value = _TWO_OVER_SQRT_PI * ax * math.exp(-ax * ax) * total
    return -value if x < 0 else value


_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via ``erf_approx``."""
    return 0.5 * (1.0 + erf_approx(x / _SQRT2))


# ---------------------------------------------------------------------------
# Asymptotic model: golden-ratio singularity structure shared by both families
# ---------------------------------------------------------------------------

GOLDEN_RATIO = (math.sqrt(5.0) + 1.0) / 2.0

# Per-vertex growth rate of the mean mixing number: sqrt(5)/10 + 1/2.
MEAN_GROWTH_RATE = math.sqrt(5.0) / 10.0 + 0.5

# Second derivative of the growth factor at 1: sqrt(5)/25 - 1/5.
GROWTH_FACTOR_SECOND_DERIVATIVE = math.sqrt(5.0) / 25.0 - 0.2

# Per-vertex growth rate of the variance.  Algebraically this is
# B''(1) + B'(1) - B'(1)^2 evaluated at the two constants above, which
# simplifies to sqrt(5)/25.
VARIANCE_GROWTH_RATE = math.sqrt(5.0) / 25.0

# Alternative variance-rate value 39 sqrt(5)/250 + 63/250 that circulates for
# this model.  It does not satisfy B''(1) + B'(1) - B'(1)^2 for the B'(1) and
# B''(1) above and the exact increments do not converge to it; it is kept only
# so the discrepancy can be measured and reported.
VARIANCE_GROWTH_RATE_QUOTED = 39.0 * math.sqrt(5.0) / 250.0 + 63.0 / 250.0


def dominant_singularity(u: float) -> float:
    """Smallest positive root z of u z^2 + u z = 1, i.e. (sqrt(1+4/u) - 1)/2."""
    return 0.5 * (math.sqrt(1.0 + 4.0 / u) - 1.0)


def secondary_root(u: float) -> float:
    """Magnitude of the other root: (sqrt(1+4/u) + 1)/2."""
    return 0.5 * (math.sqrt(1.0 + 4.0 / u) + 1.0)


def growth_factor(u: float) -> float:
    """B(u) = 1 / (phi * z1(u)); the per-vertex factor of the path PGF."""
    return 1.0 / (GOLDEN_RATIO * dominant_singularity(u))


def amplitude(u: float) -> float:
    """A(u), the n-independent prefactor of the path PGF asymptotics."""
    z1 = dominant_singularity(u)
    z2 = secondary_root(u)
    return GOLDEN_RATIO * math.sqrt(5.0) * z1 * z2 * (1.0 - u * z1 * z1) / (z1 + z2)


class ModelCheckReport(NamedTuple):
    """Finite-difference measurements of the asymptotic model at u = 1."""

    a_at_one: float
    b_at_one: float
    b_prime: float
    b_second: float
    variability: float
    b_prime_gap: float
    b_second_gap: float
    variability_gap: float
    variability_gap_quoted: float


def asymptotic_model_check() -> ModelCheckReport:
    """Probe A and B near u = 1 with central finite differences of step 1e-5.

    Verifies A(1) = B(1) = 1 and measures B'(1), B''(1), and the variability
    B''(1) + B'(1) - B'(1)^2 against both candidate variance rates.
    """
    step = 1e-5
    b0 = growth_factor(1.0)
    bp = growth_factor(1.0 + step)
    bm = growth_factor(1.0 - step)
    b_prime = (bp - bm) / (2.0 * step)
    b_second = (bp - 2.0 * b0 + bm) / (step * step)
    variability = b_second + b_prime - b_prime * b_prime
    return ModelCheckReport(
        a_at_one=amplitude(1.0),
        b_at_one=b0,
        b_prime=b_prime,
        b_second=b_second,
        variability=variability,
        b_prime_gap=abs(b_prime - MEAN_GROWTH_RATE),
        b_second_gap=abs(b_second - GROWTH_FACTOR_SECOND_DERIVATIVE),
        variability_gap=abs(variability - VARIANCE_GROWTH_RATE),
        variability_gap_quoted=abs(variability - VARIANCE_GROWTH_RATE_QUOTED),
    )


# ---------------------------------------------------------------------------
# Central-limit diagnostics from the exact distributions
# ---------------------------------------------------------------------------


class CltReport(NamedTuple):
    """Exact moments of one family instance and their Gaussian diagnostics."""

    family: str
    n: int
    mean: Fraction
    variance: Fraction
    delta_mean: float
    delta_variance: float
    mean_rate_gap: float
    variance_rate_gap: float
    variance_rate_gap_quoted: float
    mean_offset: float
    cdf_sup_distance: float


def standardized_cdf_distance(p: UPoly) -> float:
    """Kolmogorov distance between the standardized exact law and the normal.

    The supremum of |F - Phi| over the whole line is attained at the jump
    points of the discrete distribution function, so both one-sided limits
    are compared at every support point.
    """
    mean, variance = pgf_moments(p)
    mu = float(mean)
    sigma = math.sqrt(float(variance))
    total = p.at_one()
    cumulative = 0
    worst = 0.0
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        phi = normal_cdf((k - mu) / sigma)
        worst = max(worst, abs(cumulative / total - phi))
        cumulative += c
        worst = max(worst, abs(cumulative / total - phi))
    return worst


def clt_diagnostics(family: str, n: int) -> CltReport:
    """Exact moment increments and normal-law distance for one instance.

    Needs n >= 8 so that both n and n - 1 lie well inside the family ranges;
    both tables end in the rows for n - 1 and n.
    """
    if n < 8:
        raise ValueError("diagnostics need n >= 8")
    if family not in ("path", "cycle"):
        raise ValueError(f"unknown family {family!r}")
    rows = path_gf_coeffs(n) if family == "path" else cycle_gf_coeffs(n)
    poly, prev = rows[-1], rows[-2]
    mean, variance = pgf_moments(poly)
    mean_prev, variance_prev = pgf_moments(prev)
    delta_mean = float(mean - mean_prev)
    delta_variance = float(variance - variance_prev)
    return CltReport(
        family=family,
        n=n,
        mean=mean,
        variance=variance,
        delta_mean=delta_mean,
        delta_variance=delta_variance,
        mean_rate_gap=abs(delta_mean - MEAN_GROWTH_RATE),
        variance_rate_gap=abs(delta_variance - VARIANCE_GROWTH_RATE),
        variance_rate_gap_quoted=abs(delta_variance - VARIANCE_GROWTH_RATE_QUOTED),
        mean_offset=float(mean) - MEAN_GROWTH_RATE * n,
        cdf_sup_distance=standardized_cdf_distance(poly),
    )
