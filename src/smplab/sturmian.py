"""Lyapunov values of Sturmian parameters and their maximization.

For a rational slope p/q the Sturmian parameter is carried by the
Christoffel cycle, so its Lyapunov value for a pair (A, B) is simply

    f(p/q) = (1/q) log rho( christoffel(p, q)(A, B) ),

exact up to the spectral radius of one periodic product (no Birkhoff
averaging).  On a co-parallel pair, f is strictly midpoint concave on
the rationals, which makes a Stern-Brocot mediant descent sound: every
query is a genuine Christoffel word and the bracket always contains the
unique maximizer.  Any midpoint-concavity violation beyond tolerance
aborts the run, because it would falsify the co-parallel classification
of the input (or expose numerical breakdown).

Cost model.  Every descent sample is the mediant l (+) r of two evaluated
Stern-Brocot neighbours, and Christoffel words factor as
C(l (+) r) = C(l) C(r), so a sample costs one 2x2 multiply of the two
stored (renormalized) cycle products.  The audit compares all n(n-1)/2
sample pairs by exact reduced integer midpoint keys, vectorized in
blocks of rows so memory stays O(n * block).  Values can differ from the
letter-by-letter product of ``lyapunov_rational`` in the last bits
(below 1e-13 relative on the checked pairs); grids and argmax do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

import numpy as np

from .linalg import (Mat2, MatrixPair, renormalized, scaled_letter,
                     scaled_word_product, spectral_radius)
from .regions import classify
from .words import christoffel

__all__ = [
    "LyapunovSample",
    "IrrationalEstimate",
    "ConcavityReport",
    "ConcavityViolation",
    "lyapunov_rational",
    "lyapunov_irrational",
    "maximize_sturmian",
    "copar_gap",
    "midpoint_concavity_audit",
]


@dataclass(frozen=True, slots=True)
class LyapunovSample:
    """f(gamma) for one rational slope; -inf flags a nilpotent cycle."""

    gamma: Fraction
    value: float
    nilpotent: bool = False


class IrrationalEstimate(NamedTuple):
    value: float
    error: float           # last increment between convergent values
    convergent: Fraction   # the final continued-fraction convergent used


class ConcavityViolation(RuntimeError):
    """Raised when the midpoint-concavity audit fails beyond tolerance."""

    def __init__(self, violations: list[tuple[Fraction, Fraction, float]]):
        self.violations = violations
        worst = max(v for _, _, v in violations)
        super().__init__(
            f"{len(violations)} midpoint-concavity violation(s), worst {worst:.3e}; "
            "the pair is not co-parallel or the evaluation broke down")


@dataclass(frozen=True, slots=True)
class ConcavityReport:
    """Descent transcript: samples, audit outcome, and the argmax."""

    grid: list[LyapunovSample]
    midpoint_violations: list[tuple[Fraction, Fraction, float]]
    argmax_gamma: Fraction
    max_value: float

    def to_json_dict(self) -> dict:
        return {
            "grid": [{"gamma": str(s.gamma), "value": s.value,
                      "nilpotent": s.nilpotent} for s in self.grid],
            "midpoint_violations": [
                {"t1": str(t1), "t2": str(t2), "excess": e}
                for t1, t2, e in self.midpoint_violations
            ],
            "argmax_gamma": str(self.argmax_gamma),
            "max_value": self.max_value,
        }


def lyapunov_rational(p: MatrixPair, num: int, den: int) -> LyapunovSample:
    """(1/den) log rho of the Christoffel cycle of slope num/den.

    The product is accumulated with running renormalization, so large
    denominators neither overflow nor underflow.
    """
    word = christoffel(num, den)
    prod, logscale = scaled_word_product(p, word)
    rho = spectral_radius(prod)
    gamma = Fraction(num, den)
    if rho == 0.0:
        return LyapunovSample(gamma, float("-inf"), nilpotent=True)
    return LyapunovSample(gamma, (math.log(rho) + logscale) / den)


def _convergents(gamma: float, depth: int) -> list[Fraction]:
    """First continued-fraction convergents of gamma in (0, 1)."""
    out: list[Fraction] = []
    p0, q0, p1, q1 = 1, 0, 0, 1  # p1/q1 = 0/1 after the leading a0 = 0
    x = gamma
    for _ in range(depth):
        if x == 0.0:
            break
        x = 1.0 / x
        a = int(math.floor(x))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append(Fraction(p1, q1))
        frac = x - a
        if frac < 1e-15:
            break
        x = frac
    return out


def lyapunov_irrational(p: MatrixPair, gamma: float, depth: int) -> IrrationalEstimate:
    """Approximate f(gamma) through continued-fraction convergents.

    Continuity of the parameter-to-value map justifies evaluating at the
    first ``depth`` convergents; the last increment is reported as the
    error estimate (zero when the expansion terminates, i.e. for rational
    input).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    convs = _convergents(gamma, depth)
    values = [lyapunov_rational(p, c.numerator, c.denominator).value for c in convs]
    if len(values) == 1:
        return IrrationalEstimate(values[0], 0.0, convs[0])
    return IrrationalEstimate(values[-1], abs(values[-1] - values[-2]), convs[-1])


_AUDIT_ROWS = 64  # rows of the pair table held at once in _audit


def _audit(samples: dict[Fraction, float],
           tol: float) -> list[tuple[Fraction, Fraction, float]]:
    """Check f(mid) > (f(t1)+f(t2))/2 - tol over all in-grid midpoints.

    Every pair t1 < t2 of sorted slopes is keyed by its exact midpoint
    (n1*d2 + n2*d1) / (2*d1*d2), reduced with gcd and looked up among the
    sample keys.  Pairs are scanned in blocks of rows, so memory stays
    O(n * block); violations come out in (t1, t2) order.
    """
    gammas = sorted(samples)
    n = len(gammas)
    max_den = max((g.denominator for g in gammas), default=1)
    # 2*d1*d2 must fit in int64; larger denominators use exact Python ints
    dtype = np.int64 if max_den < 2**31 else object
    num = np.array([g.numerator for g in gammas], dtype=dtype)
    den = np.array([g.denominator for g in gammas], dtype=dtype)
    vals = np.array([samples[g] for g in gammas], dtype=float)
    base = max_den + 1  # key = num * base + den is unique for den <= max_den
    keys = num * base + den
    order = np.argsort(keys)
    sorted_keys = keys[order]

    violations = []
    # a midpoint lies strictly between its ends, so only j >= i + 2 can hit
    for i0 in range(0, n - 2, _AUDIT_ROWS):
        rows = np.arange(i0, min(i0 + _AUDIT_ROWS, n - 2))
        cols = np.arange(i0 + 2, n)
        n1, d1 = num[rows, None], den[rows, None]
        n2, d2 = num[cols], den[cols]
        mid_num = n1 * d2 + n2 * d1
        mid_den = 2 * d1 * d2
        g = np.gcd(mid_num, mid_den)
        mid_num //= g
        mid_den //= g
        # only a midpoint with den <= max_den can be a sample; elsewhere the
        # key product may wrap in int64 and is masked out
        key = np.where(mid_den <= max_den, mid_num * base + mid_den, -1)
        pos = np.minimum(np.searchsorted(sorted_keys, key), n - 1)
        hit = (sorted_keys[pos] == key) & (cols >= rows[:, None] + 2)
        hi, hj = np.nonzero(hit)
        i, j = rows[hi], cols[hj]
        with np.errstate(invalid="ignore"):  # -inf ends on both sides give nan
            excess = (vals[i] + vals[j]) / 2 - vals[order[pos[hi, hj]]]
        for k in np.nonzero(excess >= tol)[0]:
            violations.append((gammas[i[k]], gammas[j[k]], float(excess[k])))
    return violations


def maximize_sturmian(p: MatrixPair, resolution: Fraction = Fraction(1, 1024),
                      audit_tol: float = 1e-10) -> ConcavityReport:
    """Locate the maximizing Sturmian parameter by mediant descent.

    Maintains a bracket (l, m, r) with l, m and m, r Stern-Brocot
    neighbours and m as the incumbent.  Each step evaluates the two
    sub-mediants; strict concavity implies the maximizer lies left of m
    when f(mediant(l, m)) > f(m), right of m symmetrically, and between
    the sub-mediants otherwise.  Stops once r - l < resolution.  All
    evaluated samples feed a midpoint-concavity audit; violations beyond
    ``audit_tol`` raise ConcavityViolation.  A negative or NaN ``audit_tol``
    raises ValueError.

    Every sample is the mediant a (+) b of evaluated neighbours a < b, and
    the Christoffel factorization C(a (+) b) = C(a) C(b) makes its cycle
    product P(a) @ P(b): one 2x2 multiply, then ``renormalized``.
    """
    flags = classify(p)
    if flags.in_copar is not True:
        raise ValueError("pair is not (definitely) co-parallel; "
                         f"copar flag = {flags.in_copar!r}")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if not audit_tol >= 0.0:  # NaN would pass every audit
        raise ValueError(f"audit_tol must be >= 0, got {audit_tol!r}")
    resolution = Fraction(resolution)
    res_num, res_den = resolution.numerator, resolution.denominator

    # slope (num, den) -> cycle product as (matrix, logscale), and f there
    products: dict[tuple[int, int], tuple[Mat2, float]] = {}
    values: dict[tuple[int, int], float] = {}

    def store(g: tuple[int, int], prod: Mat2, logscale: float) -> None:
        products[g] = (prod, logscale)
        rho = spectral_radius(prod)
        values[g] = float("-inf") if rho == 0.0 else (math.log(rho) + logscale) / g[1]

    def sample(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        """Evaluate the mediant of the evaluated neighbours a < b."""
        g = (a[0] + b[0], a[1] + b[1])
        if g not in values:
            (pa, la), (pb, lb) = products[a], products[b]
            store(g, *renormalized(pa @ pb, la + lb))
        return g

    left, right = (0, 1), (1, 1)
    store(left, *scaled_letter(p.A))
    store(right, *scaled_letter(p.B))
    mid = sample(left, right)
    # right - left >= resolution, cross-multiplied
    while (right[0] * left[1] - left[0] * right[1]) * res_den >= res_num * left[1] * right[1]:
        ml = sample(left, mid)
        if values[ml] > values[mid]:
            mid, right = ml, mid
            continue
        mr = sample(mid, right)
        if values[mr] > values[mid]:
            left, mid = mid, mr
        else:
            left, right = ml, mr

    # sorted by slope through exact cross-multiplication, cheaper than Fraction
    order = sorted(values, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    samples = {Fraction(*g): values[g] for g in order}
    violations = _audit(samples, audit_tol)
    if violations:
        raise ConcavityViolation(violations)

    grid = [LyapunovSample(g, val, nilpotent=math.isinf(val))
            for g, val in samples.items()]
    return ConcavityReport(grid=grid, midpoint_violations=[],
                           argmax_gamma=Fraction(*mid), max_value=values[mid])


def copar_gap(p: MatrixPair) -> float:
    """rho(AB) - rho(A) rho(B); strictly positive on co-parallel pairs."""
    flags = classify(p)
    if flags.in_copar is not True:
        raise ValueError("pair is not (definitely) co-parallel; "
                         f"copar flag = {flags.in_copar!r}")
    return spectral_radius(p.A @ p.B) - spectral_radius(p.A) * spectral_radius(p.B)


def midpoint_concavity_audit(p: MatrixPair, max_den: int,
                             tol: float = 1e-10) -> list[tuple[Fraction, Fraction, float]]:
    """Audit strict midpoint concavity of f on the Farey grid.

    Evaluates every reduced fraction with denominator <= max_den and
    returns the violations (empty on a genuinely co-parallel pair).
    """
    samples: dict[Fraction, float] = {}
    for q in range(1, max_den + 1):
        for a in range(0, q + 1):
            g = Fraction(a, q)
            if g not in samples:
                samples[g] = lyapunov_rational(p, g.numerator, g.denominator).value
    return _audit(samples, tol)
