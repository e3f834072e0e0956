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
stored (renormalized) cycle products.  The audit is O(n): it takes the
upper concave hull H of the samples sorted by slope (Andrew's monotone
chain) and the largest distance delta of a sample below it.  Whenever
t1 < t2 have a sample midpoint m,

    f(m) >= H(m) - delta >= (H(t1) + H(t2))/2 - delta >= (f(t1) + f(t2))/2 - delta,

so delta plus a rounding allowance below tol/2 proves that no pair
violates concavity by tol (``_sorted_audit``).  Only otherwise (a -inf
sample, a real violation, a tol too small for the allowance, or slopes
with 17-bit numerators or denominators) does the exact pass run: it
compares all n(n-1)/2 sample pairs by exact reduced integer midpoint
keys, vectorized in blocks of rows so memory stays O(n * block), and it
gives the violation list either way.

Stopping on a concave bracket.  Concavity also bounds f between the
samples: once a descent has sampled both sides of its best sample x0,
f can exceed f(x0) only in the two gaps next to x0, and there only up to
the lower of the two outer secants of each gap.  ``jsr.certify`` stops
its descent once that bound U is within a relative 1e-12 of f(x0)
(``maximize_sturmian(..., bracket_stop=True)``): a few dozen samples
where the full descent takes 1027 or more at 1/1024, with the same
argmax and value on every checked pair.  U only decides when to stop;
it is not printed, so ``upper`` stays the brute-force bound.

Values can differ from the letter-by-letter product of
``lyapunov_rational`` in the last bits (below 1e-13 relative on the
checked pairs); grids and argmax do not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .linalg import (Mat2, MatrixPair, _check_tol, renormalized, scaled_letter,
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


_AUDIT_ROWS = 64  # rows of the pair table held at once in _pairwise_audit
_HULL_MAX_INT = 2**17  # |num|, den below this keep the hull's integers exact
_U = 2.0 ** -53  # unit roundoff of a double


def _hull_spread(num: list[int], den: list[int], vals: list[float]) -> float:
    """Spread max D - min D of the samples below a concave polyline H.

    ``num/den`` are the slopes in increasing order and D_i = H(t_i) - f_i.
    H is Andrew's monotone chain over the samples (a stack, O(n) on sorted
    input), except that a vertex b stays only when the turn a, b, c is
    certainly concave: slope(a, b) > slope(b, c), cross-multiplied by
    den_a den_b den_c > 0, is

        L = (f_b - f_a) * (d_a (n_c d_b - n_b d_c))
          > R = (f_c - f_b) * (d_c (n_b d_a - n_a d_b)),

    whose integer factors are exact doubles below 2^52.  Each side is two
    roundings from its exact value, so ``L - R > 4u (|L| + |R|)`` (u the
    unit roundoff) implies the exact inequality, and H is concave exactly.
    A vertex dropped without certainty may end a little above H, which
    min D pays for.  Between vertices a <= i <= b,

        D_i = (f_a - f_i) + (f_b - f_a) * lam,
        lam = (t_i - t_a) / (t_b - t_a) = (n_i d_a - n_a d_i) d_b / ((n_b d_a - n_a d_b) d_i)

    with lam in [0, 1] from one division of exact integers.  With
    F = max |f_i|, the five roundings in D_i leave it within 12.001 u F of
    its exact value (2uF from f_a - f_i, 6uF from the product, 4uF from the
    sum), so the exact spread is at most (1 + u) times the returned one
    plus 24.01 u F.
    The result is inf or nan when some step overflowed.
    """
    hull: list[int] = []
    for k in range(len(vals)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            lhs = (vals[b] - vals[a]) * (den[a] * (num[k] * den[b] - num[b] * den[k]))
            rhs = (vals[k] - vals[b]) * (den[k] * (num[b] * den[a] - num[a] * den[b]))
            if lhs - rhs > 4 * _U * (abs(lhs) + abs(rhs)):
                break
            hull.pop()
        hull.append(k)
    p, q, f = np.array(num), np.array(den), np.array(vals)
    v = np.array(hull)
    # the hull edge (a, b) over each sample; a vertex gets lam = 0 or 1
    seg = np.minimum(np.searchsorted(v, np.arange(len(f)), side="right"), len(v) - 1)
    a, b = v[seg - 1], v[seg]
    lam = ((p * q[a] - p[a] * q) * q[b]) / ((p[b] * q[a] - p[a] * q[b]) * q)
    with np.errstate(over="ignore", invalid="ignore"):
        below = (f[a] - f) + (f[b] - f[a]) * lam
        return float(below.max() - below.min())


def _pairwise_audit(num: list[int], den: list[int], vals: list[float],
                    tol: float) -> list[tuple[Fraction, Fraction, float]]:
    """The exact audit: every pair t1 < t2 of the sorted slopes is keyed
    by its exact midpoint (n1*d2 + n2*d1) / (2*d1*d2), reduced with gcd and
    looked up among the sample keys.  Pairs are scanned in blocks of rows,
    so memory stays O(n * block); violations come out in (t1, t2) order.
    """
    n = len(vals)
    max_den = max(den, default=1)
    # 2*d1*d2 must fit in int64; larger denominators use exact Python ints
    dtype = np.int64 if max_den < 2**31 else object
    num = np.array(num, dtype=dtype)
    den = np.array(den, dtype=dtype)
    vals = np.array(vals, dtype=float)
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
            t1, t2 = (Fraction(int(num[m]), int(den[m])) for m in (i[k], j[k]))
            violations.append((t1, t2, float(excess[k])))
    return violations


def _sorted_audit(num: list[int], den: list[int], vals: list[float],
                  tol: float) -> list[tuple[Fraction, Fraction, float]]:
    """Check f(mid) > (f(t1)+f(t2))/2 - tol over all in-grid midpoints of
    the slopes num/den, given in increasing order and in lowest terms, with
    their values.  Returns the violations (t1, t2, excess) with
    excess >= tol, in (t1, t2) order.

    Hull certificate first.  Let H be any concave function and
    D_i = H(t_i) - f_i.  For t1 < t2 whose midpoint m is a sample,

        (f1 + f2)/2 - f(m) = (H1 + H2)/2 - H(m) + D(m) - (D1 + D2)/2
                           <= max D - min D,

    as H(m) >= (H1 + H2)/2.  For the upper concave hull min D = 0 and
    max D = delta, the largest distance of a sample below it.
    ``_hull_spread`` bounds max D - min D to within about 24.01 u F (F = max |f|,
    u the unit roundoff).  The exact pass below rounds the excess
    (f1 + f2)/2 - f(m) to within about u F + u |excess|.  So when every
    value is finite, every slope has |num|, den < 2^17, and

        spread + 32 u F + (smallest normal double) < tol / 2

    holds in doubles, the exact pass would find no excess >= tol, and the
    list is empty.  The factor 2 in tol / 2, and 32 against 25.01, leave
    room for the roundings of this test itself; the last term covers the
    absolute error of underflow.  So a negative tol, or one below about
    64 u F, always takes the exact pass; so does a grid with a -inf value.
    """
    if (len(vals) >= 3 and max(den) < _HULL_MAX_INT
            and max(map(abs, num)) < _HULL_MAX_INT and all(map(math.isfinite, vals))):
        scale = 32 * _U * max(map(abs, vals))
        if _hull_spread(num, den, vals) + scale + sys.float_info.min < tol / 2:
            return []
    return _pairwise_audit(num, den, vals, tol)


_BRACKET_EPS = 1e-12  # relative slack of the bracket stop; samples agree to 5.5e-14


def _gap_bound(a, u, v, b, values: dict) -> float:
    """Largest value on [u, v] of the lower of the secants through (a, u)
    and through (v, b), for adjacent samples a < u < v < b given as
    (num, den) with finite values; a or b is None where there is no
    sample, and then its secant bounds nothing.
    """
    fu, fv = values[u], values[v]
    tu, tv = u[0] / u[1], v[0] / v[1]
    if b is None:
        return max(fu, fu + (fu - values[a]) / (tu - a[0] / a[1]) * (tv - tu))
    sb = (values[b] - fv) / (b[0] / b[1] - tv)
    if a is None:
        return max(fv + sb * (tu - tv), fv)
    sa = (fu - values[a]) / (tu - a[0] / a[1])
    if sa > sb:  # as concavity has it: the lower secant peaks where they cross
        t = min(max((fv - fu + sa * tu - sb * tv) / (sa - sb), tu), tv)
        return min(fu + sa * (t - tu), fv + sb * (t - tv))
    return max(min(fu, fv + sb * (tu - tv)), min(fu + sa * (tv - tu), fv))


def maximize_sturmian(p: MatrixPair, resolution: Fraction = Fraction(1, 1024),
                      audit_tol: float = 1e-10, *,
                      bracket_stop: bool = False) -> ConcavityReport:
    """Locate the maximizing Sturmian parameter by mediant descent.

    Maintains a bracket (l, m, r) with l, m and m, r Stern-Brocot
    neighbours and m as the incumbent.  Each step evaluates the two
    sub-mediants; strict concavity implies the maximizer lies left of m
    when f(mediant(l, m)) > f(m), right of m symmetrically, and between
    the sub-mediants otherwise.  Stops once r - l < resolution.  The
    incumbent only ever moves to a mediant, so the endpoints 0/1 and 1/1,
    whose values are log rho(A) and log rho(B), are compared with it last:
    the reported argmax is the incumbent unless an endpoint is strictly
    larger, and then the larger endpoint (0/1 on a tie).  All
    evaluated samples feed a midpoint-concavity audit; violations beyond
    ``audit_tol`` raise ConcavityViolation.  A negative or NaN ``audit_tol``
    raises ValueError.

    Every sample is the mediant a (+) b of evaluated neighbours a < b, and
    the Christoffel factorization C(a (+) b) = C(a) C(b) makes its cycle
    product P(a) @ P(b): one 2x2 multiply, then ``renormalized``.  No
    sample lies between a and b before their mediant (any fraction between
    Stern-Brocot neighbours descends from it), so linking each new sample
    between a and b keeps the samples in slope order without a sort.  The
    audit gets them in that order and decides in O(n) by the hull
    certificate of ``_sorted_audit``, with the exact pairwise pass only when
    the certificate fails: the violations, and so the report, are the same
    as the exact pass alone gives.  Each grid Fraction is built once.

    With ``bracket_stop`` the descent also stops, at the head of a step,
    once concavity leaves no slope whose value exceeds that of the best
    sample x0 (the best of the incumbent, 0/1 and 1/1; every other sample
    lies at or below the incumbent) by more than a relative _BRACKET_EPS.
    Let s1 < s2 be the next samples right of x0, and s-1 > s-2 the next
    ones left of it.  Concavity gives, for any r < m < t,

        f(m) >= ((t - m) f(r) + (m - r) f(t)) / (t - r),

    that is, f(t) lies below the secant through r and m beyond m, and
    f(r) below it before r.  So:

    - outside [s-1, s1] nothing exceeds f(x0): for t > s1, taking
      (r, m) = (x0, s1) makes f(t) > f(x0) force f(s1) > f(x0), and the
      left side mirrors it;
    - on a gap (u, v) next to x0, f lies below the secant through the
      sample before u and u, and below the one through v and the sample
      after v (where those samples exist), so below the lower of the
      two.  That is largest where the two cross, clipped to the gap
      (``_gap_bound`` also takes the gap's ends, which decide when the
      secants' slopes do not have the signs concavity gives them).

    With U the larger of the two gaps' bounds, the descent stops when
    U - f(x0) <= _BRACKET_EPS max(1, |f(x0)|) and every value involved is
    finite.  Near a maximizer p/q the Christoffel words are W^n V, so f
    is linear in the slope up to terms geometric in n, the secants meet
    f, and the stop comes after a few dozen samples where the full
    descent takes 1027 or more at 1/1024.  U only decides when to stop.
    It is never reported: printing it as a bound would need (i) the
    result that a Sturmian measure is maximizing on this region, (ii)
    concavity at irrational slopes too, and (iii) outward rounding of
    the samples that define it.  So ``jsr.certify`` keeps brute force's
    ``upper`` and ``certified`` false.  ``resolution`` still caps the
    descent, and the audit still runs on every evaluated sample.
    ``jsr.certify`` sets the flag; ``smplab sturmian`` keeps the full
    resolution grid.
    """
    flags = classify(p)
    if flags.in_copar is not True:
        raise ValueError("pair is not (definitely) co-parallel; "
                         f"copar flag = {flags.in_copar!r}")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    _check_tol("audit_tol", audit_tol)  # NaN would pass every audit
    resolution = Fraction(resolution)
    res_num, res_den = resolution.numerator, resolution.denominator

    # slope (num, den) -> cycle product as (matrix, logscale), f there, and
    # the next larger and the next smaller sample
    products: dict[tuple[int, int], tuple[Mat2, float]] = {}
    values: dict[tuple[int, int], float] = {}
    after: dict[tuple[int, int], tuple[int, int]] = {}
    before: dict[tuple[int, int], tuple[int, int]] = {}

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
            # no sample lies between the neighbours a < b before their mediant
            after[a], after[g] = g, b
            before[b], before[g] = g, a
        return g

    def settled() -> bool:
        """The bracket stop: concavity leaves nothing above f(x0) beyond slack."""
        x0 = max(mid, (0, 1), (1, 1), key=values.__getitem__)
        lo, hi = before.get(x0), after.get(x0)
        lo2, hi2 = before.get(lo), after.get(hi)
        if not all(math.isfinite(values[g]) for g in (lo2, lo, x0, hi, hi2) if g):
            return False
        f0 = values[x0]
        bound = max(_gap_bound(lo2, lo, x0, hi, values) if lo else f0,
                    _gap_bound(lo, x0, hi, hi2, values) if hi else f0)
        return bound - f0 <= _BRACKET_EPS * max(1.0, abs(f0))

    left, right = (0, 1), (1, 1)
    store(left, *scaled_letter(p.A))
    store(right, *scaled_letter(p.B))
    after[left], before[right] = right, left
    mid = sample(left, right)
    # right - left >= resolution, cross-multiplied
    while (right[0] * left[1] - left[0] * right[1]) * res_den >= res_num * left[1] * right[1]:
        if bracket_stop and settled():
            break
        ml = sample(left, mid)
        if values[ml] > values[mid]:
            mid, right = ml, mid
            continue
        mr = sample(mid, right)
        if values[mr] > values[mid]:
            left, mid = mid, mr
        else:
            left, right = ml, mr

    order = [(0, 1)]
    while order[-1] != (1, 1):
        order.append(after[order[-1]])
    vals = [values[g] for g in order]
    violations = _sorted_audit([g[0] for g in order], [g[1] for g in order],
                               vals, audit_tol)
    if violations:
        raise ConcavityViolation(violations)

    grid = [LyapunovSample(Fraction(*g), val, nilpotent=math.isinf(val))
            for g, val in zip(order, vals)]
    # max keeps the first of equal values: mid, then 0/1, then 1/1
    best = max(mid, (0, 1), (1, 1), key=values.__getitem__)
    return ConcavityReport(grid=grid, midpoint_violations=[],
                           argmax_gamma=Fraction(*best), max_value=values[best])


def copar_gap(p: MatrixPair) -> float:
    """rho(AB) - rho(A) rho(B); strictly positive on co-parallel pairs."""
    flags = classify(p)
    if flags.in_copar is not True:
        raise ValueError("pair is not (definitely) co-parallel; "
                         f"copar flag = {flags.in_copar!r}")
    rho_ab = spectral_radius((p.A @ p.B).checked())  # unscaled: may overflow
    return rho_ab - spectral_radius(p.A) * spectral_radius(p.B)

