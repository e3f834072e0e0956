"""Joint-spectral-radius bounds and certificates for 2x2 matrix pairs.

For any word length k the three-member sandwich holds:

    max over primitive classes of rho(P)^(1/k)
        <= JSR(A, B) <=
    max over all length-k products of |P|^(1/k),

so a brute-force scan produces a rigorous [lower, upper] interval.  On
top of that, the region classification gives exact values:

    crossing      JSR = max(rho(A), rho(B)), maximizers are single letters
    negative      JSR = max(rho(A), rho(B), rho(AB)^(1/2))
    mixed         JSR = sup_n { rho(A^n B)^(1/(n+1)), rho(A) }  (or the
                  swapped direction, by the determinant signs); the scan
                  is terminated when the supremum is proved: by a
                  rigorous submultiplicative tail bound, by a nilpotent
                  power, or, with nothing scanned, by a closed form in the
                  five invariants when the powered matrix has complex
                  eigenvalues and its own rho is the supremum
    co-parallel   not certified; the Sturmian optimizer proposes the
                  candidate and brute force brackets it

Known degenerate escapes (a matrix behaving like a scaled reflection or
rational rotation with modulus at the candidate value) withdraw the
certificate instead of risking a wrong claim: the negative route falls
back to a brute-force interval, and the mixed route reports its value
uncertified, with no ``lower`` or ``upper``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import kernels
from .linalg import (
    Mat2,
    MatrixPair,
    RENORM_RANGE,
    operator_norm_2,
    renormalized,
    spectral_radius,
    spectral_radius_entries,
    spectrum,
    SpectrumKind,
    _check_count,
    _check_tol,
    unit_scaled,
)
from .regions import classify
from .sturmian import maximize_sturmian
from .words import christoffel

__all__ = [
    "LengthStats",
    "BoundsReport",
    "GelfandScan",
    "SmpCandidate",
    "brute_force",
    "gelfand_scan",
    "certify",
    "MAX_BRUTE_LEN",
]

MAX_BRUTE_LEN = 24  # cost guard: 2^25 products beyond this


def _check_max_len(name: str, value) -> None:
    _check_count(name, value)
    if not 1 <= value <= MAX_BRUTE_LEN:
        raise ValueError(f"{name} must be in 1..{MAX_BRUTE_LEN}, got {value}")


@dataclass(frozen=True, slots=True)
class LengthStats:
    """Per-length scan data: best primitive class and the norm ceiling."""

    rho_root: float   # max rho(P)^(1/k) over primitive classes of length k
    rho_word: str     # Lyndon representative attaining it
    norm_root: float  # max |P|^(1/k) over ALL length-k products


@dataclass(frozen=True, slots=True)
class BoundsReport:
    """Brute-force sandwich for the JSR.

    ``lower`` is the best spectral-radius root over one representative
    per primitive cyclic class (powers of shorter classes add nothing);
    ``upper`` is the smallest per-length norm ceiling.  ``second_value``
    is the best value over classes other than the winner (with its word
    when it is some length's champion), and ``ties`` lists every class
    within ``tie_tol`` times max(|A|_2, |B|_2) of the winner.
    """

    lower: float
    upper: float
    best_word: str
    second_value: float
    second_word: str | None
    ties: list[str]
    per_length: dict[int, LengthStats]
    norm: str
    max_len: int

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "best_word": self.best_word,
            "second_value": None if math.isinf(self.second_value) else self.second_value,
            "second_word": self.second_word,
            "ties": list(self.ties),
            "per_length": {
                str(k): {"rho_root": s.rho_root, "rho_word": s.rho_word,
                         "norm_root": s.norm_root}
                for k, s in sorted(self.per_length.items())
            },
            "norm": self.norm,
            "max_len": self.max_len,
        }


def brute_force(p: MatrixPair, max_len: int = 12,
                tie_tol: float = 1e-9) -> BoundsReport:
    """Scan all cyclic classes (lower) and all products (upper) up to max_len.

    Matrices are pre-scaled by 1/max(|A|_2, |B|_2) (by 1 for an all-zero
    pair), so products keep the same range whatever the pair's scale; the
    reported roots are scale-corrected, and ``tie_tol`` is relative to
    that max norm.  ``upper`` uses the Euclidean operator norm, so
    ``norm`` in the report is always "euclid".  Best-word ties break to
    the shorter length, then lexicographically.  A ``max_len`` that is not
    an int raises TypeError; one outside 1..MAX_BRUTE_LEN, or a negative
    or NaN ``tie_tol``, raises ValueError.
    """
    _check_max_len("max_len", max_len)
    _check_tol("tie_tol", tie_tol)
    s = max(operator_norm_2(p.A), operator_norm_2(p.B)) or 1.0
    a_s = p.A.divided_by(s)
    b_s = p.B.divided_by(s)

    best_root, best_word, second_root, ties_raw = kernels.scan_classes(
        a_s.entries(), b_s.entries(), max_len, tie_tol)

    norm_roots = kernels.norm_profile(a_s.entries(), b_s.entries(), max_len)

    per_length = {
        k: LengthStats(rho_root=best_root[k] * s, rho_word=best_word[k],
                       norm_root=norm_roots[k] * s)
        for k in range(1, max_len + 1)
    }
    lower = max(st.rho_root for st in per_length.values())
    upper = min(st.norm_root for st in per_length.values())
    best_k, best_w = min(
        (k, st.rho_word) for k, st in per_length.items() if st.rho_root == lower)

    # runner-up class: same-length second or another length's champion
    second_value = second_root[best_k] * s if math.isfinite(second_root[best_k]) \
        else float("-inf")
    second_word = None
    for k, st in per_length.items():
        if k != best_k and st.rho_root > second_value:
            second_value = st.rho_root
            second_word = st.rho_word

    ties = [w for w, _ in ties_raw]  # by length, then lexicographically
    return BoundsReport(lower=lower, upper=upper, best_word=best_w,
                        second_value=second_value, second_word=second_word,
                        ties=ties, per_length=per_length, norm="euclid",
                        max_len=max_len)


@dataclass(frozen=True, slots=True)
class GelfandScan:
    """Result of maximizing rho(P^n Q)^(1/(n+1)) together with rho(P).

    ``n_star`` is None when the pure-power member rho(P) is the maximum.
    ``terminated`` means the value is proved the supremum: by the tail
    bound beyond the scanned range, by a nilpotent power, or by the
    closed form of ``_power_is_supremum``, where ``scanned`` is 0.  When
    False, the value is still a valid lower bound for the supremum.
    """

    direction: str
    n_star: int | None
    value: float
    terminated: bool
    scanned: int

    @property
    def word(self) -> str:
        """Lyndon representative of the attaining class."""
        if self.direction == "A_pow_B":
            return "0" * self.n_star + "1" if self.n_star is not None else "0"
        return "0" + "1" * self.n_star if self.n_star is not None else "1"


def _oriented(p: MatrixPair, direction: str) -> tuple[Mat2, Mat2]:
    """(P, Q) of a scan direction: (A, B) for "A_pow_B", (B, A) for "B_pow_A"."""
    if direction == "A_pow_B":
        return p.A, p.B
    if direction == "B_pow_A":
        return p.B, p.A
    raise ValueError(f"direction must be 'A_pow_B' or 'B_pow_A', got {direction!r}")


def _power_is_supremum(pm: Mat2, qm: Mat2) -> bool:
    """Whether rho(P^n Q)^(1/(n+1)) < rho(P) for every n >= 0, in closed form.

    For P with complex eigenvalues, P = r C R(theta) C^-1 with r^2 = det P;
    with Q' = C^-1 Q C, rho(P^n Q) = r^n rho(R(n theta) Q') <= r^n mu, where
    mu = sup over phi of rho(R(phi) Q').  The trace of R(phi) Q' runs over
    [-a, a], a = hypot(q'11 + q'22, q'12 - q'21), and its determinant is
    v = det Q.  As a^2 - 4v = (q'11 - q'22)^2 + (q'12 + q'21)^2 >= 0,
    mu = (a + sqrt(a^2 - 4v)) / 2.  If mu < r, no n beats the pure power.

    In the invariants x = tr P, y = tr Q, z = tr PQ, u = det P and v, with
    b = 4u - x^2 (positive iff P is complex) and t = y^2 b + (2z - xy)^2
    (which is a^2 b), mu < r reads, squaring sqrt(a^2 - 4v) < 2r - a and
    then r a < u + v: t < 4ub, u + v > 0 and u t < (u + v)^2 b, the last
    with a relative margin of 1e-6.  A float screen runs first, and only a
    pair that passes it is checked exactly, in Fractions of the float
    entries, so the answer rests on no rounding.
    """
    entries = (*pm.entries(), *qm.entries())
    return _rotation_bound(*entries) and _rotation_bound(*map(Fraction, entries))


def _rotation_bound(p11, p12, p21, p22, q11, q12, q21, q22) -> bool:
    """``_power_is_supremum``'s inequalities on P's and Q's entries, with
    +, -, * and comparisons only: rounded on floats, exact on Fractions."""
    x, y = p11 + p22, q11 + q22
    u, v = p11 * p22 - p12 * p21, q11 * q22 - q12 * q21
    z = p11 * q11 + p12 * q21 + p21 * q12 + p22 * q22
    b = 4 * u - x * x
    if not b > 0:
        return False
    w = 2 * z - x * y
    t = y * y * b + w * w
    return t < 4 * u * b and u + v > 0 and \
        (10 ** 6 + 1) * u * t < 10 ** 6 * (u + v) * (u + v) * b


def gelfand_scan(p: MatrixPair, direction: str = "A_pow_B",
                 cap: int = 10_000) -> GelfandScan:
    """Scan n -> rho(P^n Q)^(1/(n+1)) with a rigorous stopping rule.

    P is A and Q is B for direction "A_pow_B"; swapped for "B_pow_A"
    (rho(B^n A) equals rho(A B^n) by cyclic invariance).  n runs from 0
    to ``cap``; a ``cap`` that is not an int raises TypeError, a negative
    one ValueError.  Termination:
    once alpha = |P^n|^(1/n) drops strictly below the running best,
    submultiplicativity gives |P^m| <= K alpha^m with
    K = max_s<n |P^s| / alpha^s, hence

        rho(P^m Q)^(1/(m+1)) <= alpha (K |Q| / alpha)^(1/(m+1)) < best

    for all m beyond an explicit M0; scanning to M0 certifies the rest.
    Powers are tracked with running renormalization, so the scan is safe
    at any spectral radius.

    The loop holds P^n as four floats and forms P^n Q and P^(n+1) with
    the products and sums of ``Mat2.__matmul__``, in the same order, so
    each step rounds as the ``Mat2`` recurrence
    ``renormalized(cur @ P, log)`` does; ``renormalized`` runs only when
    the largest entry leaves its band.  |P^n| is taken only where the tail
    test reads it: at every n <= 512 and then at every 128th n.  K needs
    every |P^s| with s < n, so when alpha drops below the best the missing
    norms are filled by replaying that ``Mat2`` recurrence from the last
    power whose norm was kept; being the same operations on the same
    floats, the replay meets the same powers bit for bit.

    The closed-form exit: when ``_power_is_supremum`` proves, exactly, that
    no rho(P^n Q)^(1/(n+1)) reaches rho(P), nothing is scanned, whatever
    ``cap``.  The result is the one the scan would give, n_star None and
    value rho(P), but terminated, with ``scanned`` 0.  The test sees
    ``unit_scaled(p)``, so its answer does not depend on the scale of p.
    """
    pm, qm = _oriented(p, direction)
    _check_count("cap", cap)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if pm.is_zero():
        raise ValueError("powered matrix is zero")
    if qm.is_zero():
        raise ValueError("companion matrix is zero")

    s = max(operator_norm_2(pm), operator_norm_2(qm))
    pm_s, qm_s = pm.divided_by(s), qm.divided_by(s)
    best = spectral_radius(pm_s)  # the pure-power member
    if _power_is_supremum(*_oriented(unit_scaled(p)[0], direction)):
        return GelfandScan(direction, None, best * s, True, 0)
    log_nq = math.log(operator_norm_2(qm_s))
    p11, p12, p21, p22 = pm_s.entries()
    q11, q12, q21, q22 = qm_s.entries()
    lo, hi = RENORM_RANGE

    best_n: int | None = None
    log_norms = [0.0]  # log |P^m| for m = 0 .. len - 1
    kept = (Mat2.identity(), 0.0)  # P^(len - 1), renormalized, and its log scale
    c11, c12, c21, c22 = 1.0, 0.0, 0.0, 1.0  # P^n, renormalized
    cur_log = 0.0
    terminated = False
    n = 0
    while n <= cap:
        r = spectral_radius_entries(c11 * q11 + c12 * q21, c11 * q12 + c12 * q22,
                                    c21 * q11 + c22 * q21, c21 * q12 + c22 * q22)
        if r > 0.0:
            root = math.exp((math.log(r) + cur_log) / (n + 1))
            if root > best:
                best = root
                best_n = n
        # tail certificate (checked densely early, then throttled)
        if n >= 1 and (n <= 512 or n % 128 == 0):
            cur = Mat2(c11, c12, c21, c22)
            log_norm = math.log(operator_norm_2(cur)) + cur_log
            alpha_log = log_norm / n
            if best > 0.0 and alpha_log < math.log(best):
                w, w_log = kept
                while len(log_norms) < n:
                    w, w_log = renormalized(w @ pm_s, w_log)
                    log_norms.append(math.log(operator_norm_2(w)) + w_log)
                k_log = max(log_norms[m] - m * alpha_log for m in range(n))
                num = k_log + log_nq - alpha_log
                den = math.log(best) - alpha_log
                if num <= 0.0 or n >= num / den - 1.0:
                    terminated = True
                    break
            if len(log_norms) == n:
                log_norms.append(log_norm)
                kept = (cur, cur_log)
        c11, c12, c21, c22 = (c11 * p11 + c12 * p21, c11 * p12 + c12 * p22,
                              c21 * p11 + c22 * p21, c21 * p12 + c22 * p22)
        n += 1
        big = max(abs(c11), abs(c12), abs(c21), abs(c22))
        if big == 0.0:  # nilpotent power: every later product vanishes
            terminated = True
            break
        if big > hi or big < lo:
            cur, cur_log = renormalized(Mat2(c11, c12, c21, c22), cur_log)
            c11, c12, c21, c22 = cur.entries()

    return GelfandScan(direction=direction, n_star=best_n, value=best * s,
                       terminated=terminated, scanned=n)


@dataclass(frozen=True, slots=True)
class SmpCandidate:
    """A (possibly certified) spectrum-maximizing-product candidate.

    When ``certified`` is true, ``value`` equals the exact JSR (within
    floating-point evaluation of the closed forms) and ``jsr`` repeats
    it; otherwise ``jsr`` is None and [lower, upper] brackets the truth
    when brute force was run.
    """

    word: str
    value: float
    certified: bool
    certificate: str
    jsr: float | None
    ties: list[str]
    lower: float | None = None
    upper: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "word": self.word,
            "value": self.value,
            "certified": self.certified,
            "certificate": self.certificate,
            "jsr": self.jsr,
            "ties": list(self.ties),
            "lower": self.lower,
            "upper": self.upper,
        }


def _argmax_words(cands: list[tuple[str, float]], tol: float) -> tuple[str, float, list[str]]:
    value = max(v for _, v in cands)
    tied = sorted({w for w, v in cands if v >= value - tol * max(1.0, value)},
                  key=lambda w: (len(w), w))
    return tied[0], value, tied


def _looks_like_scaled_reflection(m: Mat2, value: float, tol: float) -> bool:
    # trace ~ 0 and -det ~ value^2: conjugate to value * reflection
    scale = max(operator_norm_2(m), 1.0)
    return abs(m.trace()) <= tol * scale and \
        abs(-m.det() - value * value) <= tol * max(1.0, value * value)


def _looks_like_scaled_rotation(m: Mat2, value: float, tol: float) -> bool:
    # complex eigenvalues with modulus ~ value: conjugate to value * rotation
    sp = spectrum(m)
    return sp.kind == SpectrumKind.COMPLEX_CONJUGATE and \
        abs(sp.rho - value) <= tol * max(1.0, value)


def certify(p: MatrixPair, tol: float = 1e-9, brute_len: int = 12,
            resolution: Fraction = Fraction(1, 1024)) -> SmpCandidate:
    """Certify an SMP and the exact JSR where the region theory allows.

    Routing: reducible pairs triangularize (a single letter wins);
    crossing pairs pinch at max(rho(A), rho(B)); both-negative
    determinants reduce to {A, B, AB}; mixed determinant signs run the
    power scan oriented by which determinant is negative or zero (both
    directions when the product is exactly zero); co-parallel pairs get
    the Sturmian candidate with a brute-force bracket; anything else is
    brute force only.

    The routes run on ``unit_scaled(p)`` and scale value and bounds back
    by the same exact power of two, so route, word and ties do not depend
    on the scale of p.  The Sturmian descent runs on p: its logs are safe.
    Whichever route runs, ``brute_len`` is checked as ``brute_force``
    checks ``max_len``, and a ``resolution`` that is not positive raises
    ValueError.
    """
    _check_max_len("brute_len", brute_len)
    # the sign of a Fraction's or an int's numerator is its own; comparing a
    # Fraction costs more than all of certify's other checks
    if not getattr(resolution, "numerator", resolution) > 0:
        raise ValueError("resolution must be positive")
    q, e = unit_scaled(p)
    cand = _certify_routes(p, q, tol, brute_len, resolution)
    if e == 0 or cand.certificate == "co-parallel-sturmian-candidate":
        return cand
    scaled = {k: math.ldexp(x, e) for k in ("value", "jsr", "lower", "upper")
              if (x := getattr(cand, k)) is not None}
    return replace(cand, **scaled)


def _certify_routes(p: MatrixPair, q: MatrixPair, tol: float, brute_len: int,
                    resolution: Fraction) -> SmpCandidate:
    """``certify`` on q = unit_scaled(p); only the co-parallel route reads p."""
    flags = classify(q, tol)
    ra = spectral_radius(q.A)
    rb = spectral_radius(q.B)

    if flags.reducible is True or flags.in_cross is True:
        word, value, ties = _argmax_words([("0", ra), ("1", rb)], tol)
        return SmpCandidate(word=word, value=value, certified=True,
                            certificate="reducible-triangularizable" if flags.reducible is True
                            else "crossing-single-letter",
                            jsr=value, ties=ties)

    if flags.in_neg is True:
        rab = math.sqrt(spectral_radius(q.A @ q.B))
        word, value, ties = _argmax_words([("0", ra), ("1", rb), ("01", rab)], tol)
        if _looks_like_scaled_reflection(q.A, value, tol) or \
                _looks_like_scaled_reflection(q.B, value, tol):
            br = brute_force(q, brute_len)
            return SmpCandidate(word=br.best_word, value=br.lower, certified=False,
                                certificate="negative-determinants-reflection-degenerate",
                                jsr=None, ties=br.ties, lower=br.lower, upper=br.upper)
        return SmpCandidate(word=word, value=value, certified=True,
                            certificate="negative-determinants-short-list",
                            jsr=value, ties=ties)

    if flags.in_mix is True:
        u, v = q.A.det(), q.B.det()
        if u > 0.0 > v:
            dirs = ["A_pow_B"]
        elif v > 0.0 > u:
            dirs = ["B_pow_A"]
        else:  # a zero determinant orients ambiguously: scan both ways
            dirs = ["A_pow_B", "B_pow_A"]
        scans = [gelfand_scan(q, d) for d in dirs]
        best = max(scans, key=lambda g: g.value)
        # both directions can name "01"; _argmax_words lists it once
        _, value, ties = _argmax_words([(g.word, g.value) for g in scans], tol)
        certified = all(g.terminated for g in scans)
        if any(_looks_like_scaled_rotation(_oriented(q, d)[0], value, tol) for d in dirs):
            certified = False
        return SmpCandidate(word=best.word, value=value, certified=certified,
                            certificate="mixed-determinants-power-scan"
                                        + ("" if certified else "-unterminated"),
                            jsr=value if certified else None, ties=ties)

    if flags.in_copar is True:
        report = maximize_sturmian(p, resolution, bracket_stop=True)
        gamma = report.argmax_gamma
        word = christoffel(gamma.numerator, gamma.denominator)
        value = math.exp(report.max_value)
        br = brute_force(p, brute_len)
        return SmpCandidate(word=word, value=value, certified=False,
                            certificate="co-parallel-sturmian-candidate",
                            jsr=None, ties=[word],
                            lower=br.lower, upper=br.upper)

    br = brute_force(q, brute_len)
    return SmpCandidate(word=br.best_word, value=br.lower, certified=False,
                        certificate="brute-force-only", jsr=None,
                        ties=br.ties, lower=br.lower, upper=br.upper)
