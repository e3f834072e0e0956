"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns a CriterionResult with a pass flag and a one-line
detail.  ``CRITERIA`` lists them in order; the CLI ``reproduce``
subcommand (``cli.reproduce_all``) and tests/test_acceptance.py both run
that list, so the checks exist exactly once.

Randomized criteria derive their generators from (seed, criterion index),
so separate criteria are independent but reruns are reproducible, and
criterion 12 can replay the exact pair streams of criteria 3-5.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .constructions import lambert_c, realize_from_tuple, verify_example
from .fricke import evaluate, fricke_poly, monomial_at_uv0
from .jsr import brute_force, gelfand_scan
from .linalg import (
    FiveTuple,
    Mat2,
    MatrixPair,
    commutator_invariant,
    five_tuple,
    spectral_radius,
)
from .regions import (AxisKind, classify, classify_arrays, geometric_oracle,
                      monte_carlo_regions)
from .sturmian import maximize_sturmian
from .words import (
    christoffel,
    christoffel_tree,
    is_primitive,
    lyndon_rotation,
    mechanical_prefix,
    signature,
    words_with_counts,
)

__all__ = ["CriterionResult", "CRITERIA", "criterion_names"]


@dataclass(frozen=True, slots=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _rows(seed_key: list[int], count: int,
          keep: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """The first ``count`` seeded N(0,1) pair rows that ``keep`` passes.

    A row holds A's entries, then B's.  Rows are drawn as (count, 8)
    blocks and kept by the boolean mask ``keep(block)``.  One (n, 8) draw
    holds the same doubles as n draws of 8, so these are the pairs a
    pair-at-a-time filter would select.
    """
    rng = np.random.default_rng(seed_key)
    blocks, found = [], 0
    while found < count:
        block = rng.standard_normal((count, 8))
        if keep is not None:
            block = block[keep(block)]
        blocks.append(block)
        found += len(block)
    return np.concatenate(blocks)[:count]


def _pair(row) -> MatrixPair:
    """The pair of a row (array or list): A's entries, then B's."""
    return MatrixPair(Mat2(*row[:4]), Mat2(*row[4:8]))


def _words(max_len: int) -> list[str]:
    """Every binary word of length 1..max_len, shorter words first."""
    return [format(i, f"0{k}b") for k in range(1, max_len + 1) for i in range(2 ** k)]


def _word_products(p: MatrixPair, max_len: int) -> dict[str, Mat2]:
    """``word_product(p, w)`` for every w in ``_words(max_len)``, in that order.

    Each product is its prefix's product times its last letter, the left
    association of ``word_product``, so every product keeps its bits.
    """
    prods = {"0": p.A, "1": p.B}
    for w in _words(max_len)[2:]:
        prods[w] = prods[w[:-1]] @ p.letter(w[-1])
    return prods


def _rel_ok(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * max(1.0, abs(target))


# ---------------------------------------------------------------- criterion 1

def crit_01_identity_suite(seed: int = 0) -> CriterionResult:
    """Trace/determinant identities on 10^4 seeded random pairs."""
    t0 = time.perf_counter()
    worst_expr = worst_sum = worst_rank1 = 0.0
    n = 10_000
    # row i: pair i's 8 entries, then 12 for its rank-one check, the order
    # of n alternating draws of 8 and 12; as Python floats, so the bare Mat2
    # products of the rank-one check run on float, not on numpy scalars
    for row in np.random.default_rng([seed, 1]).standard_normal((n, 20)).tolist():
        p = _pair(row)
        x, y, z, u, v = five_tuple(p)
        # the five equal expressions, conditioned on monomial magnitude
        scale = max(1.0, abs(4 * u * v), abs(u * y * y), abs(v * x * x),
                    abs(x * y * z), z * z)
        rep = commutator_invariant(p)
        core = [rep.expressions[k] for k in
                ("five_tuple_poly", "commutator_det", "disc_window", "power_traces")]
        if min(abs(u), abs(v)) > 1e-6:
            core.append(rep.expressions["inverse_form"])
        dev = (max(core) - min(core)) / scale
        worst_expr = max(worst_expr, dev)

        # det(A+B) + tr(AB) = det A + det B + tr A tr B
        lhs = (p.A + p.B).det() + z
        rhs = u + v + x * y
        worst_sum = max(worst_sum,
                        abs(lhs - rhs) / max(1.0, abs(u), abs(v), abs(x * y), abs(z)))

        # tr(XZYZ) = tr(XZ) tr(YZ) for rank-one Z
        e = row[8:]
        xm = Mat2(*e[:4])
        ym = Mat2(*e[4:8])
        zm = Mat2(e[8] * e[10], e[8] * e[11], e[9] * e[10], e[9] * e[11])
        lhs1 = (xm @ zm @ ym @ zm).trace()
        rhs1 = (xm @ zm).trace() * (ym @ zm).trace()
        worst_rank1 = max(worst_rank1, abs(lhs1 - rhs1) / max(1.0, abs(rhs1)))

    ok = worst_expr <= 1e-9 and worst_sum <= 1e-10 and worst_rank1 <= 1e-10
    return CriterionResult(
        "01-identity-suite", ok,
        f"n={n}; worst deviations: expressions {worst_expr:.2e} (<=1e-9), "
        f"det-sum {worst_sum:.2e} (<=1e-10), rank-one {worst_rank1:.2e} (<=1e-10)",
        time.perf_counter() - t0)


# ---------------------------------------------------------------- criterion 2

def crit_02_oracle_equivalence(seed: int = 0) -> CriterionResult:
    """Algebraic classifier vs geometric fixed-point oracle, 10^4 pairs."""
    t0 = time.perf_counter()
    n = 10_000

    def diagonalizable(rows: np.ndarray) -> np.ndarray:
        m = classify_arrays(rows).margins  # a zero matrix's NaN margins fail too
        return (m["disc_a"] > 0) & (m["disc_b"] > 0) & (np.abs(m["commutator"]) > 1e-6)

    rows = _rows([seed, 2], n, diagonalizable)
    f = classify_arrays(rows)
    expected = {
        AxisKind.CROSSING: f.in_cross == 1,
        AxisKind.CO_PARALLEL: f.in_copar == 1,
        AxisKind.ANTI_PARALLEL: f.in_anti == 1,
        AxisKind.DEGENERATE: (f.in_cross == 0) & (f.in_copar == 0) & (f.in_anti == 0),
    }
    checked = len(rows)
    disagree = sum(not expected[geometric_oracle(_pair(row)).kind][i]
                   for i, row in enumerate(rows))
    ok = disagree == 0
    return CriterionResult(
        "02-classifier-oracle-equivalence", ok,
        f"checked {checked} real-diagonalizable pairs (commutator margin > 1e-6); "
        f"{disagree} disagreements",
        time.perf_counter() - t0)


# ------------------------------------------------------------- criteria 3-5

def _dets(rows: np.ndarray) -> np.ndarray:
    """(det A, det B) of every row, with ``Mat2.det``'s operations."""
    m = rows.reshape(-1, 2, 4)
    return m[..., 0] * m[..., 3] - m[..., 1] * m[..., 2]


_REGIONS = {  # the criterion index that seeds each region's rows, and its mask
    "cross": (3, lambda rows: classify_arrays(rows).in_cross == 1),
    "neg": (4, lambda rows: (_dets(rows) < 0).all(axis=1)),
    "mix": (5, lambda rows: _dets(rows).prod(axis=1) < 0),
}


def _region_pairs(seed: int, which: str, count: int = 100) -> list[MatrixPair]:
    index, keep = _REGIONS[which]
    return [_pair(row) for row in _rows([seed, index], count, keep)]


def crit_03_crossing(seed: int = 0) -> CriterionResult:
    """Crossing pairs: single-letter optima, no mixed-word ties."""
    t0 = time.perf_counter()
    bad = []
    min_margin = math.inf
    for i, p in enumerate(_region_pairs(seed, "cross")):
        br = brute_force(p, 10)
        target = max(spectral_radius(p.A), spectral_radius(p.B))
        if br.best_word not in ("0", "1") or not _rel_ok(br.lower, target, 1e-9):
            bad.append((i, "best word/value"))
            continue
        mixed_best = max(br.per_length[k].rho_root for k in range(2, 11))
        min_margin = min(min_margin, target - mixed_best)
        if mixed_best >= target - 1e-9:
            bad.append((i, "mixed-word tie"))
    ok = not bad
    return CriterionResult(
        "03-crossing-reproduction", ok,
        f"100 crossing pairs, L=10; failures: {bad if bad else 'none'}; "
        f"smallest mixed-word gap {min_margin:.3e}",
        time.perf_counter() - t0)


def crit_04_negative(seed: int = 0) -> CriterionResult:
    """Both determinants negative: best class among 0, 1, 01."""
    t0 = time.perf_counter()
    bad = []
    for i, p in enumerate(_region_pairs(seed, "neg")):
        br = brute_force(p, 10)
        if br.best_word not in ("0", "1", "01"):
            bad.append((i, br.best_word))
    ok = not bad
    return CriterionResult(
        "04-negative-determinants-reproduction", ok,
        f"100 pairs, L=10; off-list best words: {bad if bad else 'none'}",
        time.perf_counter() - t0)


def crit_05_mixed(seed: int = 0) -> CriterionResult:
    """Opposite determinant signs: power-form optima, scan matches brute force."""
    t0 = time.perf_counter()
    bad = []
    for i, p in enumerate(_region_pairs(seed, "mix")):
        br = brute_force(p, 10)
        if p.A.det() > 0 > p.B.det():
            form = re.compile(r"^(0|1|0+1)$")
            direction = "A_pow_B"
        else:
            form = re.compile(r"^(0|1|01+)$")
            direction = "B_pow_A"
        if not form.match(br.best_word):
            bad.append((i, f"word {br.best_word}"))
            continue
        g = gelfand_scan(p, direction)
        if not _rel_ok(g.value, br.lower, 1e-9):
            bad.append((i, f"scan {g.value} vs brute {br.lower}"))
    ok = not bad
    return CriterionResult(
        "05-mixed-determinants-reproduction", ok,
        f"100 pairs, L=10; failures: {bad if bad else 'none'}",
        time.perf_counter() - t0)


# ---------------------------------------------------------------- criterion 6

def crit_06_coparallel(seed: int = 0) -> CriterionResult:
    """The co-parallel tuple (3,3,8,1,1): values, classes, Sturmian argmax."""
    t0 = time.perf_counter()
    problems = []
    p = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))
    if classify(p).in_copar is not True:
        problems.append("not classified co-parallel")

    rho_ab = spectral_radius(p.A @ p.B)
    rho_prod = spectral_radius(p.A) * spectral_radius(p.B)
    if abs(rho_ab - 7.872983) > 1e-6:
        problems.append(f"rho(AB) = {rho_ab}")
    if abs(rho_prod - 6.854102) > 1e-6:
        problems.append(f"rho(A) rho(B) = {rho_prod}")
    if rho_ab <= rho_prod:
        problems.append("rho(AB) not above rho(A) rho(B)")

    br = brute_force(p, 12)
    if br.best_word != "01" or abs(br.lower - 2.805884) > 1e-6:
        problems.append(f"brute best {br.best_word} at {br.lower}")

    # per-class optimality: best of W(a,b) is a rotation of the slope-b/(a+b)
    # mechanical prefix (a Christoffel power when gcd(a,b) > 1)
    prods = _word_products(p, 10)
    for total in range(2, 11):
        for b_count in range(1, total):
            a_count = total - b_count
            ref = mechanical_prefix(Fraction(b_count, total), 0, "lower", total)
            rotations = {ref[i:] + ref[:i] for i in range(total)}
            best_w, best_v = None, -math.inf
            for w in words_with_counts(a_count, b_count):
                val = spectral_radius(prods[w])
                if val > best_v:
                    best_w, best_v = w, val
            if best_w not in rotations:
                problems.append(f"W({a_count},{b_count}) best {best_w}")

    rep = maximize_sturmian(p, Fraction(1, 1024))
    if rep.argmax_gamma != Fraction(1, 2):
        problems.append(f"argmax {rep.argmax_gamma}")

    ok = not problems
    return CriterionResult(
        "06-coparallel-tuple-reproduction", ok,
        "; ".join(problems) if problems else
        f"rho(AB)={rho_ab:.6f} > {rho_prod:.6f}; best 01 at {br.lower:.6f}; "
        f"all W(a,b) Christoffel, argmax=1/2, no concavity violations",
        time.perf_counter() - t0)


# ---------------------------------------------------------------- criterion 7

def crit_07_example_family(seed: int = 0) -> CriterionResult:
    """Invariant-polygon family n = 1..6: norms, rho, unique best class."""
    t0 = time.perf_counter()
    problems = []
    c = lambert_c()
    if not 0.278 < c < 0.279:
        problems.append(f"c = {c}")
    gaps = []
    for n in range(1, 7):
        rep = verify_example(n, 2 * n + 4)
        gaps.append(rep.gap)
        if not rep.ok:
            problems.append(f"n={n}: gauge norms {rep.norm_a}, {rep.norm_b}, "
                            f"rho(A^nB) = {rep.rho_power}, best {rep.best_word}, gap {rep.gap}")
    ok = not problems
    return CriterionResult(
        "07-example-family-reproduction", ok,
        "; ".join(problems) if problems else
        f"c={c:.7f}; gaps n=1..6: " + ", ".join(f"{g:.2e}" for g in gaps),
        time.perf_counter() - t0)


# ---------------------------------------------------------------- criterion 8

def crit_08_fricke(seed: int = 0) -> CriterionResult:
    """Trace polynomials vs numeric traces; monomial law at u = v = 0."""
    t0 = time.perf_counter()
    words8 = _words(8)
    polys = {w: fricke_poly(w) for w in words8}

    worst = 0.0
    for row in _rows([seed, 8], 200):
        p = _pair(row)
        t = five_tuple(p)
        for w, prod in _word_products(p, 8).items():
            tr = prod.trace()
            val = evaluate(polys[w], t)
            worst = max(worst, abs(val - tr) / max(1.0, abs(tr)))
    numeric_ok = worst <= 1e-8

    monomial_bad = []
    for w in _words(10):
        if not is_primitive(w):
            continue
        m, k_, l = signature(w)
        if dict(monomial_at_uv0(w).items()) != {(m - l, k_ - l, l, 0, 0): 1}:
            monomial_bad.append(w)
    ok = numeric_ok and not monomial_bad
    return CriterionResult(
        "08-fricke-suite", ok,
        f"numeric worst rel dev {worst:.2e} (<=1e-8) over 200 pairs x {len(words8)} "
        f"words; monomial-law failures: {monomial_bad if monomial_bad else 'none'}",
        time.perf_counter() - t0)


# ---------------------------------------------------------------- criterion 9

def crit_09_christoffel_tree(seed: int = 0) -> CriterionResult:
    """Tree to depth 8: all nodes Christoffel/Lyndon, unique, complete."""
    t0 = time.perf_counter()
    problems = []
    nodes = christoffel_tree(8)

    def is_christoffel(w: str) -> bool:
        p_, q_ = w.count("1"), len(w)
        return math.gcd(p_, q_) == 1 and christoffel(p_, q_) == w

    seen = []
    for node in nodes:
        w = node.u + node.v
        for part in (node.u, node.v, w):
            if not is_christoffel(part):
                problems.append(f"not Christoffel: {part}")
        if len(w) >= 2 and (not is_primitive(w) or lyndon_rotation(w) != w):
            problems.append(f"not Lyndon: {w}")
        seen.append(w)
    if len(seen) != len(set(seen)):
        problems.append("duplicate concatenation")

    # every Christoffel word of length 2..9 must appear by depth 8
    expected = {christoffel(p_, q_) for q_ in range(2, 10)
                for p_ in range(1, q_) if math.gcd(p_, q_) == 1}
    missing = expected - set(seen)
    if missing:
        problems.append(f"missing: {sorted(missing)}")
    ok = not problems
    return CriterionResult(
        "09-christoffel-tree", ok,
        "; ".join(problems) if problems else
        f"{len(nodes)} nodes, all Christoffel+Lyndon, {len(expected)} words of "
        f"length 2..9 each appear exactly once",
        time.perf_counter() - t0)


# --------------------------------------------------------------- criterion 10

def crit_10_sandwich(seed: int = 0) -> CriterionResult:
    """lower <= upper per length; norm roots non-increasing k -> 2k."""
    t0 = time.perf_counter()
    bad = []
    for i, row in enumerate(_rows([seed, 10], 100)):
        br = brute_force(_pair(row), 10)
        for k in range(1, 11):
            st = br.per_length[k]
            if st.rho_root > st.norm_root + 1e-12:
                bad.append((i, k, "rho above norm"))
        for k in range(1, 6):
            if br.per_length[2 * k].norm_root > br.per_length[k].norm_root + 1e-12:
                bad.append((i, k, "upper(2k) > upper(k)"))
        if br.lower > br.upper + 1e-12:
            bad.append((i, 0, "lower > upper"))
    ok = not bad
    return CriterionResult(
        "10-three-member-sandwich", ok,
        f"100 pairs, L=10; violations: {bad if bad else 'none'}",
        time.perf_counter() - t0)


# --------------------------------------------------------------- criterion 11

def crit_11_monte_carlo(seed: int = 0) -> CriterionResult:
    """Region frequencies at N=10^5 (seed 0) plus the non-negative probe."""
    t0 = time.perf_counter()
    problems = []
    counts = monte_carlo_regions(seed=0, n=100_000, distribution="normal")
    union_frac = counts["union4"] / counts["total"]
    if counts["copar&cross"] != 0:
        problems.append(f"copar&cross = {counts['copar&cross']}")
    if counts["cross&mix"] < 1:
        problems.append("cross&mix empty")
    if counts["cross&neg"] < 1:
        problems.append("cross&neg empty")

    # one (10^4, 8) draw holds the same doubles as 10^4 draws of rng.random(8)
    f = classify_arrays(np.random.default_rng([seed, 11]).random((10_000, 8)))
    outside = np.count_nonzero(~(f.in_union4 | (f.reducible == 1) | f.indeterminate))
    if outside:
        problems.append(f"{outside} non-negative pairs outside the union")
    ok = not problems
    return CriterionResult(
        "11-monte-carlo-probe", ok,
        "; ".join(problems) if problems else
        f"union-of-four fraction {union_frac:.4f} (informational); "
        f"copar&cross=0, cross&mix={counts['cross&mix']}, "
        f"cross&neg={counts['cross&neg']}; all 10^4 uniform[0,1] pairs in "
        f"union/reducible/indeterminate",
        time.perf_counter() - t0)


# --------------------------------------------------------------- criterion 12

def crit_12_uniqueness_probe(seed: int = 0) -> CriterionResult:
    """Fraction of region runs with a near-tied second class (expected 0).

    Report-only: a nonzero count dumps the pairs for inspection instead of
    failing, since tolerance can graze measure-zero tie sets.
    """
    t0 = time.perf_counter()
    near_ties = []
    total = 0
    for which in ("cross", "neg", "mix"):
        for p in _region_pairs(seed, which):
            total += 1
            br = brute_force(p, 10)
            if math.isfinite(br.second_value) and br.lower - br.second_value < 1e-9:
                near_ties.append({"region": which, "pair": p.to_json_dict(),
                                  "best": br.best_word, "gap": br.lower - br.second_value})
    frac = len(near_ties) / total
    detail = f"fraction with two best classes within 1e-9: {frac:.4f} ({len(near_ties)}/{total})"
    if near_ties:
        detail += "; dump: " + json.dumps(near_ties)
    return CriterionResult("12-generic-uniqueness-probe", True, detail,
                           time.perf_counter() - t0)


CRITERIA: list[tuple[str, Callable[[int], CriterionResult]]] = [
    ("01-identity-suite", crit_01_identity_suite),
    ("02-classifier-oracle-equivalence", crit_02_oracle_equivalence),
    ("03-crossing-reproduction", crit_03_crossing),
    ("04-negative-determinants-reproduction", crit_04_negative),
    ("05-mixed-determinants-reproduction", crit_05_mixed),
    ("06-coparallel-tuple-reproduction", crit_06_coparallel),
    ("07-example-family-reproduction", crit_07_example_family),
    ("08-fricke-suite", crit_08_fricke),
    ("09-christoffel-tree", crit_09_christoffel_tree),
    ("10-three-member-sandwich", crit_10_sandwich),
    ("11-monte-carlo-probe", crit_11_monte_carlo),
    ("12-generic-uniqueness-probe", crit_12_uniqueness_probe),
]


def criterion_names() -> list[str]:
    return [name for name, _ in CRITERIA]
