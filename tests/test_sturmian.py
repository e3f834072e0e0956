import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_pair
from smplab import sturmian
from smplab.constructions import realize_from_tuple
from smplab.linalg import FiveTuple, Mat2, MatrixPair, spectral_radius, word_product
from smplab.regions import classify
from smplab.sturmian import (
    ConcavityViolation,
    _audit,
    copar_gap,
    lyapunov_irrational,
    lyapunov_rational,
    maximize_sturmian,
    midpoint_concavity_audit,
)
from smplab.words import christoffel, mechanical_prefix, words_with_counts

COPAR = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))


def test_lyapunov_endpoints():
    assert lyapunov_rational(COPAR, 0, 1).value == \
        pytest.approx(math.log(spectral_radius(COPAR.A)), rel=1e-12)
    assert lyapunov_rational(COPAR, 1, 1).value == \
        pytest.approx(math.log(spectral_radius(COPAR.B)), rel=1e-12)


def test_lyapunov_half():
    expect = 0.5 * math.log((8 + math.sqrt(60)) / 2)
    assert lyapunov_rational(COPAR, 1, 2).value == pytest.approx(expect, rel=1e-12)


def test_lyapunov_periodic_square_consistency(rng):
    for _ in range(10):
        p = random_pair(rng)
        for num, den in ((1, 2), (2, 5), (3, 7)):
            w = christoffel(num, den)
            base = lyapunov_rational(p, num, den).value
            rho2 = spectral_radius(word_product(p, w * 2))
            if rho2 == 0.0:
                continue
            assert base == pytest.approx(math.log(rho2) / (2 * den), rel=1e-9, abs=1e-9)


def test_lyapunov_nilpotent_flag():
    p = MatrixPair(Mat2(0, 1, 0, 0), Mat2(1, 0, 0, 1))
    sample = lyapunov_rational(p, 0, 1)
    assert sample.nilpotent and sample.value == -math.inf


def test_lyapunov_long_cycle_no_overflow():
    # spectral radii ~2.6 would overflow doubles around length 700 unscaled
    val = lyapunov_rational(COPAR, 1, 2000).value
    assert math.isfinite(val)
    assert val == pytest.approx(math.log(spectral_radius(COPAR.A)), abs=0.05)


def test_irrational_rational_input_matches():
    est = lyapunov_irrational(COPAR, 0.5, 8)
    assert est.value == lyapunov_rational(COPAR, 1, 2).value
    assert est.error == 0.0


def test_irrational_golden_convergents_consistent():
    gamma = (math.sqrt(5) - 1) / 2
    d8 = lyapunov_irrational(COPAR, gamma, 8)
    d9 = lyapunov_irrational(COPAR, gamma, 9)
    assert abs(d9.value - d8.value) <= max(d8.error, d9.error) + 1e-12


def test_irrational_small_slope_approaches_endpoint():
    target = math.log(spectral_radius(COPAR.A))
    est = lyapunov_irrational(COPAR, 1e-3, 6)
    assert est.value == pytest.approx(target, abs=0.05)


def test_maximize_sturmian_symmetric_tuple():
    rep = maximize_sturmian(COPAR, Fraction(1, 64))
    assert rep.argmax_gamma == Fraction(1, 2)
    assert rep.max_value == pytest.approx(lyapunov_rational(COPAR, 1, 2).value)
    assert rep.midpoint_violations == []


def test_maximize_sturmian_rejects_non_copar():
    a = Mat2(1, 2, 3, 4)
    with pytest.raises(ValueError):
        maximize_sturmian(MatrixPair(a, a * 2.0), Fraction(1, 16))
    with pytest.raises(ValueError):
        maximize_sturmian(realize_from_tuple(FiveTuple(3, 3, 4, 1, 1)),
                          Fraction(1, 16))


def test_maximize_sturmian_asymmetric_interior():
    # z just above the co-parallel window for (x, y, u, v) = (3, 4, 1, 1)
    t = FiveTuple(3, 4, 10.0, 1, 1)
    p = realize_from_tuple(t)
    assert classify(p).in_copar is True
    rep = maximize_sturmian(p, Fraction(1, 256))
    assert Fraction(0) < rep.argmax_gamma < Fraction(1)
    assert rep.midpoint_violations == []


def _random_copar_pairs(rng, count):
    out = []
    while len(out) < count:
        p = random_pair(rng)
        if classify(p).in_copar is True:
            out.append(p)
    return out


def test_midpoint_concavity_on_random_copar_pairs(rng):
    for p in _random_copar_pairs(rng, 3):
        assert midpoint_concavity_audit(p, 12) == []


def test_class_optimality_on_random_copar_pairs(rng):
    for p in _random_copar_pairs(rng, 2):
        for total in range(2, 11):
            for ones in range(1, total):
                ref = mechanical_prefix(Fraction(ones, total), 0, "lower", total)
                rotations = {ref[i:] + ref[:i] for i in range(total)}
                best_w = max(words_with_counts(total - ones, ones),
                             key=lambda w: spectral_radius(word_product(p, w)))
                assert best_w in rotations, (total, ones, best_w)


def test_maximize_matches_farey_scan(rng):
    for p in _random_copar_pairs(rng, 2):
        rep = maximize_sturmian(p, Fraction(1, 128))
        grid = {}
        for q in range(1, 21):
            for a in range(q + 1):
                g = Fraction(a, q)
                if g not in grid:
                    grid[g] = lyapunov_rational(p, g.numerator, g.denominator).value
        best_grid = max(grid, key=grid.get)
        assert abs(best_grid - rep.argmax_gamma) <= Fraction(1, 128) + Fraction(1, 20)


def test_copar_gap_examples():
    assert copar_gap(COPAR) == pytest.approx(1.018881, abs=1e-6)
    near = realize_from_tuple(FiveTuple(3, 3, 7.1, 1, 1))
    gap = copar_gap(near)
    assert 0 < gap < 0.2
    with pytest.raises(ValueError):
        copar_gap(realize_from_tuple(FiveTuple(3, 3, 4, 1, 1)))


def test_maximize_sturmian_endpoint_leaning():
    # rho(A) dominates: the maximizer sits at (or within resolution of)
    # the gamma = 0 endpoint, and the descent must still terminate
    t = FiveTuple(8, 2.2, 13.0, 1, 1)
    p = realize_from_tuple(t)
    assert classify(p).in_copar is True
    rep = maximize_sturmian(p, Fraction(1, 128))
    grid = {}
    for q in range(1, 21):
        for a in range(q + 1):
            g = Fraction(a, q)
            if g not in grid:
                grid[g] = lyapunov_rational(p, g.numerator, g.denominator).value
    best = max(grid, key=grid.get)
    assert abs(rep.argmax_gamma - best) <= Fraction(1, 128) + Fraction(1, 20)


def _reference_descent(p, resolution):
    """The mediant descent with every sample from lyapunov_rational."""
    samples = {}

    def f(g):
        if g not in samples:
            samples[g] = lyapunov_rational(p, g.numerator, g.denominator).value
        return samples[g]

    left, mid, right = Fraction(0), Fraction(1, 2), Fraction(1)
    for g in (left, right, mid):
        f(g)
    while right - left >= resolution:
        ml = Fraction(left.numerator + mid.numerator, left.denominator + mid.denominator)
        mr = Fraction(mid.numerator + right.numerator, mid.denominator + right.denominator)
        if f(ml) > f(mid):
            left, mid, right = left, ml, mid
        elif f(mr) > f(mid):
            left, mid, right = mid, mr, right
        else:
            left, right = ml, mr
    return samples, mid


def _assert_matches_reference(p, resolution):
    rep = maximize_sturmian(p, resolution)
    ref, ref_mid = _reference_descent(p, resolution)
    assert [s.gamma for s in rep.grid] == sorted(ref)
    assert rep.argmax_gamma == ref_mid
    for s in rep.grid:
        assert s.value == pytest.approx(ref[s.gamma], rel=1e-12)
    return rep


def test_maximize_matches_reference_on_tuple():
    rep = _assert_matches_reference(COPAR, Fraction(1, 1024))
    assert len(rep.grid) == 1027


def test_maximize_matches_reference_at_endpoints():
    # rho(A) dominates, so the argmax runs to gamma -> 0; swapping the
    # letters mirrors it to gamma -> 1, the longest descent (two samples
    # per step)
    p = realize_from_tuple(FiveTuple(8, 2.2, 13.0, 1, 1))
    low = _assert_matches_reference(p, Fraction(1, 256))
    high = _assert_matches_reference(p.swapped(), Fraction(1, 256))
    assert low.argmax_gamma == Fraction(1, 258)
    assert high.argmax_gamma == Fraction(257, 258)
    assert len(high.grid) == 2 * len(low.grid) - 3


def test_maximize_matches_reference_on_random_copar_pairs(rng):
    for p in _random_copar_pairs(rng, 4):
        _assert_matches_reference(p, Fraction(1, 256))


def _reference_audit(samples, tol):
    """The audit as a plain double loop over sorted slope pairs."""
    gammas = sorted(samples)
    violations = []
    for i, t1 in enumerate(gammas):
        for t2 in gammas[i + 1:]:
            mid = (t1 + t2) / 2
            fmid = samples.get(mid)
            if fmid is None:
                continue
            excess = (samples[t1] + samples[t2]) / 2 - fmid
            if excess >= tol:
                violations.append((t1, t2, excess))
    return violations


def test_audit_matches_reference_by_hand():
    F = Fraction
    samples = {
        F(0): 0.0, F(1): 0.0, F(1, 2): -0.5,      # violation at (0, 1)
        F(1, 4): -math.inf, F(3, 4): 0.25,        # -inf end: (1/4, 3/4) passes
        F(1, 8): 0.1, F(3, 8): -math.inf,         # -inf midpoint of (1/8, 5/8)
        F(5, 8): 0.3, F(7, 8): 0.2,               # (1/2, 3/4) hits 5/8
        F(1, 3): 0.2, F(2, 3): 0.2,               # midpoints 1/2 and 5/6, 5/6 absent
        F(5, 12): 0.6,                            # midpoint of (1/3, 1/2)
    }
    got = _audit(samples, 1e-10)
    assert got == _reference_audit(samples, 1e-10)
    assert (F(0), F(1), 0.5) in got
    assert (F(1, 8), F(5, 8), math.inf) in got
    assert _audit(samples, 1.0) == [v for v in got if v[2] >= 1.0]
    at_tol = _audit(samples, 0.5)  # excess == tol counts as a violation
    assert at_tol == _reference_audit(samples, 0.5) and (F(0), F(1), 0.5) in at_tol
    assert _audit({}, 0.0) == [] and _audit({F(1, 3): 1.0}, 0.0) == []


def test_audit_matches_reference_on_random_grids():
    rng = np.random.default_rng(5)
    farey = sorted({Fraction(a, q) for q in range(1, 40) for a in range(q + 1)})
    for size in (3, 40, 150):
        for _ in range(4):
            picks = rng.choice(len(farey), size=size, replace=False)
            values = rng.normal(size=size)
            values[rng.random(size) < 0.05] = -math.inf
            samples = {farey[k]: float(v) for k, v in zip(picks, values)}
            for tol in (1e-10, -0.5):
                assert _audit(samples, tol) == _reference_audit(samples, tol)


def test_audit_exact_beyond_int64_denominators():
    # 2 * d1 * d2 no longer fits in int64, so the keys are Python ints
    d = 2**40 + 15
    t1, t2 = Fraction(1, d), Fraction(3, d)
    samples = {t1: 1.0, t2: 1.0, Fraction(2, d): 0.0,
               Fraction(1, 2): 0.0, Fraction(2, d) + Fraction(1, 2 * d * d): -1.0}
    got = _audit(samples, 1e-10)
    assert got == _reference_audit(samples, 1e-10) == [(t1, t2, 1.0)]


def test_maximize_raises_on_non_concave_values(monkeypatch):
    # f(1/2) = 0 lies below the chord from f(0) = f(1) = log 2; with the
    # co-parallel precondition forced, the audit must catch it
    p = MatrixPair(Mat2(2, 0, 0, 0.5), Mat2(0.5, 0, 0, 2))
    monkeypatch.setattr(sturmian, "classify",
                        lambda pair: SimpleNamespace(in_copar=True))
    with pytest.raises(ConcavityViolation) as exc:
        maximize_sturmian(p, Fraction(1, 16))
    ref, _ = _reference_descent(p, Fraction(1, 16))
    assert exc.value.violations == _reference_audit(ref, 1e-10)
    assert exc.value.violations[0] == (Fraction(0), Fraction(1), math.log(2))
