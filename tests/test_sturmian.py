import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pair
from smplab import sturmian
from smplab.constructions import realize_from_tuple
from smplab.jsr import brute_force, certify
from smplab.linalg import FiveTuple, Mat2, MatrixPair, spectral_radius, word_product
from smplab.regions import classify
from smplab.sturmian import (
    ConcavityViolation,
    copar_gap,
    lyapunov_irrational,
    lyapunov_rational,
    maximize_sturmian,
)
from smplab.words import christoffel, mechanical_prefix, words_with_counts

COPAR = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))


def _audit(samples: dict[Fraction, float],
           tol: float) -> list[tuple[Fraction, Fraction, float]]:
    """Check f(mid) > (f(t1)+f(t2))/2 - tol over all in-grid midpoints.

    Returns the violations (t1, t2, excess) with excess >= tol, in
    (t1, t2) order, through the library's hull-then-exact audit.
    """
    gammas = sorted(samples)
    return sturmian._sorted_audit([g.numerator for g in gammas],
                                  [g.denominator for g in gammas],
                                  [samples[g] for g in gammas], tol)


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


@pytest.mark.parametrize("c", [1e-200, 1e-310, 1e200])
def test_values_shift_by_log_scale(c):
    # scaling both letters by c adds log c to every value; at 1e-200 the
    # product of two letters underflowed, so the descent raised
    # ConcavityViolation, and at 1e-310 the letters are subnormal
    tiny = MatrixPair(COPAR.A * c, COPAR.B * c)
    assert lyapunov_rational(tiny, 2, 5).value - math.log(c) == \
        pytest.approx(lyapunov_rational(COPAR, 2, 5).value, rel=1e-9)
    ref = maximize_sturmian(COPAR, Fraction(1, 64))
    rep = maximize_sturmian(tiny, Fraction(1, 64))
    assert rep.argmax_gamma == ref.argmax_gamma
    assert rep.max_value - math.log(c) == pytest.approx(ref.max_value, rel=1e-9)


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
    # (x, y, u, v) = (3, 4, 1, 1): at z = 14 the maximizer is interior, the
    # class of 011; at z = 10, just above the co-parallel window, rho(B)
    # dominates and the argmax is the endpoint 1/1, the SMP B
    for z, gamma, word in ((14.0, Fraction(2, 3), "011"), (10.0, Fraction(1), "1")):
        p = realize_from_tuple(FiveTuple(3, 4, z, 1, 1))
        assert classify(p).in_copar is True
        rep = maximize_sturmian(p, Fraction(1, 256))
        assert rep.argmax_gamma == gamma
        assert brute_force(p, 14).best_word == word
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
    # an endpoint strictly above the incumbent is the argmax, 0 on a tie
    if max(f(Fraction(0)), f(Fraction(1))) > f(mid):
        mid = Fraction(0) if f(Fraction(0)) >= f(Fraction(1)) else Fraction(1)
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
    # rho(A) dominates, so the descent runs to gamma -> 0 and the argmax is
    # the endpoint 0/1; swapping the letters mirrors it to gamma -> 1, the
    # longest descent (two samples per step), and the argmax 1/1
    p = realize_from_tuple(FiveTuple(8, 2.2, 13.0, 1, 1))
    low = _assert_matches_reference(p, Fraction(1, 256))
    high = _assert_matches_reference(p.swapped(), Fraction(1, 256))
    assert low.argmax_gamma == Fraction(0)
    assert high.argmax_gamma == Fraction(1)
    assert low.max_value == pytest.approx(math.log(spectral_radius(p.A)), rel=1e-15)
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


def test_audit_hull_shortcut_matches_reference():
    # a concave quadratic on a random part of a Farey sequence, plus uniform
    # noise whose spread straddles tol / 2, and sometimes -inf values: the
    # hull certificate may only answer [] where the exact pass would.  A
    # flat quadratic bends by less than tol, so the noise decides the audit.
    paths = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(order=st.integers(2, 14), keep=st.floats(0.3, 1.0),
           curve=st.tuples(st.floats(0, 5), st.floats(-2, 2), st.floats(-3, 3)),
           flat=st.booleans(), tol=st.sampled_from([1e-10, 1e-4, -1e-4]),
           noise=st.floats(0, 2), infs=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def check(order, keep, curve, flat, tol, noise, infs, seed):
        rng = np.random.default_rng(seed)
        farey = sorted({Fraction(a, q) for q in range(1, order + 1) for a in range(q + 1)})
        gammas = [g for g in farey if rng.random() < keep] or farey
        c, slope, off = curve
        if flat:
            c *= abs(tol)
        t = np.array([float(g) for g in gammas])
        values = off + slope * t - c * (t - 0.5) ** 2
        values += rng.uniform(-noise, noise, len(t)) * abs(tol)
        values[rng.choice(len(t), size=min(infs, len(t)), replace=False)] = -math.inf
        samples = {g: float(v) for g, v in zip(gammas, values)}
        with mock.patch.object(sturmian, "_pairwise_audit",
                               wraps=sturmian._pairwise_audit) as exact:
            got = _audit(samples, tol)
        paths.add("exact" if exact.called else "hull")
        assert got == _reference_audit(samples, tol)

    check()
    assert paths == {"hull", "exact"}


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


def _copar_rows(seed, count):
    """The first ``count`` co-parallel rows of a seeded N(0,1) (n, 8) draw."""
    from smplab.regions import classify_arrays

    rows = np.random.default_rng(seed).standard_normal((6000, 8))
    rows = rows[classify_arrays(rows).in_copar == 1][:count]
    assert len(rows) == count
    return [MatrixPair(Mat2(*r[:4]), Mat2(*r[4:])) for r in rows.tolist()]


# the 13 co-parallel pairs of the seed-0 corpus (the rows of
# default_rng(0).standard_normal((1000, 8))), then 50 more seeded ones
COPAR_SET = _copar_rows(0, 13) + _copar_rows([11, 0], 50)


def test_copar_candidate_is_not_below_the_brute_force_lower_bound():
    # the descent never makes an endpoint its incumbent, so the argmax must
    # weigh them itself: 9 of the 13 corpus pairs have a single-letter SMP
    single = 0
    for p in COPAR_SET:
        cand = certify(p)
        bounds = brute_force(p, 14)
        assert cand.value >= bounds.lower * (1 - 1e-12)
        if len(bounds.best_word) == 1:
            single += 1
            assert cand.word == bounds.best_word
    assert single >= 9


def test_sturmian_argmax_mirrors_when_the_letters_swap():
    for p in COPAR_SET:
        rep = maximize_sturmian(p, Fraction(1, 256))
        mirrored = maximize_sturmian(p.swapped(), Fraction(1, 256))
        assert mirrored.argmax_gamma == 1 - rep.argmax_gamma
        assert mirrored.max_value == pytest.approx(rep.max_value, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       resolution=st.sampled_from([Fraction(1, 64), Fraction(1, 1024)]))
def test_stopped_descent_is_sound_and_mirrors_when_the_letters_swap(seed, resolution):
    # certify stops its descent on a concave bracket: its value must still
    # reach the brute-force lower bound, and the stop must mirror with the
    # letters (the values differ only in their last bits)
    p = _copar_rows(seed, 1)[0]
    assert certify(p, resolution=resolution).value >= brute_force(p, 14).lower * (1 - 1e-12)
    rep = maximize_sturmian(p, resolution, bracket_stop=True)
    mirrored = maximize_sturmian(p.swapped(), resolution, bracket_stop=True)
    assert mirrored.argmax_gamma == 1 - rep.argmax_gamma
    assert mirrored.max_value == pytest.approx(rep.max_value, rel=1e-12)


def test_bracket_stop_takes_few_samples_and_keeps_the_argmax():
    # the 67 co-parallel rows of the 6000-row seed-0 draw: the full descent
    # takes 1027 to 2051 samples at 1/1024
    counts = []
    for p in _copar_rows(0, 67):
        stopped = maximize_sturmian(p, Fraction(1, 1024), bracket_stop=True)
        full = maximize_sturmian(p, Fraction(1, 1024))
        counts.append(len(stopped.grid))
        assert (stopped.argmax_gamma, stopped.max_value) == (full.argmax_gamma, full.max_value)
    assert np.median(counts) <= 40 and max(counts) <= 400
