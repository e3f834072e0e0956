import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pair
from smplab.constructions import (
    Polygon,
    counterexample_family,
    lambert_c,
    polygon_gauge,
    polygon_operator_norm,
    realize_from_tuple,
    symmetrize,
    verify_example,
)
from smplab.jsr import MAX_BRUTE_LEN, brute_force
from smplab.linalg import (
    FiveTuple,
    Mat2,
    MatrixPair,
    five_tuple,
    operator_norm_2,
    spectral_radius,
    word_product,
)
from smplab.regions import classify
from smplab.words import words_with_counts

DIAG_ONES = MatrixPair(Mat2(2, 0, 0, 0.5), Mat2(1, 1, 1, 1))


def _tuples_close(t1, t2, tol=1e-9):
    return all(abs(a - b) <= tol * max(1.0, abs(a)) for a, b in zip(t1, t2))


def test_symmetrize_example():
    sym = symmetrize(DIAG_ONES)
    assert sym.A == Mat2(2, 0, 0, 0.5)
    assert sym.B.a12 == pytest.approx(1.0, rel=1e-12)
    assert sym.B.a11 == pytest.approx(1.0, rel=1e-12)
    assert sym.B.a22 == pytest.approx(1.0, rel=1e-12)
    assert _tuples_close(five_tuple(sym), five_tuple(DIAG_ONES))


def test_symmetrize_idempotent_on_symmetric_input():
    sym = symmetrize(DIAG_ONES)
    again = symmetrize(sym)
    assert again.A.is_symmetric(1e-12) and again.B.is_symmetric(1e-12)
    assert _tuples_close(five_tuple(again), five_tuple(sym))


def test_symmetrize_rejects_non_crossing():
    anti = realize_from_tuple(FiveTuple(3, 3, 1, 1, 1))
    with pytest.raises(ValueError):
        symmetrize(anti)


def test_symmetrize_random_crossing_pairs(rng):
    found = 0
    while found < 50:
        p = random_pair(rng)
        if classify(p).in_cross is not True:
            continue
        found += 1
        sym = symmetrize(p)
        assert sym.A.is_symmetric(1e-9 * sym.A.max_abs())
        assert sym.B.is_symmetric(1e-9 * max(1.0, sym.B.max_abs()))
        assert _tuples_close(five_tuple(sym), five_tuple(p))


def test_symmetrized_products_strictly_submultiplicative(rng):
    # |w(A,B)|_2 < |A|_2^a |B|_2^b for mixed words on symmetric crossing pairs
    found = 0
    while found < 10:
        p = random_pair(rng)
        if classify(p).in_cross is not True:
            continue
        found += 1
        sym = symmetrize(p)
        na, nb = operator_norm_2(sym.A), operator_norm_2(sym.B)
        for k in range(2, 7):
            for i in range(2 ** k):
                w = format(i, f"0{k}b")
                a_count = w.count("0")
                if a_count in (0, k):
                    continue
                bound = na ** a_count * nb ** (k - a_count)
                assert operator_norm_2(word_product(sym, w)) < bound


def test_realize_examples():
    p = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))
    assert p.B.a11 == pytest.approx(3.065247, abs=1e-6)
    assert p.B.a21 == pytest.approx(-1.2, rel=1e-12)
    assert _tuples_close(five_tuple(p), (3, 3, 8, 1, 1))

    ident_tuple = realize_from_tuple(FiveTuple(2, 2, 2, 1, 1))
    assert _tuples_close(five_tuple(ident_tuple), (2, 2, 2, 1, 1))

    with pytest.raises(ValueError):
        realize_from_tuple(FiveTuple(0, 0, 0, 1, 1))


def test_realize_complex_branch():
    t = FiveTuple(1, 1, 5, 1, 1)  # x^2 - 4u < 0
    p = realize_from_tuple(t)
    assert p.A.a12 == -p.A.a21  # scaled-rotation form
    assert _tuples_close(five_tuple(p), t)


def test_realize_jordan_and_swapped_branches():
    jordan = realize_from_tuple(FiveTuple(2, 3, 4, 1, 2))  # x^2 = 4u exactly
    assert _tuples_close(five_tuple(jordan), (2, 3, 4, 1, 2))
    swapped = realize_from_tuple(FiveTuple(2, 3, 8, 1, 1))  # boundary A, usable B
    assert _tuples_close(five_tuple(swapped), (2, 3, 8, 1, 1))
    double = realize_from_tuple(FiveTuple(2, 4, 4, 1, 4))  # both on the boundary
    assert _tuples_close(five_tuple(double), (2, 4, 4, 1, 4))


def test_realize_round_trip_on_random_tuples(rng):
    from smplab.linalg import realizable

    done = 0
    while done < 10_000:
        if done % 2 == 0:
            t = five_tuple(random_pair(rng))  # realizable by construction
        else:
            t = FiveTuple(*(3.0 * rng.standard_normal(5)))
            if not realizable(t):
                continue
        p = realize_from_tuple(t)
        assert _tuples_close(five_tuple(p), t), (t, five_tuple(p))
        done += 1


# one tuple per branch and sign pattern: real A, complex A, swapped,
# Jordan-swapped, Jordan pair, the identity tuple, det A < 0, both complex
_BRANCH_TUPLES = [(3, 3, 8, 1, 1), (1, 3, 1, 1, 1), (2, 3, 8, 1, 1), (2, 3, 4, 1, 2),
                  (2, 4, 5, 1, 4), (2, 2, 2, 1, 1), (3, -2, 1, -1, 2), (1, 1, 3, 1, 1)]


@pytest.mark.parametrize("t", _BRANCH_TUPLES)
def test_realize_keeps_the_invariants_at_every_scale(t):
    # the branch tests once had an absolute floor of 1: at c = 2^-40 the
    # tuple (3c, 3c, 8c^2, c^2, c^2) took the boundary branch, and at large
    # c realizable overflowed and refused the tuple
    x, y, z, u, v = t
    for k in range(-500, 341, 20):
        c = 2.0 ** k
        got = five_tuple(realize_from_tuple(FiveTuple(x * c, y * c, z * c * c,
                                                      u * c * c, v * c * c)))
        unit = (got.x / c, got.y / c, got.z / c / c, got.u / c / c, got.v / c / c)
        assert _tuples_close(t, unit), (k, unit)


def test_lambert_c():
    c = lambert_c()
    assert abs(c * math.exp(c + 1.0) - 1.0) < 1e-13
    assert 0.278 < c < 0.279
    # independent fixed-point iteration for W(1/e): w <- (1/e) e^(-w)
    w = 0.5
    for _ in range(200):
        w = math.exp(-w - 1.0)
    assert abs(w - c) < 1e-12


def test_polygon_gauge_basics():
    fam = counterexample_family(3)
    poly = fam.polygon
    w1 = poly.half_vertices[0]
    assert polygon_gauge(poly, w1) == pytest.approx(1.0, abs=1e-12)
    assert polygon_gauge(poly, (0.5 * w1[0], 0.5 * w1[1])) == \
        pytest.approx(0.5, abs=1e-12)
    w2 = poly.half_vertices[1]
    mid = (0.5 * (w1[0] + w2[0]), 0.5 * (w1[1] + w2[1]))
    assert polygon_gauge(poly, mid) == pytest.approx(1.0, abs=1e-12)
    assert polygon_gauge(poly, (0.0, 0.0)) == 0.0


def test_polygon_operator_norm_basics():
    fam = counterexample_family(2)
    assert polygon_operator_norm(fam.polygon, Mat2.identity()) == \
        pytest.approx(1.0, abs=1e-12)
    assert polygon_operator_norm(fam.polygon, Mat2.identity() * 2.0) == \
        pytest.approx(2.0, abs=1e-12)
    assert polygon_operator_norm(fam.polygon, fam.A) == pytest.approx(1.0, abs=1e-12)
    assert polygon_operator_norm(fam.polygon, fam.B) == pytest.approx(1.0, abs=1e-12)


def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon(((1.0, 0.0),))  # too few vertices
    with pytest.raises(ValueError):
        Polygon(((1.0, 0.0), (2.0, 0.0)))  # collinear through the origin


def test_family_n1_product_identities():
    fam = counterexample_family(1)
    prod = fam.A @ fam.B
    assert prod.trace() == pytest.approx(1.0, abs=1e-12)
    assert prod.det() == pytest.approx(0.0, abs=1e-12)
    assert spectral_radius(prod) == pytest.approx(1.0, abs=1e-12)


def test_family_power_product_fixes_last_vertex():
    for n in (1, 3, 5):
        fam = counterexample_family(n)
        vn = fam.polygon.half_vertices[n]
        power = fam.B
        for _ in range(n):
            power = fam.A @ power  # A^n B
        assert power.apply(vn) == pytest.approx(vn, rel=1e-10)


def test_family_invariants_up_to_8():
    for n in range(1, 9):
        fam = counterexample_family(n)  # constructor re-checks the invariants
        assert fam.polygon.half_vertices[0] == (1.0, 0.0)
        assert len(fam.polygon.half_vertices) == n + 1


def test_family_vertex_transition_structure():
    for n in (1, 2, 4):
        fam = counterexample_family(n)
        poly = fam.polygon
        verts = list(poly.half_vertices)
        # A maps v_0..v_{n-1} onto the next vertex, v_n strictly inside
        for i in range(n):
            image = fam.A.apply(verts[i])
            assert image == pytest.approx(verts[i + 1], rel=1e-12)
        assert polygon_gauge(poly, fam.A.apply(verts[n])) < 1.0 - 1e-6
        # B sends v_n to v_0, everything else within the polygon
        assert fam.B.apply(verts[n]) == pytest.approx(verts[0], rel=1e-12)
        for i in range(n):
            assert polygon_gauge(poly, fam.B.apply(verts[i])) <= 1.0
        # strict support line: no vertex except v_n reaches gauge 1 under B
        for i in range(n):
            assert polygon_gauge(poly, fam.B.apply(verts[i])) < 1.0 - 1e-9


def test_verify_example_small():
    rep1 = verify_example(1, 6)
    assert rep1.ok and rep1.best_word == "01" and rep1.gap > 0
    rep3 = verify_example(3, 10)
    assert rep3.ok and rep3.best_word == "0001"
    with pytest.raises(ValueError):
        verify_example(3, 2)


def test_verify_example_default_length_stays_in_range():
    # 2n + 4 passes MAX_BRUTE_LEN from n = 11 on; the default is capped there
    rep = verify_example(20)
    assert rep.ok and rep.best_word == "0" * 20 + "1"
    assert rep.bounds.max_len == MAX_BRUTE_LEN
    with pytest.raises(ValueError, match="at least n \\+ 1"):
        verify_example(MAX_BRUTE_LEN)


def test_verify_example_perturbation_stability():
    rng = np.random.default_rng(7)
    fam = counterexample_family(2)
    noise = rng.uniform(-1e-4, 1e-4, 8)
    a = Mat2(*(np.array(fam.A.entries()) + noise[:4]))
    b = Mat2(*(np.array(fam.B.entries()) + noise[4:]))
    rho = spectral_radius(a @ a @ b)
    scale = rho ** (-1.0 / 3.0)
    pert = MatrixPair(a * scale, b * scale)
    br = brute_force(pert, 8)
    assert br.best_word == "001"
    assert br.lower == pytest.approx(1.0, abs=1e-9)


def test_family_second_class_strictly_below():
    for n in (1, 2, 3):
        rep = verify_example(n)
        assert rep.gap > 1e-3  # runner-up class is well separated


def test_example_exhaustive_class_check():
    # independent of the necklace scanner: enumerate all words directly,
    # skipping rotations and powers of the optimal class 001
    fam = counterexample_family(2)

    def primitive_root(w):
        for d in range(1, len(w) + 1):
            if len(w) % d == 0 and w == w[:d] * (len(w) // d):
                return w[:d]
        return w

    best_outside = 0.0
    for total in range(1, 8):
        for ones in range(0, total + 1):
            for w in words_with_counts(total - ones, ones):
                root = primitive_root(w)
                if min(root[i:] + root[:i] for i in range(len(root))) == "001":
                    continue
                val = spectral_radius(word_product(fam.pair, w)) ** (1.0 / total)
                best_outside = max(best_outside, val)
    assert best_outside < 1.0 - 1e-3


_CROSSING = [p for p in (MatrixPair(Mat2(*r[:4]), Mat2(*r[4:]))
                         for r in np.random.default_rng(0).standard_normal((200, 8)))
             if classify(p).in_cross is True]


def _invariants_scaled_back(p, c):
    x, y, z, u, v = five_tuple(p)
    return (x / c, y / c, z / c / c, u / c / c, v / c / c)


@pytest.mark.parametrize("c", [1e-5, 1e-20, 1e150])
def test_symmetrize_accepts_crossing_pairs_at_any_scale(c):
    # an absolute margin once refused 68 of these 72 pairs at 1e-5 and all
    # at 1e-20; at 1e150 the commutator quintic overflowed
    assert len(_CROSSING) == 72
    for p in _CROSSING:
        sym = symmetrize(MatrixPair(p.A * c, p.B * c))
        assert _tuples_close(_invariants_scaled_back(sym, c), five_tuple(p))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from(_CROSSING[:12] + [DIAG_ONES]), k=st.integers(-150, 150))
def test_symmetrize_is_scale_covariant(p, k):
    c = 10.0 ** k
    sym = symmetrize(MatrixPair(p.A * c, p.B * c))
    assert _tuples_close(_invariants_scaled_back(sym, c), five_tuple(p))


@pytest.mark.parametrize("c", [1e-5, 1e-8])
def test_symmetrize_accepts_crossing_pairs_whose_matrices_differ_in_scale(c):
    # x^2 - 4u was once measured against the pair's largest entry, not A's
    # own scale: with A alone scaled, 58 of these 72 pairs were refused at
    # 1e-5 and all 72 at 1e-8, though classify calls every one crossing
    for p in _CROSSING:
        q = MatrixPair(p.A * c, p.B)
        assert classify(q).in_cross is True
        x, y, z, u, v = five_tuple(symmetrize(q))
        assert _tuples_close((x / c, y, z / c, u / c / c, v), five_tuple(p))


def test_family_check_over_half_vertices_matches_every_vertex():
    # ExampleFamily checks invariance with polygon_operator_norm, which visits
    # the n + 1 half-vertices: -w maps to -(M w), whose gauge is bitwise that
    # of M w, so a loop over all 2n + 2 vertices reaches the same verdict
    for n in range(1, 41):
        fam = counterexample_family(n)  # raises if the half-vertex check fails
        poly, half = fam.polygon, len(fam.polygon.half_vertices)
        for m in (fam.A, fam.B):
            gauges = [polygon_gauge(poly, m.apply(w)).hex() for w in poly.vertices()]
            assert gauges[half:] == gauges[:half]
            assert max(map(float.fromhex, gauges)) == polygon_operator_norm(poly, m)
            assert all(float.fromhex(g) <= 1.0 + 1e-12 for g in gauges)
