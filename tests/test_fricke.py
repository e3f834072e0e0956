import random

import pytest

from conftest import random_pair
from smplab.fricke import (
    Poly5,
    evaluate,
    fricke_poly,
    monomial_at_uv0,
)
from smplab.linalg import Mat2, MatrixPair, five_tuple, word_product
from smplab.words import cyclic_rotations, is_primitive


def _poly(terms):
    return Poly5(terms)


def _verify_reduction_table(seed: int = 12345, tol: float = 1e-9) -> float:
    """Numeric spot-check of every reduction row against random matrices.

    Returns the largest relative deviation found; raises AssertionError
    beyond ``tol``.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(8):
        a = Mat2(*(rng.gauss(0, 1) for _ in range(4)))
        b = Mat2(*(rng.gauss(0, 1) for _ in range(4)))
        x, y, z, u, v = five_tuple(MatrixPair(a, b))
        i2 = Mat2.identity()
        ab = a @ b
        rows = [
            (a @ a, x * a - u * i2),
            (b @ b, y * b - v * i2),
            (b @ a, x * b + y * a + (z - x * y) * i2 - ab),
            (a @ ab, x * ab - u * b),
            (ab @ a, z * a + u * b - (u * y) * i2),
            (b @ ab, v * a + z * b - (v * x) * i2),
            (ab @ b, y * ab - v * a),
            (ab @ ab, z * ab - (u * v) * i2),
        ]
        for lhs, rhs in rows:
            scale = max(1.0, lhs.max_abs())
            dev = (lhs - rhs).max_abs() / scale
            worst = max(worst, dev)
    assert worst <= tol, f"reduction table deviates by {worst:.3e}"
    return worst


def test_reduction_table_numeric():
    assert _verify_reduction_table(seed=99, tol=1e-10) <= 1e-10


def test_single_letters():
    assert fricke_poly("0") == _poly({(1, 0, 0, 0, 0): 1})
    assert fricke_poly("1") == _poly({(0, 1, 0, 0, 0): 1})
    assert fricke_poly("01") == _poly({(0, 0, 1, 0, 0): 1})
    assert fricke_poly("01").format() == "z"


def test_word_0011_closed_form():
    # tr(A^2 B^2) = xyz - u y^2 - v x^2 + 2uv
    expected = _poly({
        (1, 1, 1, 0, 0): 1,
        (0, 2, 0, 1, 0): -1,
        (2, 0, 0, 0, 1): -1,
        (0, 0, 0, 1, 1): 2,
    })
    assert fricke_poly("0011") == expected


def test_evaluate_examples():
    t = (3, 3, 8, 1, 1)
    assert evaluate(fricke_poly("0"), t) == 3.0
    assert evaluate(fricke_poly("01"), t) == 8.0
    assert evaluate(fricke_poly("0011"), t) == 56.0


def test_evaluate_exact_integer_accumulation():
    # big integer tuple: float-first evaluation would lose digits
    t = (10**8, 3, 7, 2, 5)
    val = evaluate(fricke_poly("0011"), t)
    exact = 3 * 7 * 10**8 - 2 * 9 - 5 * 10**16 + 2 * 10
    assert val == float(exact)


def test_monomial_examples():
    assert monomial_at_uv0("0011") == _poly({(1, 1, 1, 0, 0): 1})
    assert monomial_at_uv0("01") == _poly({(0, 0, 1, 0, 0): 1})
    assert monomial_at_uv0("0010") == _poly({(2, 0, 1, 0, 0): 1})
    with pytest.raises(ValueError):
        monomial_at_uv0("0101")


def test_cyclic_invariance_as_polynomials():
    words = [format(i, f"0{k}b") for k in range(1, 7) for i in range(2 ** k)]
    for w in words:
        if not is_primitive(w):
            continue
        base = fricke_poly(w)
        for rot in cyclic_rotations(w):
            assert fricke_poly(rot) == base


def test_degree_bound():
    for k in range(1, 9):
        for i in range(2 ** k):
            w = format(i, f"0{k}b")
            assert fricke_poly(w).total_degree() <= k


def test_numeric_agreement(rng):
    words = [format(i, f"0{k}b") for k in range(1, 7) for i in range(2 ** k)]
    polys = {w: fricke_poly(w) for w in words}
    for _ in range(25):
        p = random_pair(rng)
        t = five_tuple(p)
        for w, poly in polys.items():
            tr = word_product(p, w).trace()
            assert evaluate(poly, t) == pytest.approx(tr, rel=1e-8, abs=1e-8)


def test_rejects_bad_words():
    with pytest.raises(ValueError):
        fricke_poly("")
    with pytest.raises(ValueError):
        fricke_poly("012")


def test_poly_format_deterministic():
    s = fricke_poly("0011").format()
    assert s == "-y^2 u + x y z - x^2 v + 2 u v"
