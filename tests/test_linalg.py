import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import conjugated, random_pair
from smplab.constructions import realize_from_tuple, symmetrize
from smplab.jsr import brute_force, certify, gelfand_scan
from smplab.linalg import (
    FiveTuple,
    Mat2,
    MatrixPair,
    Reducibility,
    SpectrumKind,
    commutator_invariant,
    commutator_matrix,
    five_tuple,
    is_reducible,
    operator_norm_2,
    realizable,
    renormalized,
    scaled_word_product,
    spectral_radius,
    spectrum,
    unit_scaled,
    word_product,
)
from smplab.regions import classify, geometric_oracle
from smplab.sturmian import (copar_gap, lyapunov_irrational, lyapunov_rational,
                             maximize_sturmian)

DIAG = Mat2(2, 0, 0, 0.5)
ONES = Mat2(1, 1, 1, 1)
PAIR = MatrixPair(DIAG, ONES)


def test_spectrum_diagonal():
    sp = spectrum(DIAG)
    assert sp.kind is SpectrumKind.REAL_DISTINCT
    assert sp.rho == 2.0
    assert sp.eigenvalues == (2.0, 0.5)


def test_spectrum_rotation():
    sp = spectrum(Mat2(0, -1, 1, 0))
    assert sp.kind is SpectrumKind.COMPLEX_CONJUGATE
    assert sp.rho == 1.0
    assert sp.eigenvalues is None


def test_spectrum_trace8_det1():
    m = Mat2(8, -1, 1, 0)  # trace 8, det 1
    sp = spectrum(m)
    assert sp.kind is SpectrumKind.REAL_DISTINCT
    assert sp.rho == pytest.approx((8 + math.sqrt(60)) / 2, rel=1e-14)
    assert sp.rho == pytest.approx(7.872983, abs=1e-6)


def test_spectrum_repeated_tolerance():
    sp = spectrum(Mat2(1, 1, 0, 1 + 1e-14))
    assert sp.kind is SpectrumKind.REAL_REPEATED


def test_operator_norm_examples():
    assert operator_norm_2(DIAG) == 2.0
    assert operator_norm_2(Mat2(0, -3, 0, 0)) == 3.0
    assert operator_norm_2(ONES) == pytest.approx(2.0, rel=1e-15)


def test_five_tuple_examples():
    assert five_tuple(PAIR) == pytest.approx((2.5, 2, 2.5, 1, 0))
    ident = Mat2.identity()
    assert five_tuple(MatrixPair(ident, ident)) == pytest.approx((2, 2, 2, 1, 1))
    uni = MatrixPair(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1))
    assert five_tuple(uni) == pytest.approx((2, 2, 3, 1, 1))


def test_word_product_examples():
    assert word_product(PAIR, "0") == DIAG
    assert word_product(PAIR, "01") == Mat2(2, 2, 0.5, 0.5)
    assert word_product(PAIR, "0011") == DIAG @ DIAG @ ONES @ ONES
    with pytest.raises(ValueError):
        word_product(PAIR, "")


def test_scaled_word_product_matches_plain(rng):
    for _ in range(20):
        p = random_pair(rng)
        word = "".join(rng.choice(["0", "1"], size=6))
        plain = word_product(p, word)
        scaled, logscale = scaled_word_product(p, word)
        factor = math.exp(logscale)
        assert scaled.max_abs() * factor == pytest.approx(plain.max_abs(), rel=1e-12)


def test_commutator_examples():
    rep = commutator_invariant(PAIR)
    assert rep.value == pytest.approx(9 / 4, rel=1e-14)
    a = Mat2(1, 2, 3, 4)
    assert commutator_invariant(MatrixPair(a, a @ a)).value == pytest.approx(0, abs=1e-12)
    uni = MatrixPair(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1))
    assert commutator_invariant(uni).value == pytest.approx(-1.0, rel=1e-14)


def test_commutator_expression_agreement(rng):
    for _ in range(2000):
        p = random_pair(rng)
        rep = commutator_invariant(p)
        x, y, z, u, v = five_tuple(p)
        scale = max(1.0, abs(4 * u * v), abs(u * y * y), abs(v * x * x),
                    abs(x * y * z), z * z)
        vals = [rep.expressions[k] for k in
                ("five_tuple_poly", "commutator_det", "disc_window", "power_traces")]
        if min(abs(u), abs(v)) > 1e-6:
            vals.append(rep.expressions["inverse_form"])
        assert max(vals) - min(vals) <= 1e-9 * scale


def test_reducibility_examples():
    d1 = MatrixPair(Mat2(1, 0, 0, 2), Mat2(3, 0, 0, 4))
    assert is_reducible(d1).verdict is Reducibility.REDUCIBLE
    rep = is_reducible(PAIR, 1e-9)
    assert rep.verdict is Reducibility.IRREDUCIBLE
    assert rep.margin == pytest.approx(9 / 64, rel=1e-12)
    ident = MatrixPair(Mat2.identity(), Mat2(4, -1, 3, 7))
    assert is_reducible(ident).verdict is Reducibility.REDUCIBLE


def test_reducibility_indeterminate():
    eps = 1e-12
    p = MatrixPair(Mat2(1, eps, 0, 1), Mat2(1, 0, 1, 1))
    rep = is_reducible(p, 1e-9)
    assert rep.verdict is Reducibility.INDETERMINATE
    assert rep.margin != 0.0


def test_realizable_examples():
    assert realizable(FiveTuple(3, 3, 8, 1, 1))
    assert not realizable(FiveTuple(0, 0, 0, 1, 1))
    assert realizable(FiveTuple(2, 2, 2, 1, 1))


@pytest.mark.parametrize("k", [-500, -300, 300, 500])
def test_realizable_at_any_scale(k):
    # squares of the raw invariants once overflowed: (1, 3, 1, 1, 1) with
    # both matrices times 2^300 read as not realizable
    c = 2.0 ** k
    for t, expect in (((1, 3, 1, 1, 1), True), ((3, 3, 8, 1, 1), True),
                      ((0, 0, 0, 1, 1), False), ((1, 1, 0.2, 1, 1), False)):
        x, y, z, u, v = t
        assert realizable(FiveTuple(x * c, y * c, z * c * c, u * c * c, v * c * c)) is expect
        assert realizable(FiveTuple(x * c, y, z * c, u * c * c, v)) is expect  # A alone


def test_det_sum_identity(rng):
    for _ in range(2000):
        p = random_pair(rng)
        x, y, z, u, v = five_tuple(p)
        lhs = (p.A + p.B).det() + z
        rhs = u + v + x * y
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs), abs(z))


def test_rank_one_multiplicative_trace(rng):
    for _ in range(2000):
        e = rng.standard_normal(12)
        xm, ym = Mat2(*e[:4]), Mat2(*e[4:8])
        zm = Mat2(e[8] * e[10], e[8] * e[11], e[9] * e[10], e[9] * e[11])
        lhs = (xm @ zm @ ym @ zm).trace()
        rhs = (xm @ zm).trace() * (ym @ zm).trace()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_five_tuple_conjugation_invariant(rng):
    for _ in range(1000):
        p = random_pair(rng)
        g = Mat2(*rng.standard_normal(4))
        if abs(g.det()) < 0.1:
            continue
        t1 = five_tuple(p)
        t2 = five_tuple(conjugated(p, g))
        for a, b in zip(t1, t2):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_rho_below_norm_and_symmetric_equality(rng):
    for _ in range(2000):
        m = Mat2(*rng.standard_normal(4))
        assert spectral_radius(m) <= operator_norm_2(m) * (1 + 1e-12)
    for _ in range(500):
        e = rng.standard_normal(3)
        sym = Mat2(e[0], e[1], e[1], e[2])
        assert spectral_radius(sym) == pytest.approx(operator_norm_2(sym), rel=1e-10)


NON_FINITE = [((1, 2, 3, math.inf), "a22", "inf"),
              ((math.nan, 0, 0, 1), "a11", "nan"),
              ((0, -math.inf, 0, 1), "a12", "-inf")]


def test_matrix_pair_rejects_non_finite():
    # a pair is where input is checked: every analysis takes one
    for entries, name, shown in NON_FINITE:
        message = f"^matrix entry {name} is not finite: {shown}$"
        with pytest.raises(ValueError, match=message):
            MatrixPair(Mat2(*entries), Mat2.identity())
        with pytest.raises(ValueError, match=message):
            MatrixPair(Mat2.identity(), Mat2(*entries))
        with pytest.raises(ValueError, match=message):
            MatrixPair.from_json_dict({"A": [[1, 0], [0, 1]],
                                       "B": [entries[:2], entries[2:]]})


def test_mat2_is_a_plain_ieee_value():
    # a bare Mat2 holds what it is given, and its arithmetic follows IEEE
    for entries, name, shown in NON_FINITE:
        m = Mat2(*entries)
        assert m.entries() == entries
        assert math.isnan(spectral_radius(m)) and math.isnan(operator_norm_2(m))
        assert math.isnan(spectrum(m).rho)
        with pytest.raises(ValueError, match=f"^matrix entry {name} is not finite: {shown}$"):
            m.checked()
    big = Mat2(1e200, 0.0, 0.0, 1.0)
    assert (big @ big).entries() == (math.inf, 0.0, 0.0, 1.0)
    checked = Mat2(1, 2, 3, 4).checked()
    assert checked == Mat2(1.0, 2.0, 3.0, 4.0)
    assert all(type(x) is float for x in checked.entries())


def test_matrix_pair_rejects_non_numeric_entries():
    # float() takes "2", " 1 ", b"1" and the booleans, but they are not numbers
    for raw in ("x", "2", " 1 ", b"1", True, False, np.True_):
        message = f"^matrix entry a12 is not a number: {re.escape(repr(raw))}$"
        with pytest.raises(ValueError, match=message):
            MatrixPair.from_json_dict({"A": [[1, raw], [0, 1]], "B": [[1, 0], [0, 1]]})
    numbers = MatrixPair(Mat2(np.float32(0.5), np.int64(2), 3, 0.25), Mat2.identity())
    assert numbers.A == Mat2(0.5, 2.0, 3.0, 0.25)
    with pytest.raises(ValueError, match=r"^matrix entry a12 is not a number: None$"):
        MatrixPair.from_json_dict({"A": [[1, None], [0, 1]], "B": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError, match=r"^matrix entry a21 is not a number: \[0\]$"):
        MatrixPair.from_json_dict({"A": [[1, 0], [[0], 1]], "B": [[1, 0], [0, 1]]})


def test_pair_json_round_trip():
    obj = PAIR.to_json_dict()
    assert obj == {"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}
    assert MatrixPair.from_json_dict(obj) == PAIR


def test_five_tuple_json_round_trip():
    t = five_tuple(PAIR)
    obj = t.to_json_dict()
    assert obj == {"x": 2.5, "y": 2.0, "z": 2.5, "u": 1.0, "v": 0.0}
    assert FiveTuple.from_json_dict(obj) == t


def test_extreme_scale_robustness():
    big = MatrixPair(Mat2(2e200, 0, 0, 0.5e200), Mat2(1e-180, 1e-180, 1e-180, 1e-180))
    assert spectral_radius(big.A) == pytest.approx(2e200, rel=1e-12)
    assert operator_norm_2(big.A) == pytest.approx(2e200, rel=1e-12)
    assert operator_norm_2(big.B) == pytest.approx(2e-180, rel=1e-12)
    sp = spectrum(big.A)
    assert sp.kind is SpectrumKind.REAL_DISTINCT
    assert sp.eigenvalues == pytest.approx((2e200, 0.5e200), rel=1e-12)
    assert is_reducible(big).verdict is Reducibility.IRREDUCIBLE
    tiny = Mat2(2e-310, 0, 0, 0.5e-310)  # 1/2e-310 overflows to inf
    assert spectral_radius(tiny) == pytest.approx(2e-310, rel=1e-9)
    assert operator_norm_2(tiny) == pytest.approx(2e-310, rel=1e-9)


def test_unit_scaled_is_an_exact_power_of_two_step():
    p = MatrixPair(Mat2(1.5, -0.25, 0.0, 1.0), Mat2(0.5, 1.25, -1.75, 0.125))
    assert unit_scaled(p) == (p, 0) and unit_scaled(p)[0] is p
    zero = MatrixPair(Mat2(0, 0, 0, 0), Mat2(0, 0, 0, 0))
    assert unit_scaled(zero) == (zero, 0)
    for k in (-1074 + 3, -300, -1, 1, 52, 900):
        big = MatrixPair(p.A.ldexp(k), p.B.ldexp(k))
        assert unit_scaled(big) == (p, k)
    q, e = unit_scaled(MatrixPair(Mat2(3e-310, 0, 0, 0), Mat2(0, -7e300, 0, 0)))
    assert e == 999 and q.B.a12 == math.ldexp(-7e300, -999)
    assert q.A.a11 == 0.0  # 2^1022 times below the largest: the one inexact case


def test_renormalized_keeps_the_product_and_its_log():
    m = Mat2(3.0, -1.0, 0.5, 2.0)
    assert renormalized(m, 0.25) == (m, 0.25)
    assert renormalized(Mat2(0, 0, 0, 0), 1.0) == (Mat2(0, 0, 0, 0), 1.0)
    for s in (1e130, 1e-130):
        out, log = renormalized(m * s, 0.5)
        assert out.max_abs() == 1.0
        assert log == pytest.approx(0.5 + math.log(3.0 * s), rel=1e-15)
        assert out.a12 * math.exp(log - 0.5) == pytest.approx(-s, rel=1e-13)


def test_is_reducible_answers_from_classify():
    verdicts = {True: Reducibility.REDUCIBLE, False: Reducibility.IRREDUCIBLE,
                None: Reducibility.INDETERMINATE}
    near = MatrixPair(Mat2(2, 0, 0, 1), Mat2(1, 1e-6, 1e-6, 1))
    zero = MatrixPair(Mat2(0, 0, 0, 0), Mat2(1, 2, 3, 4))
    rng = np.random.default_rng(8)
    pairs = [near, zero] + [random_pair(rng) for _ in range(50)]
    for p in pairs:
        for tol in (0.0, 1e-9, 1e-3):
            rep, flags = is_reducible(p, tol), classify(p, tol)
            assert rep.verdict is verdicts[flags.reducible]
            assert rep.margin == flags.margins["commutator"]
    assert is_reducible(near, 1e-9).verdict is Reducibility.INDETERMINATE
    assert is_reducible(near, 0.0).verdict is Reducibility.IRREDUCIBLE
    assert is_reducible(zero, 0.0).verdict is Reducibility.REDUCIBLE


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_is_reducible_rejects_nan_or_negative_tol(tol):
    # a NaN tol once answered IRREDUCIBLE for a margin inside tolerance
    with pytest.raises(ValueError):
        is_reducible(MatrixPair(Mat2(2, 0, 0, 1), Mat2(1, 1e-6, 1e-6, 1)), tol)


# Every public function that takes a MatrixPair, with fixed extra arguments.
# maximize_sturmian is pinned by its grid: its argmax is checked elsewhere.
PAIR_FUNCTIONS = {
    "linalg.five_tuple": lambda p: five_tuple(p),
    "linalg.word_product": lambda p: word_product(p, "0011"),
    "linalg.unit_scaled": lambda p: unit_scaled(p),
    "linalg.scaled_word_product": lambda p: scaled_word_product(p, "0011"),
    "linalg.commutator_matrix": lambda p: commutator_matrix(p),
    "linalg.commutator_invariant": lambda p: commutator_invariant(p),
    "linalg.is_reducible": lambda p: is_reducible(p),
    "regions.classify": lambda p: classify(p),
    "regions.geometric_oracle": lambda p: geometric_oracle(p),
    "jsr.brute_force": lambda p: brute_force(p, 8),
    "jsr.gelfand_scan": lambda p: gelfand_scan(p),
    "jsr.certify": lambda p: certify(p, resolution=Fraction(1, 64)),
    "sturmian.lyapunov_rational": lambda p: lyapunov_rational(p, 2, 5),
    "sturmian.lyapunov_irrational": lambda p: lyapunov_irrational(p, 0.381966, 6),
    "sturmian.maximize_sturmian": lambda p: maximize_sturmian(p, Fraction(1, 64)).grid,
    "sturmian.copar_gap": lambda p: copar_gap(p),
    "constructions.symmetrize": lambda p: symmetrize(p),
}


def _overflow_probe_lines() -> list[str]:
    """One line per (pair, function): the repr it returns or the class it raises."""
    copar = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))
    pairs = {"both-1e200": MatrixPair(copar.A * 1e200, copar.B * 1e200),
             "A-1e200-B-1e-200": MatrixPair(copar.A * 1e200, copar.B * 1e-200)}
    lines = []
    for pair_name, p in pairs.items():
        for name, fn in PAIR_FUNCTIONS.items():
            try:
                outcome = f"returns {fn(p)!r}"
            except Exception as exc:  # noqa: BLE001 - the class is the outcome
                outcome = f"raises {type(exc).__name__}"
            lines.append(f"{pair_name} {name} {outcome}\n")
    return lines


def test_overflow_probe_covers_every_public_pair_function():
    import importlib
    import inspect

    found = set()
    for module in ("linalg", "regions", "jsr", "sturmian", "constructions"):
        mod = importlib.import_module(f"smplab.{module}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and any(
                    "MatrixPair" in str(prm.annotation)
                    for prm in inspect.signature(fn).parameters.values()):
                found.add(f"{module}.{name}")
    assert found == set(PAIR_FUNCTIONS)


def test_pair_functions_keep_their_overflow_outcome():
    # golden/overflow_probe.txt: the (3,3,8,1,1) pair scaled by 1e200, and
    # with A times 1e200 and B times 1e-200, where products of the unscaled
    # matrices overflow; a function returns the same value or raises the
    # same exception class as when every Mat2 checked its own entries
    expected = (Path(__file__).parent / "golden" / "overflow_probe.txt").read_text()
    assert "".join(_overflow_probe_lines()) == expected
