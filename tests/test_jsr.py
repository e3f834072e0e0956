import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_scan
from conftest import conjugated, random_pair
from smplab import jsr, kernels
from smplab.constructions import (
    counterexample_family,
    realize_from_tuple,
)
from smplab.jsr import brute_force, certify, gelfand_scan
from smplab.linalg import (FiveTuple, Mat2, MatrixPair, operator_norm_2,
                           spectral_radius, unit_scaled, word_product)
from smplab.regions import classify

DIAG_ONES = MatrixPair(Mat2(2, 0, 0, 0.5), Mat2(1, 1, 1, 1))


def test_brute_force_pinch():
    br = brute_force(DIAG_ONES, 8)
    assert br.lower == pytest.approx(2.0, abs=1e-12)
    assert br.upper == pytest.approx(2.0, abs=1e-12)
    assert br.best_word == "0"  # tie with "1" broken lexicographically
    assert br.ties == ["0", "1"]


def test_brute_force_copar_tuple():
    p = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))
    br = brute_force(p, 12)
    assert br.best_word == "01"
    assert br.lower == pytest.approx(math.sqrt((8 + math.sqrt(60)) / 2), rel=1e-12)
    assert br.lower == pytest.approx(2.805884, abs=1e-6)


def test_brute_force_length_one():
    for pair in (DIAG_ONES, MatrixPair(Mat2(1, 2, 3, 4), Mat2(0, 1, -1, 0))):
        br = brute_force(pair, 1)
        expect = max(spectral_radius(pair.A), spectral_radius(pair.B))
        assert br.lower == pytest.approx(expect, rel=1e-12)


def test_brute_force_cost_guard():
    with pytest.raises(ValueError):
        brute_force(DIAG_ONES, 25)
    with pytest.raises(ValueError):
        brute_force(DIAG_ONES, 0)


def test_brute_force_rejects_a_negative_or_nan_tie_tol():
    pair = MatrixPair(Mat2(2, 1, 0, 0.5), Mat2(0.3, -1, 1, 0.2))
    for tie_tol in (-1e-3, math.nan):
        with pytest.raises(ValueError, match="tie_tol must be >= 0"):
            brute_force(pair, 8, tie_tol=tie_tol)
    # an infinite band lists every class: 2 + 1 + 2 + 3 + 6 + 9 + 18 + 30
    assert len(brute_force(pair, 8, tie_tol=math.inf).ties) == 71


@pytest.mark.parametrize("max_len", [12.0, True])
def test_brute_force_takes_only_an_int_max_len(max_len):
    with pytest.raises(TypeError, match="max_len must be an int"):
        brute_force(DIAG_ONES, max_len)


# where the pair's norm is subnormal, brute_force's divisor keeps only a few
# bits: the letters' entries stay at most 1, and so their norms at most 2
@pytest.mark.parametrize("scale, norm_bound", [(2.0 ** -1074, 2.0), (1e-300, 1.0 + 1e-12),
                                               (1.0, 1.0 + 1e-12), (1e300, 1.0 + 1e-12)])
def test_brute_force_hands_the_kernels_unit_scaled_letters(
        rng, monkeypatch, scale, norm_bound):
    # the kernels' input contract (kernels.py): their pruning bounds assume it
    norms, entries = [], []
    scan = kernels.scan_classes

    def spy(a, b, max_len, tie_tol):
        norms.append(max(operator_norm_2(Mat2(*a)), operator_norm_2(Mat2(*b))))
        entries.append(max(map(abs, (*a, *b))))
        return scan(a, b, max_len, tie_tol)

    monkeypatch.setattr(kernels, "scan_classes", spy)
    pairs = [random_pair(rng), random_pair(rng),
             MatrixPair(Mat2(0, 0, 0, 0), Mat2(0.3, -1.2, 0.8, 0.5)),
             MatrixPair(Mat2(0, 1, 0, 0), Mat2(0.3, -1.2, 0.8, 0.5))]
    for p in pairs:
        brute_force(MatrixPair(p.A * scale, p.B * scale), 15)
    assert len(norms) == len(pairs)
    assert max(norms) <= norm_bound and max(entries) <= 1.0 + 1e-12


def test_brute_force_rho_words_attain_reported_values(rng):
    for _ in range(20):
        p = random_pair(rng)
        br = brute_force(p, 8)
        for k, st in br.per_length.items():
            rho = spectral_radius(word_product(p, st.rho_word))
            assert rho ** (1.0 / k) == pytest.approx(st.rho_root, rel=1e-9)
        assert br.second_value <= br.lower * (1 + 1e-12)


def test_brute_force_sandwich(rng):
    for _ in range(30):
        p = random_pair(rng)
        br = brute_force(p, 10)
        assert br.lower <= br.upper + 1e-12
        for k in range(1, 6):
            assert br.per_length[2 * k].norm_root <= \
                br.per_length[k].norm_root + 1e-12


def test_brute_force_finds_family_optimum():
    br = brute_force(counterexample_family(2).pair, 8)
    assert br.norm == "euclid"
    assert br.lower == pytest.approx(1.0, abs=1e-10)
    assert br.best_word == "001"


def test_gelfand_nilpotent_power():
    p = MatrixPair(Mat2(0, 1, 0, 0), Mat2(1, 2, 3, 4))
    scan = gelfand_scan(p)
    assert scan.scanned <= 2
    assert scan.terminated
    assert scan.n_star in (0, 1)


def test_gelfand_diag_ones_value():
    scan = gelfand_scan(DIAG_ONES)
    assert scan.value == pytest.approx(2.0, rel=1e-12)
    # closed form rho(A^n B) = 2^n + 2^-n stays below 2^(n+1)
    for n in range(1, 7):
        prod = word_product(DIAG_ONES, "0" * n + "1")
        assert spectral_radius(prod) == pytest.approx(2 ** n + 2.0 ** -n, rel=1e-12)


def test_gelfand_example_family():
    fam = counterexample_family(1)
    scan = gelfand_scan(fam.pair)
    assert scan.n_star == 1
    assert scan.value == pytest.approx(1.0, abs=1e-12)
    assert scan.terminated
    assert scan.word == "01"


def test_gelfand_rejects_zero_matrices():
    zero = Mat2(0, 0, 0, 0)
    with pytest.raises(ValueError):
        gelfand_scan(MatrixPair(zero, Mat2.identity()))
    with pytest.raises(ValueError):
        gelfand_scan(MatrixPair(Mat2.identity(), zero))


def test_gelfand_direction_words():
    p = MatrixPair(Mat2(1, 1, 0, -1), Mat2(2, 0, 0, 0.5))  # det A < 0 < det B
    scan = gelfand_scan(p, "B_pow_A")
    if scan.n_star is not None:
        assert scan.word == "0" + "1" * scan.n_star


# Power scan: repr-identical to the frozen Mat2 loop of tests/reference_scan.py
_SCAN_ROWS = np.random.default_rng(0).standard_normal((20000, 8))
_NILPOTENT = (Mat2(0, 1, 0, 0), Mat2(2, 4, -1, -2))  # rho = 0: P^2 == 0 exactly


def _row_pair(i: int, c: float = 1.0) -> MatrixPair:
    row = _SCAN_ROWS[i] * c
    return MatrixPair(Mat2(*row[:4]), Mat2(*row[4:]))


def _takes_exit(p: MatrixPair, d: str) -> bool:
    """Whether ``gelfand_scan(p, d)`` returns by the closed-form exit."""
    return jsr._power_is_supremum(*jsr._oriented(unit_scaled(p)[0], d))


def _assert_same_scans(p: MatrixPair, caps) -> int:
    """Repr-identical to the reference wherever the closed-form exit declines;
    where it proves rho(P) the supremum, the reference's n_star and value,
    terminated and with nothing scanned.  Returns the number of exit cases."""
    exits = 0
    for d in ("A_pow_B", "B_pow_A"):
        takes_exit = _takes_exit(p, d)
        for cap in caps:
            scan, ref = gelfand_scan(p, d, cap), reference_scan.gelfand_scan(p, d, cap)
            if takes_exit:
                exits += 1
                assert (scan.n_star, scan.value, scan.terminated, scan.scanned) == \
                    (ref.n_star, ref.value, True, 0), (p, d, cap)
            else:
                assert repr(scan) == repr(ref), (p, d, cap)
    return exits


@pytest.mark.parametrize("c", [1.0, 1e-150, 1e150, 1e-310])
def test_gelfand_scan_matches_the_frozen_reference(c):
    # the exit sees the unit-scaled pair, so it closes the same rows at
    # every scale (on raw entries its float screen overflowed or underflowed)
    exits = {i: _assert_same_scans(_row_pair(i, c), (0, 1, 600)) for i in range(40)}
    assert {i: n for i, n in exits.items() if n} == {7: 3, 17: 3, 31: 3, 39: 3}
    for i in (0, 5):  # scans that run to the default cap one way
        assert _assert_same_scans(_row_pair(i, c), (10_000,)) == 0


@pytest.mark.parametrize("row,scanned", [(2362, 1536), (4418, 1152), (15782, 640)])
def test_gelfand_scan_replays_the_powers_it_skipped(row, scanned):
    # terminating past n = 512 reads norms the loop did not take
    p = _row_pair(row)
    assert gelfand_scan(p).scanned == scanned
    _assert_same_scans(p, (10_000,))


def _recorded(monkeypatch, module, name: str, entries) -> list[str]:
    seen = []
    fn = getattr(module, name)

    def wrapper(*args):
        seen.append(repr(entries(*args)))
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize("row,d", [(0, "B_pow_A"), (5, "A_pow_B"), (2362, "A_pow_B")])
def test_gelfand_scan_forms_every_power_as_the_reference_does(monkeypatch, row, d):
    # a GelfandScan rarely shows the last bit of a power, but the matrices
    # handed to rho and |.| do; these scans renormalize, and 2362 replays
    p = _row_pair(row)
    rhos = _recorded(monkeypatch, jsr, "spectral_radius_entries", lambda *e: e)
    norms = _recorded(monkeypatch, jsr, "operator_norm_2", Mat2.entries)
    ref_rhos = _recorded(monkeypatch, reference_scan, "spectral_radius", Mat2.entries)
    ref_norms = _recorded(monkeypatch, reference_scan, "operator_norm_2", Mat2.entries)
    gelfand_scan(p, d)
    reference_scan.gelfand_scan(p, d)
    assert rhos == ref_rhos[1:]  # the reference takes rho(P) through it first
    assert norms[:3] == ref_norms[:3]  # the scale s and |Q|
    assert set(norms[3:]) <= set(ref_norms[3:])


def test_gelfand_scan_matches_the_frozen_reference_on_nilpotent_powers():
    for pm in _NILPOTENT:
        for qm in (Mat2(1, 2, 3, 4), Mat2(0, 0, 1, 0), *_NILPOTENT):
            _assert_same_scans(MatrixPair(pm, qm), (0, 1, 600))


def test_gelfand_scan_takes_norms_only_where_the_tail_test_reads_them(monkeypatch):
    calls = 0

    def counted(m):
        nonlocal calls
        calls += 1
        return operator_norm_2(m)

    monkeypatch.setattr(jsr, "operator_norm_2", counted)
    scan = gelfand_scan(_row_pair(5))  # power-dominated: rho(A) is the supremum
    assert (scan.n_star, scan.terminated, scan.scanned) == (None, False, 10_001)
    assert calls <= 512 + 10_000 // 128 + 4  # one per step before


def test_gelfand_scan_rejects_a_negative_cap():
    p = _row_pair(5)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        gelfand_scan(p, cap=-1)
    assert gelfand_scan(p, cap=0).scanned == 1


@pytest.mark.parametrize("cap", [1.5, True])
def test_gelfand_scan_takes_only_an_int_cap(cap):
    with pytest.raises(TypeError, match="cap must be an int"):
        gelfand_scan(_row_pair(5), cap=cap)


# The closed-form exit: for complex P, gelfand_scan scans nothing when
# sup over phi of rho(R(phi) Q') < rho(P) in P's rotation basis.
_CORPUS = [_row_pair(i) for i in range(1000)]  # default_rng(0), (1000, 8)


def _exit_directions(p: MatrixPair) -> list[str]:
    """Directions of the mixed route that the exit closes: only P with
    det P > 0 can pass, and that is the direction (or one of the two) the
    mixed route scans."""
    if classify(unit_scaled(p)[0]).in_mix is not True:
        return []
    return [d for d in ("A_pow_B", "B_pow_A") if _takes_exit(p, d)]


_EXITS = [p for p in _CORPUS if _exit_directions(p)]


def test_certify_exit_changes_no_answer_and_agrees_with_the_scan(monkeypatch):
    # the reference scans to the default cap and cannot prove the value
    # that the exit proves; it must still find the same n_star and value
    closed = 0
    for p in _EXITS:
        q, _ = unit_scaled(p)
        for d in _exit_directions(p):
            scan, ref = gelfand_scan(q, d), reference_scan.gelfand_scan(q, d)
            assert (scan.n_star, scan.value) == (ref.n_star, ref.value)
            assert (scan.terminated, scan.scanned, ref.terminated) == (True, 0, False)
            closed += 1
    assert closed == len(_EXITS) == 25  # of the corpus's 59 unterminated mixed pairs
    # only the mixed route reaches the exit; both passes scan at most to
    # cap 600, so the exit alone tells them apart
    mixed = [p for p in _CORPUS if classify(unit_scaled(p)[0]).in_mix is True]
    real_scan = jsr.gelfand_scan
    monkeypatch.setattr(jsr, "gelfand_scan", lambda p, d="A_pow_B", cap=10_000:
                        real_scan(p, d, min(cap, 600)))
    with_exit = [repr(certify(p)) for p in mixed]
    monkeypatch.setattr(jsr, "_power_is_supremum", lambda pm, qm: False)
    assert [repr(certify(p)) for p in mixed] == with_exit


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(i=st.integers(0, 24), k=st.integers(-1000, 1000))
def test_gelfand_scan_exit_is_scale_free(i, k):
    # the exit decides on the unit-scaled pair: 2^k p takes it as p does
    p = _EXITS[i]
    t = MatrixPair(p.A * 2.0 ** k, p.B * 2.0 ** k)
    for d in _exit_directions(p):
        ref, scan = gelfand_scan(p, d), gelfand_scan(t, d)
        assert (scan.n_star, scan.terminated, scan.scanned) == \
            (ref.n_star, ref.terminated, ref.scanned) == (None, True, 0)
        assert scan.value == pytest.approx(math.ldexp(ref.value, k), rel=1e-12)


def _transformed(p: MatrixPair, how: str, k: int) -> MatrixPair:
    if how == "swap":
        return p.swapped()
    if how == "transpose":
        return MatrixPair(p.A.transpose(), p.B.transpose())
    return MatrixPair(p.A * 2.0 ** k, p.B * 2.0 ** k)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(i=st.integers(0, 24), how=st.sampled_from(["swap", "transpose", "scale"]),
       k=st.integers(-1000, 1000))
def test_certify_exit_is_sound_and_survives_swap_transpose_and_scale(i, how, k):
    p = _EXITS[i]
    t = _transformed(p, how, k)
    with mock.patch.object(jsr, "spectral_radius_entries",
                           side_effect=AssertionError("scanned")):
        ref, cand = certify(p), certify(t)
    mirrored = {"0": "1", "1": "0"}
    assert cand.word == (mirrored[ref.word] if how == "swap" else ref.word)
    assert cand.certificate == ref.certificate == "mixed-determinants-power-scan-unterminated"
    scale = 2.0 ** k if how == "scale" else 1.0
    assert cand.value / scale == pytest.approx(ref.value, rel=1e-12)
    assert brute_force(t, 14).lower <= cand.value * (1 + 1e-9)


@pytest.mark.parametrize("pm,qm", [
    # mu = r exactly: rotation by pi/2, and rho(Q) = 1 at phi = 0
    (Mat2(0, -1, 1, 0), Mat2(1, 0, 0, -0.5)),
    # mu = r (1 - 1e-8): true, but inside the 1e-6 margin
    (Mat2(0, -1, 1, 0), Mat2(1 - 1e-8, 0, 0, -(1 - 1e-8) / 2)),
    # mu = 2 r, although u t < (u + v)^2 b: t < 4ub (a < 2 r) fails
    (Mat2(0, -1, 1, 0), Mat2(2, 0, 0, 2)),
    # mu = 2 r with a = 0, although u t < (u + v)^2 b: u + v < 0 fails
    (Mat2(0, -1, 1, 0), Mat2(0, 2, 2, 0)),
    # real P, though the inequalities in the invariants hold
    (Mat2(2, 0, 0, 0.5), Mat2(1, 1, 0.5, 1)),
    (Mat2(1, 1, 0, 1), Mat2(0.1, 0, 0, -0.1)),  # repeated eigenvalue, a Jordan block
    (Mat2(2, 0, 0, 2), Mat2(0.1, 0, 0, -0.1)),  # repeated eigenvalue, scalar
])
def test_power_is_supremum_declines_without_a_strict_margin(pm, qm):
    assert not jsr._power_is_supremum(pm, qm)


def test_power_is_supremum_accepts_a_clear_margin():
    pm, qm = Mat2(0, -1, 1, 0), Mat2(0.99, 0, 0, -0.495)  # mu = 0.99 r
    assert jsr._power_is_supremum(pm, qm)
    p = MatrixPair(pm, qm)
    assert classify(p).in_mix is True
    with mock.patch.object(jsr, "spectral_radius_entries",
                           side_effect=AssertionError("scanned")):
        cand = certify(p)
    assert (cand.word, cand.value) == ("0", 1.0)


def test_certify_crossing_tie():
    cand = certify(DIAG_ONES)
    assert cand.certified
    assert cand.certificate == "crossing-single-letter"
    assert cand.word == "0"
    assert cand.ties == ["0", "1"]
    assert cand.value == pytest.approx(2.0, abs=1e-12)
    assert cand.jsr == cand.value


def test_certify_negative_but_crossing():
    p = MatrixPair(Mat2(1, 1, 1, -1), Mat2(1, -1, -1, -1))
    assert (p.A @ p.B - p.B @ p.A).det() == 16.0
    cand = certify(p)
    assert cand.certified
    assert cand.certificate == "crossing-single-letter"
    assert cand.value == pytest.approx(math.sqrt(2), rel=1e-12)


def test_certify_negative_region():
    # similar reflections tilted so the pair is anti-crossing: det(AB-BA) < 0
    p = MatrixPair(Mat2(2, 1, 1, -1), Mat2(2, 0.5, 2, -1))
    assert p.A.det() < 0 and p.B.det() < 0
    cand = certify(p)
    if cand.certified:
        br = brute_force(p, 12)
        assert br.lower <= cand.value * (1 + 1e-9)
        assert cand.value == pytest.approx(br.lower, rel=1e-9)


def test_certify_reducible():
    p = MatrixPair(Mat2(3, 0, 0, 1), Mat2(1, 0, 0, 2))
    cand = certify(p)
    assert cand.certified
    assert cand.certificate == "reducible-triangularizable"
    assert cand.value == 3.0


def test_certify_copar_candidate():
    p = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))
    cand = certify(p)
    assert not cand.certified
    assert cand.certificate == "co-parallel-sturmian-candidate"
    assert cand.word == "01"
    assert cand.lower == pytest.approx(cand.value, rel=1e-9)
    assert cand.lower <= cand.upper


def test_certify_mixed_rotation_degenerate_downgrades():
    # A is twice a quarter rotation: A^4 = 16 I, the power-scan theorem's
    # escape hatch, so no exact certificate may be claimed
    p = MatrixPair(Mat2(0, -2, 2, 0), Mat2(0.5, 0, 0, -0.5))
    cand = certify(p)
    assert not cand.certified
    assert cand.value == pytest.approx(2.0, rel=1e-12)
    assert cand.jsr is None


def test_scaled_reflection_pairs_are_crossing(rng):
    # the negative-determinant reflection escape cannot occur outside the
    # crossing region: exact scaled reflections always cross (or reduce)
    from smplab.regions import classify

    for _ in range(100):
        t1, t2 = rng.uniform(0, math.pi, 2)
        s1, s2 = rng.uniform(0.5, 2.0, 2)
        a = Mat2(s1 * math.cos(t1), s1 * math.sin(t1),
                 s1 * math.sin(t1), -s1 * math.cos(t1))
        b = Mat2(s2 * math.cos(t2), s2 * math.sin(t2),
                 s2 * math.sin(t2), -s2 * math.cos(t2))
        flags = classify(MatrixPair(a, b))
        assert flags.in_cross is True or flags.reducible is not False


def test_certify_soundness_against_brute_force(rng):
    for _ in range(40):
        p = random_pair(rng)
        cand = certify(p)
        if not cand.certified:
            continue
        br = brute_force(p, 10)
        assert br.lower <= cand.value * (1 + 1e-9)
        assert cand.value == pytest.approx(br.lower, rel=1e-9)


def _power_roots_beyond(p, start, count):
    """rho(A^n B)^(1/(n+1)) for n in (start, start+count], scaled safely."""
    import math as _math

    s = max(spectral_radius(p.A), 1.0)
    a = p.A * (1.0 / s)
    b = p.B * (1.0 / s)
    cur = Mat2.identity()
    log_cur = 0.0
    roots = []
    for n in range(start + count + 1):
        if n > start:
            r = spectral_radius(cur @ b)
            if r > 0:
                roots.append(_math.exp((_math.log(r) + log_cur) / (n + 1)) * s)
        cur = cur @ a
        m = cur.max_abs()
        if m == 0.0:
            break
        if m > 1e120 or m < 1e-120:
            cur = cur * (1.0 / m)
            log_cur += _math.log(m)
    return roots


def test_gelfand_tail_certificate_sound(rng):
    # independent oracle: after a terminated scan, no later power root
    # may exceed the reported supremum
    checked = 0
    while checked < 30:
        p = random_pair(rng)
        scan = gelfand_scan(p, "A_pow_B", cap=2000)
        if not scan.terminated:
            continue
        checked += 1
        for root in _power_roots_beyond(p, scan.scanned, 200):
            assert root <= scan.value * (1 + 1e-9)


def test_gelfand_near_defective_transient():
    # a huge transient in the powers must not fool the stopping rule
    p = MatrixPair(Mat2(1.0, 1000.0, 0.0, 0.999), Mat2(0.3, -0.2, 0.4, 0.1))
    scan = gelfand_scan(p, "A_pow_B", cap=5000)
    direct = max(_power_roots_beyond(p, 0, 3000) + [spectral_radius(p.A)])
    assert scan.value == pytest.approx(direct, rel=1e-10)
    if scan.terminated:
        for root in _power_roots_beyond(p, scan.scanned, 500):
            assert root <= scan.value * (1 + 1e-9)


def test_brute_force_deeper_scan_smoke():
    p = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))
    br = brute_force(p, 18)
    assert br.best_word == "01"
    assert br.lower <= br.upper + 1e-12
    assert br.upper < brute_force(p, 10).upper + 1e-12  # bounds tighten


def _scaled(c):
    """A mixed-determinant pair whose bounds once broke below unit norm."""
    return MatrixPair(Mat2(1 * c, 2 * c, 3 * c, -1 * c), Mat2(2 * c, 0, 1 * c, 1 * c))


@pytest.mark.parametrize("c", [1e-20, 1e-200])
def test_small_pairs_keep_their_bounds(c):
    # brute force once scaled only down, so at c = 1e-20 its norms
    # underflowed (upper = 0 < lower) and at 1e-200 its lower bound too
    ref = brute_force(_scaled(1.0), 10)
    br = brute_force(_scaled(c), 10)
    assert br.lower <= br.upper
    assert br.lower / c == pytest.approx(ref.lower, rel=1e-12)
    assert br.upper / c == pytest.approx(ref.upper, rel=1e-12)
    assert br.lower / c == pytest.approx(math.sqrt(7.0), rel=1e-12)
    assert br.best_word == ref.best_word


@pytest.mark.parametrize("c", [1e-20, 1e-200, 1e200])
def test_small_pairs_keep_their_certificate(c):
    # at 1e-200 the determinants underflowed to 0, which sent the mixed
    # route into the non-terminating direction as well
    ref = certify(_scaled(1.0))
    cand = certify(_scaled(c))
    assert cand.certificate == ref.certificate == "mixed-determinants-power-scan"
    assert cand.certified and cand.word == ref.word
    assert cand.value / c == pytest.approx(ref.value, rel=1e-12)
    scan = gelfand_scan(_scaled(c), "B_pow_A")
    assert scan.terminated and scan.value / c == pytest.approx(math.sqrt(7.0), rel=1e-12)


@pytest.mark.parametrize("pair", [_scaled(1.0),
                                  realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))],
                         ids=["mixed", "copar"])
def test_subnormal_pairs_keep_their_route_and_bounds(pair):
    # entries below about 5.6e-309: 1/scale overflowed to inf, so every
    # entry point raised on this finite pair, and letter products of the
    # co-parallel descent underflowed to zero
    c = 1e-310
    tiny = MatrixPair(pair.A * c, pair.B * c)
    assert classify(tiny).in_mix == classify(pair).in_mix
    assert classify(tiny).in_copar == classify(pair).in_copar
    ref, cand = certify(pair), certify(tiny)
    assert cand.certificate == ref.certificate and cand.word == ref.word
    assert cand.value / c == pytest.approx(ref.value, rel=1e-9)
    ref_br, br = brute_force(pair, 12), brute_force(tiny, 12)
    assert br.lower <= br.upper
    assert br.lower / c == pytest.approx(ref_br.lower, rel=1e-9)
    assert br.upper / c == pytest.approx(ref_br.upper, rel=1e-9)
    scan = gelfand_scan(tiny, "B_pow_A")
    assert scan.value / c == pytest.approx(gelfand_scan(pair, "B_pow_A").value, rel=1e-9)


_SCALE_PAIRS = [_scaled(1.0), DIAG_ONES, MatrixPair(Mat2(1, 2, 3, 4), Mat2(0, 1, -1, 0)),
                MatrixPair(Mat2(0.3, -1.2, 0.8, 0.5), Mat2(-0.7, 0.1, 1.9, 0.4))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(_SCALE_PAIRS), k=st.integers(-150, 150),
       max_len=st.integers(1, 10))
def test_brute_force_bounds_are_scale_covariant(pair, k, max_len):
    c = 10.0 ** k
    ref = brute_force(pair, max_len)
    br = brute_force(MatrixPair(pair.A * c, pair.B * c), max_len)
    assert br.lower <= br.upper
    assert br.lower / c == pytest.approx(ref.lower, rel=1e-12)
    assert br.upper / c == pytest.approx(ref.upper, rel=1e-12)


# Metamorphic properties: swapping A and B, transposing both and
# simultaneous conjugation leave the JSR, its brute-force lower bound and
# every certified value unchanged; swapping and transposing also keep the
# set of product norms, hence the upper bound.
_META = settings(max_examples=50, deadline=None, derandomize=True, database=None)
_ENTRY = st.floats(-4.0, 4.0, allow_subnormal=False)
_MAT = st.builds(Mat2, _ENTRY, _ENTRY, _ENTRY, _ENTRY)


@st.composite
def _generic_pairs(draw):
    """Pairs with iid N(0,1) entries from a drawn seed.

    Conjugation rounds every entry, and a defective product (a nilpotent
    letter, a Jordan block) has eigenvalues that move by about sqrt(eps)
    under such rounding; a generic pair has none.
    """
    e = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(8)
    return MatrixPair(Mat2(*e[:4]), Mat2(*e[4:]))


@st.composite
def _conjugators(draw):
    """R(t1) diag(s, 1) R(t2): singular values s and 1, so cond = s <= 10."""
    t1, t2 = draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(0.0, 2 * math.pi))
    s = draw(st.floats(1.0, 10.0))
    r1 = Mat2(math.cos(t1), -math.sin(t1), math.sin(t1), math.cos(t1))
    r2 = Mat2(math.cos(t2), -math.sin(t2), math.sin(t2), math.cos(t2))
    return r1 @ Mat2(s, 0.0, 0.0, 1.0) @ r2


def _certify(p):
    return certify(p, resolution=Fraction(1, 64))


def _assert_same_certified_value(ref, cand):
    if ref.certified and cand.certified:
        assert cand.value == pytest.approx(ref.value, rel=1e-9)


@_META
@given(p=st.builds(MatrixPair, _MAT, _MAT), max_len=st.integers(1, 10))
def test_bounds_and_certificate_survive_swap_and_transpose(p, max_len):
    ref, ref_cert = brute_force(p, max_len), _certify(p)
    for q in (p.swapped(), MatrixPair(p.A.transpose(), p.B.transpose())):
        br = brute_force(q, max_len)
        assert br.lower == pytest.approx(ref.lower, rel=1e-12)
        assert br.upper == pytest.approx(ref.upper, rel=1e-12)
        _assert_same_certified_value(ref_cert, _certify(q))


@pytest.mark.xfail(strict=True, reason="the closed-form norm sqrt((t + sqrt(t^2 - 4 d^2)) "
                   "/ 2) loses about half its digits when the singular values nearly "
                   "coincide")
def test_upper_bound_survives_transpose_when_singular_values_coincide():
    # found by the property above at 1000 examples: B^2 is nearly 0.75 I,
    # so t^2 - 4 d^2 cancels in the norm of B^4 and the two associations
    # of that product give norm roots 7e-11 apart (the exact one between)
    p = MatrixPair(Mat2(0.0, 0.0, 0.0, 0.0), Mat2(0.0, 1.5, 0.5, 5.960464477539063e-08))
    t = MatrixPair(p.A.transpose(), p.B.transpose())
    assert brute_force(t, 4).upper == pytest.approx(brute_force(p, 4).upper, rel=1e-12)


@_META
@given(p=_generic_pairs(), g=_conjugators(), max_len=st.integers(1, 10))
def test_lower_bound_and_certificate_survive_conjugation(p, g, max_len):
    q = conjugated(p, g)
    assert brute_force(q, max_len).lower == \
        pytest.approx(brute_force(p, max_len).lower, rel=1e-12)
    _assert_same_certified_value(_certify(p), _certify(q))


# Scale: a pair and c times it get the same route, word and ties.
_SEEDED = [MatrixPair(Mat2(*r[:4]), Mat2(*r[4:]))
           for r in np.random.default_rng(0).standard_normal((200, 8))]


def test_certify_keeps_route_and_word_at_extreme_scales():
    # every route once compared with absolute tolerances: 65 certificates
    # changed at 1e-150, and the negative route raised above about 1e154
    opts = {"brute_len": 8, "resolution": Fraction(1, 64)}
    ref = [certify(p, **opts) for p in _SEEDED]
    for c in (1e-200, 1e-150, 1e155, 1e200):
        for p, r in zip(_SEEDED, ref):
            cand = certify(MatrixPair(p.A * c, p.B * c), **opts)
            assert (cand.certificate, cand.word, cand.ties) == \
                (r.certificate, r.word, r.ties), (c, p)


def test_brute_force_ties_are_relative_to_the_pair_scale():
    # an absolute tie_tol once made every class a tie for a small pair
    p = MatrixPair(Mat2(2, 1, 0, 1.5), Mat2(0.5, 0, 1, 1))
    c = 1e-20
    ref = brute_force(p, 10)
    br = brute_force(MatrixPair(p.A * c, p.B * c), 10)
    assert br.ties == ref.ties == [ref.best_word]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(_SCALE_PAIRS + _SEEDED[:12]), k=st.integers(-150, 150))
def test_certify_is_scale_covariant(pair, k):
    c = 10.0 ** k
    ref = certify(pair, resolution=Fraction(1, 64))
    cand = certify(MatrixPair(pair.A * c, pair.B * c), resolution=Fraction(1, 64))
    assert (cand.certificate, cand.word) == (ref.certificate, ref.word)
    if ref.certified and cand.certified:
        assert cand.value / c == pytest.approx(ref.value, rel=1e-12)


def test_certify_checks_brute_len_and_resolution_on_every_route():
    # the routes that use neither argument check them too
    routes = {certify(p).certificate: p for p in _CORPUS[:60]}
    reducible = MatrixPair(Mat2(2, 1, 0, 0.5), Mat2(1, 3, 0, -1))
    routes[certify(reducible).certificate] = reducible
    assert {"reducible-triangularizable", "crossing-single-letter", "brute-force-only",
            "negative-determinants-short-list"} <= routes.keys()
    for p in routes.values():
        with pytest.raises(ValueError, match="brute_len must be in 1..24, got 0"):
            certify(p, brute_len=0)
        with pytest.raises(TypeError, match="brute_len must be an int"):
            certify(p, brute_len=12.0)
        for resolution in (Fraction(0), -0.5, math.nan):
            with pytest.raises(ValueError, match="resolution must be positive"):
                certify(p, resolution=resolution)
