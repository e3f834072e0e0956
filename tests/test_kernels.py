import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels
from conftest import random_pair
from smplab import kernels
from smplab.linalg import Mat2, MatrixPair, operator_norm_2
from smplab.words import lyndon_codes


def test_norm_profile_suffix_batching_consistent(rng):
    # lengths above the suffix threshold go through the prefix-batch path
    p = random_pair(rng)
    a = tuple(0.3 * e for e in p.A.entries())
    b = tuple(0.3 * e for e in p.B.entries())
    prof = kernels.norm_profile(a, b, 16)
    short = kernels.norm_profile(a, b, 14)
    for k in range(1, 15):
        assert prof[k] == pytest.approx(short[k], rel=1e-12)


def test_scan_single_length():
    out = kernels.scan_classes((2, 0, 0, 0.5), (1, 1, 1, 1), 1, 1e-9)
    assert out[0][1] == pytest.approx(2.0)
    assert out[1][1] == "0"
    assert out[2][1] == pytest.approx(2.0)  # the class "1" also has rho 2


def _prescaled(pair, scale=1.0):
    """Entries as jsr.brute_force hands them to the kernels."""
    s = max(operator_norm_2(pair.A), operator_norm_2(pair.B)) / scale
    return (pair.A * (1.0 / s)).entries(), (pair.B * (1.0 / s)).entries()


def _assert_matches_reference(a, b, max_len, tie_tol=1e-9):
    assert repr(kernels.scan_classes(a, b, max_len, tie_tol)) == \
        repr(reference_kernels.scan_classes(a, b, max_len, tie_tol))
    assert repr(kernels.norm_profile(a, b, max_len)) == \
        repr(reference_kernels.norm_profile(a, b, max_len))


def test_kernels_bit_identical_to_frozen_reference(rng):
    # max_len > 14 takes the prefix-lookup paths of both kernels
    for max_len in [*range(1, 19), *range(1, 19)]:
        _assert_matches_reference(*_prescaled(random_pair(rng)), max_len)


def test_kernels_bit_identical_on_ties_zeros_and_unscaled_input(rng):
    cases = [
        ((2, 0, 0, 0.5), (1, 1, 1, 1)),        # exact tie of "0" and "1"
        ((0, 1, 0, 0), (0, 0, -1, 0)),         # nilpotent letters, signed zeros
        ((0.0, -0.0, 0.5, 0.0), (-0.0, 1, 0, -0.0)),
        _prescaled(random_pair(rng), scale=0.7),
        tuple(random_pair(rng).A.entries() for _ in range(2)),  # norms above 1
    ]
    for a, b in cases:
        for max_len in (1, 6, 15):
            _assert_matches_reference(a, b, max_len, tie_tol=1e-6)


# Words longer than the 14-letter tree go through the pruned paths of both
# kernels (kernels.py, "Pruning"): these cases aim at the bounds' weak spots.
_C, _S = math.cos(0.7), math.sin(0.7)


def _dyadic(pair):
    """Entries scaled by a power of two to norms at most 1: exact."""
    s = 2.0 ** -math.ceil(math.log2(max(operator_norm_2(pair.A), operator_norm_2(pair.B))))
    return (pair.A * s).entries(), (pair.B * s).entries()


_DEEP_CASES = {
    # B^2 is nearly 0.75 I: t^2 - 4 d^2 cancels in the norms (ROADMAP item 9)
    "coincident-singular-values": (
        *_prescaled(MatrixPair(Mat2(0, 0, 0, 0), Mat2(0, 1.5, 0.5, 5.96e-8))), 1e-9),
    # every product has norm 1 and every class ties: nothing prunes
    "orthogonal": ((_C, -_S, _S, _C), (0, 1, -1, 0), 1e-9),
    "nilpotent": (*_prescaled(MatrixPair(Mat2(0, 1, 0, 0), Mat2(0.3, -1.2, 0.8, 0.5))), 1e-9),
    # B = J A J with exact products: a word and its letter swap tie exactly
    "integer-ties": (*_dyadic(MatrixPair(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1))), 1e-6),
}


@pytest.mark.parametrize("name", _DEEP_CASES)
def test_pruned_kernels_bit_identical_to_frozen_reference(name):
    a, b, tie_tol = _DEEP_CASES[name]
    for max_len in range(15, 19):
        _assert_matches_reference(a, b, max_len, tie_tol)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_kernels_bit_identical_where_pruning_bounds_could_overflow(rng):
    # norms past kernels._NORM_CEIL = 2^250, so neither kernel prunes: every
    # 15-letter product of the scaled rotations has norm 2^252 (finite),
    # and the deep products of the pair scaled by 1e20 overflow: every batch
    # maximum is NaN, which max() skips, so length 15 reads 0.0
    c = 2.0 ** 16.8
    rot = tuple(c * e for e in _DEEP_CASES["orthogonal"][0])
    _assert_matches_reference(rot, rot[2:] + rot[:2], 15)
    a, b = _prescaled(random_pair(rng), scale=1e20)
    assert reference_kernels.norm_profile(a, b, 15)[15] == 0.0
    for max_len in (15, 16):
        _assert_matches_reference(a, b, max_len)


def test_pruned_kernels_bit_identical_at_length_20(rng):
    _assert_matches_reference(*_prescaled(random_pair(rng)), 20)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rounded=st.booleans(),
       max_len=st.integers(15, 17))
def test_pruned_kernels_bit_identical_property(seed, rounded, max_len):
    e = np.random.default_rng(seed).standard_normal(8)
    if rounded:
        e = np.round(2 * e)
    if not e.any():
        return
    pair = MatrixPair(Mat2(*e[:4]), Mat2(*e[4:]))
    a, b = _dyadic(pair) if rounded else _prescaled(pair)
    _assert_matches_reference(a, b, max_len, 1e-6 if rounded else 1e-9)


def test_pruning_skips_most_deep_products(rng, monkeypatch):
    # the exactness tests above pass with pruning switched off too; this
    # one fails then
    rows = {"rho": 0, "norm": 0}
    rhos, norms = kernels._rhos, kernels._twice_sq_norm_max

    def count_rhos(prods):
        rows["rho"] += len(prods)
        return rhos(prods)

    def count_norms(prods):
        rows["norm"] += len(prods)
        return norms(prods)

    a, b = _prescaled(random_pair(rng))
    max_len = 18
    monkeypatch.setattr(kernels, "_rhos", count_rhos)
    kernels.scan_classes(a, b, max_len, 1e-9)
    words = sum(len(lyndon_codes(k)) for k in range(1, max_len + 1))
    shallow = sum(len(lyndon_codes(k)) for k in range(1, 15))
    assert rows["rho"] - shallow < 0.1 * (words - shallow)
    monkeypatch.setattr(kernels, "_twice_sq_norm_max", count_norms)
    kernels.norm_profile(a, b, max_len)
    deep = sum(2 ** k for k in range(15, max_len + 1))
    assert rows["norm"] - (2 ** 15 - 2) < 0.1 * deep
