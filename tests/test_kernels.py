import pytest

import reference_kernels
from conftest import random_pair
from smplab import kernels
from smplab.linalg import operator_norm_2


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
