import math
import os
import subprocess
import sys

import pytest

import reference_kernels
from conftest import random_pair
from smplab.kernels import _fallback
from smplab.linalg import operator_norm_2

try:
    from smplab.kernels import _ext
except ImportError:
    _ext = None

needs_ext = pytest.mark.skipif(_ext is None, reason="compiled kernels not built")


@needs_ext
def test_scan_classes_backends_agree(rng):
    for _ in range(10):
        p = random_pair(rng)
        a, b = p.A.entries(), p.B.entries()
        for max_len in (1, 4, 9):
            ext = _ext.scan_classes(a, b, max_len, 1e-9)
            py = _fallback.scan_classes(a, b, max_len, 1e-9)
            for k in range(1, max_len + 1):
                assert ext[0][k] == pytest.approx(py[0][k], rel=1e-12)
                assert ext[1][k] == py[1][k]
                if math.isfinite(py[2][k]) or math.isfinite(ext[2][k]):
                    assert ext[2][k] == pytest.approx(py[2][k], rel=1e-12)
            assert {w for w, _ in ext[3]} == {w for w, _ in py[3]}


@needs_ext
def test_norm_profile_backends_agree(rng):
    for _ in range(10):
        p = random_pair(rng)
        a, b = p.A.entries(), p.B.entries()
        ext = _ext.norm_profile(a, b, 10)
        py = _fallback.norm_profile(a, b, 10)
        for k in range(1, 11):
            assert ext[k] == pytest.approx(py[k], rel=1e-10)


def test_fallback_suffix_batching_consistent(rng):
    # lengths above the suffix threshold go through the prefix-batch path
    p = random_pair(rng)
    a = tuple(0.3 * e for e in p.A.entries())
    b = tuple(0.3 * e for e in p.B.entries())
    prof = _fallback.norm_profile(a, b, 16)
    short = _fallback.norm_profile(a, b, 14)
    for k in range(1, 15):
        assert prof[k] == pytest.approx(short[k], rel=1e-12)


def test_scan_single_length():
    out = _fallback.scan_classes((2, 0, 0, 0.5), (1, 1, 1, 1), 1, 1e-9)
    assert out[0][1] == pytest.approx(2.0)
    assert out[1][1] == "0"
    assert out[2][1] == pytest.approx(2.0)  # the class "1" also has rho 2


def _prescaled(pair, scale=1.0):
    """Entries as jsr.brute_force hands them to the kernels."""
    s = max(operator_norm_2(pair.A), operator_norm_2(pair.B)) / scale
    return (pair.A * (1.0 / s)).entries(), (pair.B * (1.0 / s)).entries()


def _assert_matches_reference(a, b, max_len, tie_tol=1e-9):
    assert repr(_fallback.scan_classes(a, b, max_len, tie_tol)) == \
        repr(reference_kernels.scan_classes(a, b, max_len, tie_tol))
    assert repr(_fallback.norm_profile(a, b, max_len)) == \
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


def test_pure_python_env_forces_fallback():
    code = "import smplab.kernels as k; print(k.BACKEND)"
    env = dict(os.environ, SMPLAB_PURE_PYTHON="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "python"
