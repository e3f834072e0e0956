import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_kernels
from conftest import random_pair
from smplab import kernels
from smplab.jsr import brute_force
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
        assert prof[k] == short[k]  # the same tree levels, so the same bits


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
        for max_len in (1, 2, 6, 14, 15):
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


# Level-14 rows that tie in norm exactly, so that which rows the seed step
# and the partial row sort of norm_profile pick is down to tie order: the
# products of signed permutations are signed permutations, all of norm 1.
_TIED_ROWS = {
    "rotation-reflection": ((0, -1, 1, 0), (1, 0, 0, -1), 20),
    "signed-permutations": ((0, 1, 1, 0), (0, -1, 1, 0), 19),
}


@pytest.mark.parametrize("name", _TIED_ROWS)
def test_kernels_bit_identical_where_level_14_norms_tie(name):
    a, b, max_len = _TIED_ROWS[name]
    _assert_matches_reference(a, b, max_len)


@pytest.mark.parametrize("k", [15, 17, 20])
def test_word_rhos_bit_identical_on_an_a_first_tree(k):
    # _word_rhos matches the letter-by-letter reference on a tree holding
    # only its A-first half below the tail depth, for a batch with a few of
    # the 2^(r+1) - 2 tail runs and for one with most of them
    rng = np.random.default_rng(k)
    a, b = _prescaled(random_pair(rng))
    a, b = np.reshape(a, (2, 2)), np.reshape(b, (2, 2))
    r = k - 14
    _, tree = kernels._left_tree(a, b, 14, r)
    for n in (16, 1025):
        codes = np.sort(rng.choice(1 << (k - 1), n, replace=False))  # start with A
        letters = (codes[:, None] >> np.arange(k - 1, -1, -1)) & 1
        expect = reference_kernels._rhos(reference_kernels._batch_products(letters, a, b))
        assert np.array_equal(_bits(kernels._word_rhos(tree, codes, k, a, b)), _bits(expect))


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

    def count_norms(transposed_rows):
        rows["norm"] += len(transposed_rows) // 2
        return norms(transposed_rows)

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
    assert rows["norm"] < 0.1 * deep  # only the deep products are counted


def test_deep_scan_skips_what_its_bounds_exclude(rng, monkeypatch):
    # at L = 18 norm_profile sorts a few level-14 rows (a median of 2 on
    # seeded pairs), and the left tree fills only its A-first half below
    # the 4-letter tails (the tree buffer is NaN-filled before each call,
    # so a row never written stays NaN)
    max_len, r = 18, 4
    sorted_sizes: list[int] = []
    row_sorts = []
    trees = []
    argsort, left_tree = np.argsort, kernels._left_tree

    def count_argsort(x, *args, **kwargs):
        sorted_sizes.append(len(x))
        return argsort(x, *args, **kwargs)

    def keep_left_tree(*args, **kwargs):
        trees.append(left_tree(*args, **kwargs))
        return trees[-1]

    kernels.scan_classes(*_prescaled(random_pair(rng)), max_len, 1e-9)  # full-size buffers
    monkeypatch.setattr(kernels, "_left_tree", keep_left_tree)
    for _ in range(9):
        a, b = _prescaled(random_pair(rng))
        trees.clear()
        for buffer in vars(kernels._workspace).values():
            buffer.fill(np.nan)
        kernels.scan_classes(a, b, max_len, 1e-9)
        (_, levels), = trees
        for k, level in enumerate(levels):
            filled = ~np.isnan(level).any(axis=(1, 2))
            half = len(level) // 2 if k > r else len(level)
            assert filled[:half].all() and not filled[half:].any(), k

        monkeypatch.setattr(np, "argsort", count_argsort)
        sorted_sizes.clear()
        kernels.norm_profile(a, b, max_len)
        monkeypatch.setattr(np, "argsort", argsort)
        row_sorts.append(sorted_sizes[-1])  # after the sorts of 2^j prefixes
    assert np.median(row_sorts) < 0.05 * 2 ** 14


# norm_profile takes the closed form only for the rows its Frobenius screen
# leaves (kernels.py, "Pruning"); these pairs aim at the screen's edges.
_X = math.sqrt(2.0 ** -537.5) * (1 + 1e-3)
_SCREEN_CASES = {
    # half of every level is a zero product, t = 0
    "zero-letter": ((0, 0, 0, 0), (0.6, -0.3, 0.2, 0.5)),
    # every product has norm 1 and t = 2: every row ties
    "orthogonal": ((_C, -_S, _S, _C), (0, 1, -1, 0)),
    # N = 2t exactly, no cancellation slack
    "rank-one": ((0.5, 0.25, 1, 0.5), (0.3, -0.6, -0.15, 0.3)),
    # N = t for a rotation, so level 1's largest norm, B's, has barely more
    # than half the largest t, A's
    "rank-one-beside-rotation": ((0.7 * _C, -0.7 * _S, 0.7 * _S, 0.7 * _C), (0.71, 0, 0, 0)),
    "nilpotent": ((0, 1, 0, 0), (0.3, -0.6, 0.4, 0.25)),
    # t(A) is just above 2^-537.5, where t^2 rounds up to 2^-1074 and A's N
    # comes to 2.4 t; B = cI has N = t and t(B) above 2 t(A), yet A is level
    # 1's largest norm
    "underflowing-square": ((_X, 0, 0, 0), (1.3e-81, 0, 0, 1.3e-81)),
}


@pytest.mark.parametrize("name", _SCREEN_CASES)
def test_norm_screen_bit_identical_to_frozen_reference(name):
    a, b = _SCREEN_CASES[name]
    for max_len in (2, 14, 16):  # a short tree, the full one, and deep words
        _assert_matches_reference(a, b, max_len)


def test_underflowing_square_reads_above_twice_the_frobenius_sum():
    # the case above needs the screen's absolute term: without it, B alone
    # would pass the screen on level 1
    (a, b), t_a = _SCREEN_CASES["underflowing-square"], _X * _X
    n_a, n_b = kernels._twice_sq_norms(*np.array([a, b]).T)
    assert n_a > n_b > 2.0 * t_a * (1 + 2.0 ** -48)


def test_threads_keep_their_own_tree_buffers(rng):
    # three threads, more than the test hosts' cores, scan different pairs
    # at L = 12, 18 and 15 at once, switching often, each in its own
    # per-thread buffers, and get what they get one after the other
    lengths = (12, 18, 15)
    pairs = [random_pair(rng) for _ in lengths]
    expect = [repr(brute_force(p, n)) for p, n in zip(pairs, lengths)]
    got: list[list[str]] = [[] for _ in lengths]
    start = threading.Barrier(len(lengths))

    def scan(i):
        start.wait(timeout=60)
        for _ in range(20):
            got[i].append(repr(brute_force(pairs[i], lengths[i])))

    threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(lengths))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[e] * 20 for e in expect]


@pytest.mark.parametrize("max_len, before_mb", [(12, 0.57), (18, 2.25)])
def test_warm_brute_force_allocates_half_of_what_fresh_buffers_did(rng, max_len, before_mb):
    # with fresh tree buffers per call, a warm call's allocation peak was
    # before_mb; the per-thread buffers are kept between calls
    pair = random_pair(rng)
    brute_force(pair, max_len)
    tracemalloc.start()
    try:
        brute_force(pair, max_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * before_mb * 2 ** 20


# The kernels form each tree level with one flat GEMM where numpy's stacked
# matmul makes one BLAS call per 2x2 product.  Their output stays bit for bit
# that of tests/reference_kernels.py only if the two round alike: every
# entry fma(x_i2, y_2j, x_i1 * y_1j), signed zeros and overflow included.
_HARD_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -(2.0 ** -1022),
                          1e150, -1e150, 1.0, -1.0, 1.0 + 2.0 ** -52, 0.1, -0.1, 3.0])


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.one_of(st.integers(1, 70), st.just(2 ** 14)), seed=st.integers(0, 2 ** 32 - 1),
       hard=st.floats(0.0, 1.0))
@example(n=2 ** 14, seed=1, hard=0.25)  # a full level 14
def test_flat_gemm_rounds_as_per_product_matmul(n, seed, hard):
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n + 2) * 4)
    # signed zeros, subnormals, 1e150, and terms that cancel: fma(-0.1, 0.1,
    # 0.1 * 0.1) is the rounding error of 0.1 * 0.1, where plain arithmetic gives 0
    pick = rng.random(entries.shape) < hard
    entries[pick] = rng.choice(_HARD_ENTRIES, int(pick.sum()))
    prev, a, b = entries[:4 * n].reshape(n, 2, 2), *entries[4 * n:].reshape(2, 2, 2)
    with np.errstate(all="ignore"):
        # left tree and tail steps: rows(P) @ M
        for m in (a, b):
            assert np.array_equal(_bits(prev.reshape(-1, 2) @ m), _bits(prev @ m).reshape(-1, 2))
        _, tree = kernels._left_tree(a, b, 6)
        for shorter, level in zip(tree, tree[1:]):
            expect = np.stack([shorter @ a, shorter @ b], axis=1).reshape(-1, 2, 2)
            assert np.array_equal(_bits(level), _bits(expect))
        # right tree and deep prefixes, held transposed: rows(P^T) @ M^T
        rows = prev.transpose(0, 2, 1).copy().reshape(-1, 2)
        level = np.empty((2, 2 * n, 2))
        np.matmul(rows, a.T.copy(), out=level[0])
        np.matmul(rows, b.T.copy(), out=level[1])
        expect = np.concatenate([a @ prev, b @ prev]).transpose(0, 2, 1)
        assert np.array_equal(_bits(level.reshape(-1, 2, 2)), _bits(expect))
        norms = kernels._transposed_norms(level.reshape(-1, 2))
        assert np.array_equal(_bits(norms), _bits(kernels._twice_sq_norms(
            *np.concatenate([a @ prev, b @ prev]).reshape(-1, 4).T)))
