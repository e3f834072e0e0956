import json
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_pair
from smplab.constructions import realize_from_tuple, symmetrize
from smplab.jsr import certify
from smplab.linalg import FiveTuple, Mat2, MatrixPair, five_tuple, spectral_radius
from smplab.regions import (
    AxisKind,
    classify,
    classify_arrays,
    classify_tuple,
    geometric_oracle,
    monte_carlo_regions,
    MC_KEYS,
    _MC_TILE,
)
from smplab.sturmian import maximize_sturmian

DIAG_ONES = MatrixPair(Mat2(2, 0, 0, 0.5), Mat2(1, 1, 1, 1))


def test_classify_cross_and_mix_example():
    f = classify(DIAG_ONES)
    assert f.in_cross is True
    assert f.in_mix is True  # det B = 0 exactly: the closed condition holds
    assert f.in_neg is False
    assert f.in_copar is False
    assert f.reducible is False


def test_classify_copar_example():
    p = realize_from_tuple(FiveTuple(3, 3, 8, 1, 1))
    f = classify(p)
    assert f.in_copar is True
    assert f.in_cross is False and f.in_mix is False and f.in_neg is False
    assert f.in_anti is False and f.in_complex is False


def test_classify_unexplored_region_tuple():
    # the both-complex example tuple: at the printed precision x^2 - 4u is
    # actually +0.08 (A real-diagonalizable), but B is far complex, so the
    # complex flag is set either way; the pair lands outside all four regions
    t = FiveTuple(-3.76601, -0.49459, -8.13153, 3.52510, 8.71249)
    p = realize_from_tuple(t)
    f = classify(p)
    assert f.in_complex is True
    assert f.margins["disc_a"] > 0  # recomputed sign at printed precision
    assert f.margins["disc_b"] < 0
    assert not f.in_union4


def test_classify_tuple_window_examples():
    assert classify_tuple(FiveTuple(3, 3, 8, 1, 1)).in_copar is True
    assert classify_tuple(FiveTuple(3, 3, 4, 1, 1)).in_cross is True
    assert classify_tuple(FiveTuple(3, 3, 1, 1, 1)).in_anti is True
    with pytest.raises(ValueError):
        classify_tuple(FiveTuple(0, 0, 0, 1, 1))


def test_classify_tuple_sign_normalization():
    base = FiveTuple(3, 3, 8, 1, 1)
    flipped = FiveTuple(-3, 3, -8, 1, 1)  # negate A: same regions
    assert classify_tuple(flipped).in_copar is True
    assert classify_tuple(base).in_copar is True


def test_classify_matches_classify_tuple(rng):
    for _ in range(2000):
        p = random_pair(rng)
        f1 = classify(p)
        f2 = classify_tuple(five_tuple(p))
        for attr in ("in_cross", "in_mix", "in_neg", "in_copar", "in_anti",
                     "in_complex", "reducible"):
            a, b = getattr(f1, attr), getattr(f2, attr)
            if a is not None and b is not None:
                assert a == b, (attr, five_tuple(p))


def test_geometric_oracle_examples():
    cfg = geometric_oracle(DIAG_ONES)
    assert cfg.kind is AxisKind.CROSSING
    assert set(cfg.fixed_points) == {math.inf, -0.0, 1.0, -1.0}

    copar = geometric_oracle(realize_from_tuple(FiveTuple(3, 3, 8, 1, 1)))
    assert copar.kind is AxisKind.CO_PARALLEL
    anti = geometric_oracle(realize_from_tuple(FiveTuple(3, 3, 1, 1, 1)))
    assert anti.kind is AxisKind.ANTI_PARALLEL


def test_geometric_oracle_degenerate_on_complex():
    rot = MatrixPair(Mat2(0, -1, 1, 0), Mat2(2, 0, 0, 1))
    assert geometric_oracle(rot).kind is AxisKind.DEGENERATE


def test_oracle_matches_classifier(rng):
    checked = 0
    while checked < 2000:
        p = random_pair(rng)
        f = classify(p)
        if f.margins.get("disc_a", -1) <= 0 or f.margins.get("disc_b", -1) <= 0:
            continue
        if abs(f.margins["commutator"]) <= 1e-6:
            continue
        checked += 1
        kind = geometric_oracle(p).kind
        matches = {
            AxisKind.CROSSING: f.in_cross is True,
            AxisKind.CO_PARALLEL: f.in_copar is True,
            AxisKind.ANTI_PARALLEL: f.in_anti is True,
            AxisKind.DEGENERATE: not (f.in_cross or f.in_copar or f.in_anti),
        }
        assert matches[kind], (p, kind, f)


def test_scale_and_swap_invariance(rng):
    attrs = ("in_cross", "in_mix", "in_neg", "in_copar", "in_anti",
             "in_complex", "reducible")
    for _ in range(500):
        p = random_pair(rng)
        f = classify(p)
        alpha, beta = rng.uniform(0.2, 4.0, 2) * rng.choice([-1.0, 1.0], 2)
        scaled = classify(MatrixPair(p.A * alpha, p.B * beta))
        swapped = classify(p.swapped())
        for attr in attrs:
            assert getattr(scaled, attr) == getattr(f, attr), attr
        for ours, theirs in (("in_cross", "in_cross"), ("in_mix", "in_mix"),
                             ("in_neg", "in_neg"), ("in_copar", "in_copar"),
                             ("in_anti", "in_anti"), ("reducible", "reducible")):
            assert getattr(swapped, theirs) == getattr(f, ours)


def test_copar_implies_rho_gap(rng):
    found = 0
    while found < 50:
        p = random_pair(rng)
        if classify(p).in_copar is not True:
            continue
        found += 1
        assert spectral_radius(p.A @ p.B) > \
            spectral_radius(p.A) * spectral_radius(p.B)


def test_nonnegative_pairs_in_union(rng):
    for _ in range(1000):
        e = rng.random(8)
        f = classify(MatrixPair(Mat2(*e[:4]), Mat2(*e[4:])))
        assert f.in_union4 or f.reducible is True or f.indeterminate


def test_monte_carlo_empty_and_deterministic():
    empty = monte_carlo_regions(0, 0)
    assert all(v == 0 for v in empty.values())
    a = monte_carlo_regions(42, 5000, block_size=1000)
    b = monte_carlo_regions(42, 5000, block_size=1000)
    assert a == b
    threaded = monte_carlo_regions(42, 5000, threads=3, block_size=1000)
    assert threaded == a


def test_monte_carlo_region_structure():
    counts = monte_carlo_regions(0, 20_000)
    assert counts["copar&cross"] == 0
    assert counts["cross&mix"] > 0
    assert counts["cross&neg"] > 0
    assert counts["total"] == 20_000


def test_monte_carlo_rejects_unknown_distribution():
    with pytest.raises(ValueError):
        monte_carlo_regions(0, 10, "cauchy")


@pytest.mark.parametrize("block_size", [0, -5])
def test_monte_carlo_rejects_block_size_below_one(block_size):
    with pytest.raises(ValueError, match="block_size"):
        monte_carlo_regions(0, 10, block_size=block_size)


@pytest.mark.parametrize("kwargs", [
    {"n": 100.0}, {"n": True}, {"n": "10"}, {"block_size": 2.0}, {"block_size": False},
])
def test_monte_carlo_takes_only_int_counts(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        monte_carlo_regions(**{"seed": 0, "n": 10, **kwargs})


def test_monte_carlo_accepts_numpy_ints_and_returns_plain_ints():
    counts = monte_carlo_regions(0, np.int64(10), block_size=np.int32(4))
    assert counts == monte_carlo_regions(0, 10, block_size=4)
    assert all(type(v) is int for v in counts.values())
    assert json.loads(json.dumps(counts)) == counts


def _mc_reference(seed, n, distribution, block_size, tol):
    """The tally from one whole-block ``classify_arrays`` call per block,
    drawn from the same seeded children as ``monte_carlo_regions``."""
    sizes = [block_size] * (n // block_size) + ([n % block_size] if n % block_size else [])
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    total = dict.fromkeys(MC_KEYS, 0)
    for child, size in zip(children, sizes):
        rng = np.random.default_rng(child)
        draw = rng.standard_normal if distribution == "normal" else rng.random
        f = classify_arrays(draw((size, 8)), tol)
        true = {key: getattr(f, attr) == 1 for key, attr in zip(MC_KEYS, FLAGS)}
        for key, t in true.items():
            total[key] += int(t.sum())
        total["indeterminate"] += int(f.indeterminate.sum())
        total["union4"] += int(f.in_union4.sum())
        for one, two in (("cross", "mix"), ("cross", "neg"), ("copar", "cross")):
            total[f"{one}&{two}"] += int((true[one] & true[two]).sum())
        total["total"] += size
    return total


@pytest.mark.parametrize("block_size", [1, _MC_TILE - 1, _MC_TILE, _MC_TILE + 1,
                                        3 * _MC_TILE + 5, 10_000])
@pytest.mark.parametrize("distribution", ["normal", "uniform01"])
def test_monte_carlo_tally_does_not_depend_on_the_tile(block_size, distribution):
    n = 7 if block_size == 1 else 2 * block_size + 17
    # a wide tol makes some flags indeterminate
    for seed, tol in ((0, 1e-9), (5, 1e-9), (2**40 + 3, 0.02)):
        got = monte_carlo_regions(seed, n, distribution, tol, block_size=block_size)
        assert got == _mc_reference(seed, n, distribution, block_size, tol)


def test_monte_carlo_working_set_stays_below_2_mb():
    # a whole 10^4-row block of numpy temporaries peaks near 3.6 MB
    for seed, distribution in ((3, "normal"), (4, "uniform01")):
        tracemalloc.start()
        try:
            monte_carlo_regions(seed, 10_000, distribution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (distribution, peak)


def test_classify_zero_matrix_is_reducible():
    f = classify(MatrixPair(Mat2(0, 0, 0, 0), Mat2(1, 2, 3, 4)))
    assert f.reducible is True
    assert not f.in_union4


def test_classify_invariant_at_extreme_scales():
    base = classify(DIAG_ONES)
    huge = classify(MatrixPair(DIAG_ONES.A * 1e200, DIAG_ONES.B * 1e-150))
    for attr in ("in_cross", "in_mix", "in_neg", "in_copar", "in_anti",
                 "in_complex", "reducible"):
        assert getattr(huge, attr) == getattr(base, attr), attr
    for key, val in base.margins.items():
        assert huge.margins[key] == pytest.approx(val, rel=1e-9, abs=1e-12)


FLAGS = ("in_cross", "in_mix", "in_neg", "in_copar", "in_anti", "in_complex", "reducible")
TRI = {True: 1, False: 0, None: -1}


def assert_matches_scalar(entries, tol=1e-9):
    """classify_arrays equals classify row by row: flags exactly, margins
    with ==, and NaN where classify reports no margin (a zero matrix)."""
    got = classify_arrays(entries, tol)
    ref = [classify(MatrixPair(Mat2(*r[:4]), Mat2(*r[4:])), tol) for r in entries.tolist()]
    for attr in FLAGS:
        assert np.array_equal(getattr(got, attr), [TRI[getattr(f, attr)] for f in ref]), attr
    assert np.array_equal(got.in_union4, [f.in_union4 for f in ref])
    assert np.array_equal(got.indeterminate, [f.indeterminate for f in ref])
    for key, margin in got.margins.items():
        want = [f.margins.get(key, math.nan) for f in ref]
        assert np.array_equal(margin, want, equal_nan=True), key
    return got


def test_classify_arrays_matches_classify_on_seeded_rows():
    # 3 * 10^4 rows keep the scalar reference near 1.5 s; the golden
    # montecarlo CSVs in test_cli pin the tallies of 8 * 10^5 more rows
    rng = np.random.default_rng(20240611)
    rows = np.concatenate([
        rng.standard_normal((15_000, 8)),
        rng.random((12_000, 8)),
        rng.integers(-2, 3, (3_000, 8)).astype(float),  # exact zeros and ties
    ])
    assert_matches_scalar(rows)


def test_classify_arrays_matches_classify_on_edge_rows():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 8))
    rows = [
        [0, 0, 0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 0, 0, 0, 0], [0] * 8,  # zero matrices
        [2, 0, 0, 0.5, 1, 0, 0, -3], [-1, 0, 0, 4, 0, 0, 0, 2],     # diagonal pairs
        [1, 2, 2, 4, 1, 1, 1, 1], [1, 2, 3, 4, 3, 6, 1, 2],         # det(A) or det(B) = 0
        [2, 0, 0, 1, 1, 1e-6, 1e-6, 1],                             # commutator inside tol
        [1, 0, 0, 1e-10, 0, 1, 1, 0],                               # det(A) inside tol
        [1, 1e-5, 0, 1, 1, 0, 1, 2],                                # disc(A) inside tol
        *a, *(a * 1e-300), *(a * 1e-310), *(a * 1e200),
        [*a[0, :4] * 1e-310, *a[0, 4:] * 1e200],
    ]
    got = assert_matches_scalar(np.array(rows, dtype=float))
    assert list(got.reducible[:5]) == [1] * 5
    assert list(got.in_mix[5:7]) == [1, 1]
    assert list(got.reducible[7:8]) == [-1] and got.indeterminate[7:10].all()


def test_classify_arrays_matches_classify_with_and_without_the_range_step():
    # the whole array takes the range step; its first tile needs none, so
    # there the norms skip the rescale
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((2 * _MC_TILE + 3, 8))
    rows[::97, :4] = 0.0
    rows[5::101, 4:] = 0.0
    for k, scale in enumerate((1e200, 1e-200, 1e-310)):
        rows[_MC_TILE + k::7] *= scale
    rows[_MC_TILE + 3::11, :4] *= 1e-310
    assert_matches_scalar(rows)
    first = np.abs(rows[:_MC_TILE])
    assert first.max() < 1e75 and first[first > 0].min() > 1e-75
    assert_matches_scalar(rows[:_MC_TILE])


def test_classify_arrays_input_checks():
    empty = classify_arrays(np.empty((0, 8)))
    assert empty.in_cross.shape == (0,) and empty.margins["commutator"].shape == (0,)
    for bad_shape in (np.zeros((3, 7)), np.zeros(8), np.zeros((2, 2, 8))):
        with pytest.raises(ValueError):
            classify_arrays(bad_shape)
    for bad in (math.nan, math.inf, -math.inf):
        rows = np.ones((3, 8))
        rows[1, 5] = bad
        with pytest.raises(ValueError):
            classify_arrays(rows)


_SCALE = st.integers(-310, 300).map(lambda k: 10.0 ** k)
_SMALL = st.one_of(st.just(0.0), st.integers(-3, 3).map(float))
_MATRIX = st.one_of(
    # entries at independent scales
    st.lists(st.one_of(_SMALL, st.builds(operator.mul, st.floats(-10, 10), _SCALE)),
             min_size=4, max_size=4),
    # one scale for the whole matrix
    st.builds(lambda e, s: [x * s for x in e],
              st.lists(st.one_of(_SMALL, st.floats(-1, 1)), min_size=4, max_size=4), _SCALE),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.builds(operator.add, _MATRIX, _MATRIX), min_size=1, max_size=16))
def test_classify_arrays_matches_classify_on_drawn_rows(rows):
    assert_matches_scalar(np.array(rows, dtype=float))


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_negative_or_nan_tol_is_rejected(tol):
    calls = [
        lambda: classify(DIAG_ONES, tol),
        lambda: classify(MatrixPair(Mat2(0, 0, 0, 0), DIAG_ONES.B), tol),
        lambda: classify_arrays(np.ones((2, 8)), tol),
        lambda: monte_carlo_regions(1, 0, tol=tol),  # before anything is drawn
        lambda: monte_carlo_regions(1, 5, "uniform01", tol=tol),
        lambda: classify_tuple(FiveTuple(3, 3, 8, 1, 1), tol),
        lambda: classify_tuple(FiveTuple(3, 1, 1, 1, 1), tol),  # disc(B) < 0: no window
        lambda: certify(DIAG_ONES, tol),
        lambda: symmetrize(DIAG_ONES, tol),
        lambda: maximize_sturmian(realize_from_tuple(FiveTuple(3, 3, 8, 1, 1)),
                                  audit_tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be >= 0"):
            call()


def _tuple_scaled(t, i, j):
    """The invariants of (2^i A, 2^j B), exactly."""
    x, y, z, u, v = t
    return FiveTuple(math.ldexp(x, i), math.ldexp(y, j), math.ldexp(z, i + j),
                     math.ldexp(u, 2 * i), math.ldexp(v, 2 * j))


_SCALE_TUPLES = [five_tuple(random_pair(np.random.default_rng(s))) for s in range(40)] + [
    FiveTuple(3, 3, 8, 1, 1), FiveTuple(3, 3, 1, 1, 1), FiveTuple(2, 0, 1, 1, -1),
    FiveTuple(0, 0, 1, 0, 0), FiveTuple(0, 3, 2, 0, 1), FiveTuple(0, 2, 0, 0, 1),
    # squares of these overflowed: NaN margins before the unit rescaling
    FiveTuple(1e200, 3, 1, 1, 1), FiveTuple(0, 0, 1e200, 0, 0)] + [
    _tuple_scaled(t, i, j) for t in (FiveTuple(3, 3, 8, 1, 1), FiveTuple(2, 0, 1, 1, -1))
    for i, j in ((300, 300), (-300, -300), (300, -300))]  # z, u, v at 2^+-600


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(t=st.sampled_from(_SCALE_TUPLES), i=st.integers(-60, 60), j=st.integers(-60, 60))
def test_classify_tuple_is_scale_free(t, i, j):
    # per-matrix scales: every flag and margin bit for bit, at any scale
    ref, got = classify_tuple(t), classify_tuple(_tuple_scaled(t, i, j))
    for attr in FLAGS:
        assert getattr(got, attr) == getattr(ref, attr), attr
    assert got.margins == ref.margins


def test_classify_tuple_of_a_huge_tuple_has_no_nan_margin():
    # x^2 and z^2 overflowed in doubles: NaN margins, `reducible` None
    for t in (FiveTuple(1e200, 3, 1, 1, 1), FiveTuple(0, 0, 1e200, 0, 0)):
        flags = classify_tuple(t)
        assert flags.reducible is False
        assert not any(math.isnan(m) for m in flags.margins.values()), t


def test_classify_tuple_of_a_small_pair_is_not_indeterminate():
    # the scales were once at least 1, an absolute tolerance below unit scale
    c = 1e-3
    ref = classify_tuple(FiveTuple(3, 3, 8, 1, 1))
    small = classify_tuple(FiveTuple(3 * c, 3 * c, 8 * c * c, c * c, c * c))
    assert not small.indeterminate and small.in_copar is True
    for attr in FLAGS:
        assert getattr(small, attr) == getattr(ref, attr), attr
