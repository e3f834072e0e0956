"""Region classification of 2x2 matrix pairs.

A pair of real 2x2 matrices falls into overlapping regions defined by
sign conditions (D is the set of real-diagonalizable matrices):

    crossing       both in D, det(AB - BA) > 0
    mixed          det(A) det(B) <= 0
    negative       det(A) < 0 and det(B) < 0
    co-parallel    both in GL+ and D, det(AB - BA) < 0,
                   |tr AB| > |tr A tr B| / 2, tr(AB) tr(A) tr(B) > 0
    anti-parallel  both in GL+ and D, det(AB - BA) < 0, not co-parallel
    complex        either matrix has complex eigenvalues

All regions are invariant under independent rescaling and swapping.  The
tuple-level classifier uses the equivalent trace-window form: after
normalizing signs so x, y >= 0, with W = sqrt((x^2-4u)(y^2-4v)) / 2,

    crossing     <=>  xy/2 - W < z < xy/2 + W
    co-parallel  <=>  z > xy/2 + W   and u, v > 0
    anti-parallel<=>  z < xy/2 - W   and u, v > 0

An independent geometric oracle re-derives the same trichotomy from the
Moebius fixed points of the two matrices on the circle R u {inf}: the
pair is crossing when the fixed-point pairs interleave, and for disjoint
axes the attractor/repellor pattern separates co- from anti-parallel.

Every sign test is three-valued: an exact floating-point zero resolves
closed predicates (e.g. det(A) det(B) = 0 is mixed), while a nonzero
value within the tolerance yields None ("indeterminate") instead of a
guess.  Margins are reported scale-free.

Cost model.  The eight margins and the three-valued flag logic are
written once (``_margins``, ``_flags``), with arithmetic, comparisons, &
and | only, so the same code runs on floats and on numpy arrays.
``classify`` and ``classify_arrays`` share both, ``classify_tuple`` the
flag logic; only the norm scaling, the zero-matrix case and the decoding
of the flags differ per shape.  ``classify`` takes about 20 us per pair on a
2-CPU x86 host with Python 3.11, and serves ``certify``, the Sturmian
route, ``symmetrize`` and the ``classify`` command.  ``classify_arrays``
makes a fixed number of numpy passes over an (n, 8) array, about 0.2 us
per row at n = 10^4 on the same host; its norms skip the rescale when no
row needs ``operator_norm_2``'s range step.  ``monte_carlo_regions`` draws
each seeded block of 10^4 rows at once, then classifies it in tiles of
``_MC_TILE`` rows and counts straight from the flags, about 0.3 us per
row with the draws.  A whole block's temporaries (about 3.6 MB) are freed
to the OS and faulted back in for every block; a tile's stay in the
allocator and in cache (see ``_MC_TILE``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernels import _twice_sq_norms
from .linalg import (
    FiveTuple,
    Mat2,
    MatrixPair,
    Spectrum,
    SpectrumKind,
    _check_count,
    _check_tol,
    _unit_tuple,
    commutator_quintic,
    operator_norm_2,
    realizable,
    spectrum,
)

__all__ = [
    "RegionFlags",
    "RegionArrays",
    "AxisConfig",
    "AxisKind",
    "classify",
    "classify_arrays",
    "classify_tuple",
    "geometric_oracle",
    "monte_carlo_regions",
    "MC_KEYS",
]

Tri = bool | None


@dataclass(frozen=True, slots=True)
class RegionFlags:
    """Classification result; None means within tolerance of a boundary.

    A definitely reducible pair carries no region flags at all.
    ``margins`` holds the signed, scale-normalized quantities behind each
    test.
    """

    in_cross: Tri
    in_mix: Tri
    in_neg: Tri
    in_copar: Tri
    in_anti: Tri
    in_complex: Tri
    reducible: Tri
    margins: dict[str, float]

    @property
    def in_union4(self) -> bool:
        return any(f is True for f in (self.in_cross, self.in_mix, self.in_neg, self.in_copar))

    @property
    def indeterminate(self) -> bool:
        return any(
            f is None
            for f in (self.in_cross, self.in_mix, self.in_neg,
                      self.in_copar, self.in_anti, self.in_complex, self.reducible)
        )

    def to_json_dict(self) -> dict:
        return {
            "cross": self.in_cross,
            "mix": self.in_mix,
            "neg": self.in_neg,
            "copar": self.in_copar,
            "anti": self.in_anti,
            "complex": self.in_complex,
            "reducible": self.reducible,
            "union4": self.in_union4,
            "margins": dict(self.margins),
        }


@dataclass(frozen=True, slots=True, eq=False)
class RegionArrays:
    """``classify`` over n pairs at once.

    Each flag is an int8 array of length n holding 1 (True), 0 (False) or
    -1 (None, within tolerance of a boundary).  ``margins`` maps the keys
    of ``RegionFlags.margins`` to float arrays; a row with a zero matrix
    has commutator margin 0.0 and NaN in every other margin, where
    ``classify`` reports the commutator alone.
    """

    in_cross: np.ndarray
    in_mix: np.ndarray
    in_neg: np.ndarray
    in_copar: np.ndarray
    in_anti: np.ndarray
    in_complex: np.ndarray
    reducible: np.ndarray
    margins: dict[str, np.ndarray]

    @property
    def in_union4(self) -> np.ndarray:
        return ((self.in_cross == 1) | (self.in_mix == 1)
                | (self.in_neg == 1) | (self.in_copar == 1))

    @property
    def indeterminate(self) -> np.ndarray:
        return np.minimum.reduce([self.in_cross, self.in_mix, self.in_neg, self.in_copar,
                                  self.in_anti, self.in_complex, self.reducible]) == -1


def _margins(a11, a12, a21, a22, b11, b12, b21, b22) -> dict:
    """The eight sign-test margins of a norm-scaled pair (A, B).

    Only +, -, * and abs, so the same operations in the same order run on
    floats (``classify``) and on numpy arrays of rows (``classify_arrays``).
    """
    ab11 = a11 * b11 + a12 * b21
    ab12 = a11 * b12 + a12 * b22
    ab21 = a21 * b11 + a22 * b21
    ab22 = a21 * b12 + a22 * b22
    x = a11 + a22
    y = b11 + b22
    z = ab11 + ab22
    u = a11 * a22 - a12 * a21
    v = b11 * b22 - b12 * b21
    # det(AB - BA) from the entries, as commutator_matrix(...).det()
    c11 = ab11 - (b11 * a11 + b12 * a21)
    c12 = ab12 - (b11 * a12 + b12 * a22)
    c21 = ab21 - (b21 * a11 + b22 * a21)
    c22 = ab22 - (b21 * a12 + b22 * a22)
    return {
        "commutator": c11 * c22 - c12 * c21,
        "disc_a": x * x - 4.0 * u,
        "disc_b": y * y - 4.0 * v,
        "det_a": u,
        "det_b": v,
        "det_product": u * v,
        "copar_dominance": abs(z) - 0.5 * abs(x * y),
        "copar_alignment": z * x * y,
    }


def _flags(comm, disc_a, disc_b, det_a, det_b, det_product, dominance, alignment,
           tol: float) -> list:
    """The seven flags of ``RegionFlags``, in its field order, from the margins.

    Each flag is a pair (definitely True, definitely False); neither holds
    within tol of a boundary.  A margin is positive above tol, zero when it
    is exactly 0.0 and negative below -tol; a missing margin is NaN, which
    is none of the three.  Comparisons, & and | only, so the margins may be
    floats or numpy arrays.  A negative or NaN tol raises ValueError.
    """
    _check_tol("tol", tol)
    c_pos, c_zero, c_neg = comm > tol, comm == 0.0, comm < -tol
    a_pos, a_zero, a_neg = disc_a > tol, disc_a == 0.0, disc_a < -tol
    b_pos, b_zero, b_neg = disc_b > tol, disc_b == 0.0, disc_b < -tol
    u_pos, u_zero, u_neg = det_a > tol, det_a == 0.0, det_a < -tol
    v_pos, v_zero, v_neg = det_b > tol, det_b == 0.0, det_b < -tol
    uv_pos, uv_nonpos = det_product > tol, (det_product == 0.0) | (det_product < -tol)
    dom_pos, dom_nonpos = dominance > tol, (dominance == 0.0) | (dominance < -tol)
    al_pos, al_nonpos = alignment > tol, (alignment == 0.0) | (alignment < -tol)

    # both in GL+ and real-diagonalizable, det(AB - BA) < 0
    gl_true = u_pos & v_pos & a_pos & b_pos & c_neg
    gl_false = (u_zero | u_neg | v_zero | v_neg | a_zero | a_neg | b_zero | b_neg
                | c_pos | c_zero)
    regions = (
        (a_pos & b_pos & c_pos, a_zero | a_neg | b_zero | b_neg | c_zero | c_neg),
        (uv_nonpos, uv_pos),
        (u_neg & v_neg, u_pos | u_zero | v_pos | v_zero),
        (gl_true & dom_pos & al_pos, gl_false | dom_nonpos | al_nonpos),
        (gl_true & (dom_nonpos | al_nonpos), gl_false | (dom_pos & al_pos)),
        (a_neg | b_neg, (a_pos | a_zero) & (b_pos | b_zero)),
    )
    # a definitely reducible pair carries no region flags
    irreducible = comm != 0.0
    return [(t & irreducible, f | c_zero) for t, f in regions] + [(c_zero, c_pos | c_neg)]


def _region_flags(flags: list, margins: dict[str, float]) -> RegionFlags:
    return RegionFlags(*(True if t else False if f else None for t, f in flags), margins)


def classify(p: MatrixPair, tol: float = 1e-9) -> RegionFlags:
    """Classify a pair by the sign conditions, with scale-free margins.

    Every test is evaluated on the norm-scaled pair (A/|A|_2, B/|B|_2):
    the raw quantities scale with powers of the entries (the commutator
    determinant with the fourth power), so this both makes the margins
    invariant under independent rescaling and keeps them finite for
    inputs of any magnitude.  A negative or NaN ``tol`` raises ValueError.
    """
    na = operator_norm_2(p.A)
    nb = operator_norm_2(p.B)
    if na == 0.0 or nb == 0.0:
        # a zero matrix commutes with everything
        margins = {"commutator": 0.0}
        return _region_flags(_flags(0.0, *[math.nan] * 7, tol), margins)
    margins = _margins(*p.A.divided_by(na).entries(), *p.B.divided_by(nb).entries())
    return _region_flags(_flags(*margins.values(), tol), margins)


def _divided_by_arrays(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``Mat2.divided_by`` over arrays: m holds (a11, a12, a21, a22) on axis 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = 1.0 / s
        out = m * r  # inf or NaN where r overflowed; those rows are redone below
    tiny = np.isinf(r)
    if tiny.any():
        f, e = np.frexp(s[tiny])
        out[:, tiny] = np.ldexp(m[:, tiny], -e) * (1.0 / f)
    return out


def _operator_norm_2_arrays(m: np.ndarray) -> np.ndarray:
    """``operator_norm_2`` over arrays, with its range step as a mask and the
    closed form of the scan kernels."""
    scale = np.abs(m).max(axis=0)
    ranged = (scale > 1e75) | ((0.0 < scale) & (scale < 1e-75))
    if not ranged.any():  # s = 1.0 everywhere, and m / 1.0 and 1.0 * x are exact
        return np.sqrt(0.5 * _twice_sq_norms(*m))
    s = np.where(ranged, scale, 1.0)
    return s * np.sqrt(0.5 * _twice_sq_norms(*_divided_by_arrays(m, s)))


def _array_flags(entries: np.ndarray, tol: float) -> tuple[list, dict[str, np.ndarray]]:
    """``classify_arrays`` before the decoding: the (definitely True,
    definitely False) pair of each flag, and the margins."""
    e = np.asarray(entries, dtype=float)
    if e.ndim != 2 or e.shape[1] != 8:
        raise ValueError(f"entries must have shape (n, 8), got {e.shape}")
    if not np.isfinite(e).all():
        raise ValueError("matrix entries must be finite")
    m = np.ascontiguousarray(e.reshape(-1, 2, 4).transpose(2, 1, 0))  # entry, matrix, row
    norms = _operator_norm_2_arrays(m)
    zero_norm = norms == 0.0
    norms[zero_norm] = 1.0
    zero = zero_norm.any(axis=0)  # a zero matrix commutes with everything
    a, b = _divided_by_arrays(m, norms).transpose(1, 0, 2)
    margins = _margins(*a, *b)
    if zero.any():
        for key, value in margins.items():
            value[zero] = 0.0 if key == "commutator" else math.nan
    return _flags(*margins.values(), tol), margins


def classify_arrays(entries: np.ndarray, tol: float = 1e-9) -> RegionArrays:
    """``classify`` for every row of an (n, 8) array of pairs.

    Row i holds A's entries (a11, a12, a21, a22) and then B's.  The margins
    and flags come from the same code as ``classify``'s, so they equal its
    results bit for bit.  Non-finite entries raise ValueError, as
    ``MatrixPair`` does; so does a negative or NaN ``tol``.
    """
    flags, margins = _array_flags(entries, tol)
    # (definitely True, definitely False) -> int8 1 / 0, and -1 for neither
    return RegionArrays(*[t.view(np.int8) - (~(t | f)).view(np.int8) for t, f in flags],
                        margins)


def classify_tuple(t: FiveTuple, tol: float = 1e-9) -> RegionFlags:
    """Classify from the five invariants alone, via the trace window.

    Signs are first flipped, (x, z) -> (-x, -z) and/or (y, z) -> (-y, -z),
    to reach x, y >= 0; legitimate because negating either matrix moves no
    pair across a region boundary.  Margins are relative to max(x^2, 4|u|)
    and max(y^2, 4|v|) (for a nilpotent matrix, z^2 over the other's), so
    rescaling either matrix changes none of them.  Each matrix's invariants
    are first brought near unit scale by exact powers of two, so no square
    overflows at any finite tuple and no margin changes.
    Requires a realizable tuple.  A negative or NaN ``tol`` raises ValueError.
    """
    if not realizable(t):
        raise ValueError(f"tuple is not attained by any real pair: {tuple(t)!r}")
    x, y, z, u, v = _unit_tuple(*t)
    if x < 0:
        x, z = -x, -z
    if y < 0:
        y, z = -y, -z

    # A nilpotent (or zero) matrix, x = u = 0, leaves the quintic exactly
    # -z^2: its scale is z^2 over the other's, so the commutator margin is
    # -1 (or an exact 0 for z = 0) at any scale, and its own margins are 0.
    sa = max(x * x, 4.0 * abs(u))
    sb = max(y * y, 4.0 * abs(v))
    if not sa:
        sa = z * z / (sb or 1.0) or 1.0
    if not sb:
        sb = z * z / sa or 1.0
    da = x * x - 4.0 * u
    db = y * y - 4.0 * v

    m = {
        "commutator": commutator_quintic(x, y, z, u, v) / (sa * sb),
        "disc_a": da / sa,
        "disc_b": db / sb,
        "det_a": u / sa,
        "det_b": v / sb,
        "det_product": (u * v) / (sa * sb),
    }
    # side of the crossing window, where both discriminants are positive;
    # above <=> co-parallel, below <=> anti.  A bad tol leaves it NaN, and
    # _flags rejects the tol.
    window = math.nan
    if m["disc_a"] > tol >= 0.0 and m["disc_b"] > tol:
        w = 0.5 * math.sqrt(da * db)
        scale = math.sqrt(sa * sb)
        m["window_above"] = window = (z - (0.5 * x * y + w)) / scale
        m["window_below"] = ((0.5 * x * y - w) - z) / scale

    return _region_flags(_flags(
        m["commutator"], m["disc_a"], m["disc_b"], m["det_a"], m["det_b"],
        m["det_product"], window, window, tol), m)


class AxisKind(Enum):
    CROSSING = "Crossing"
    CO_PARALLEL = "CoParallel"
    ANTI_PARALLEL = "AntiParallel"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True, slots=True)
class AxisConfig:
    """Fixed-point configuration (attractor_A, repellor_A, attractor_B,
    repellor_B) on the circle R u {inf}."""

    kind: AxisKind
    fixed_points: tuple[float, float, float, float] | None


def _eigvec_pair(m: Mat2, sp: Spectrum) -> tuple[tuple[float, float], tuple[float, float]]:
    """Normalized homogeneous eigenvectors (attracting first)."""
    l1, l2 = sp.eigenvalues  # type: ignore[misc]

    def vec(lam: float) -> tuple[float, float]:
        c1 = (m.a12, lam - m.a11)
        c2 = (lam - m.a22, m.a21)
        cand = c1 if math.hypot(*c1) >= math.hypot(*c2) else c2
        h = math.hypot(*cand)
        return (cand[0] / h, cand[1] / h)

    v1, v2 = vec(l1), vec(l2)
    return (v1, v2) if abs(l1) >= abs(l2) else (v2, v1)


def _det2(p: tuple[float, float], q: tuple[float, float]) -> float:
    return p[0] * q[1] - q[0] * p[1]


def _separates(p1, p2, q1, q2) -> int | None:
    """Whether the pair {p1, p2} separates {q1, q2} on the projective circle.

    The sign of the product of the four cross determinants equals the sign
    of the cross-ratio; points at infinity need no special casing in
    homogeneous coordinates.  Returns +1 (separates), -1, or None if some
    determinant vanishes.
    """
    prod = _det2(p1, q1) * _det2(p2, q2) * _det2(p1, q2) * _det2(p2, q1)
    if prod == 0.0:
        return None
    return -1 if prod > 0.0 else 1


def geometric_oracle(p: MatrixPair) -> AxisConfig:
    """Crossing / co-parallel / anti-parallel from Moebius fixed points.

    The fixed points of z -> (az + b)/(cz + d) are the roots of
    c t^2 + (d - a) t - b, i.e. the projectivized eigenvectors; the
    attracting one belongs to the dominant eigenvalue.  Crossing means
    the A-pair separates the B-pair.  For disjoint configurations with
    positive determinants, the mixed pairing {attractor_A, repellor_B}
    vs {attractor_B, repellor_A} separates exactly for co-parallel axes
    and the pairing attractors-vs-repellors for anti-parallel ones.
    Repeated or complex eigenvalues yield Degenerate.
    """
    sp_a = spectrum(p.A)
    sp_b = spectrum(p.B)
    if sp_a.kind != SpectrumKind.REAL_DISTINCT or sp_b.kind != SpectrumKind.REAL_DISTINCT:
        return AxisConfig(AxisKind.DEGENERATE, None)

    att_a, rep_a = _eigvec_pair(p.A, sp_a)
    att_b, rep_b = _eigvec_pair(p.B, sp_b)

    def proj(vec: tuple[float, float]) -> float:
        return vec[0] / vec[1] if vec[1] != 0.0 else math.inf

    fixed = (proj(att_a), proj(rep_a), proj(att_b), proj(rep_b))

    crossing = _separates(att_a, rep_a, att_b, rep_b)
    if crossing is None:
        return AxisConfig(AxisKind.DEGENERATE, fixed)
    if crossing == 1:
        return AxisConfig(AxisKind.CROSSING, fixed)
    if p.A.det() <= 0.0 or p.B.det() <= 0.0:
        return AxisConfig(AxisKind.DEGENERATE, fixed)
    copar = _separates(att_a, rep_b, att_b, rep_a)
    anti = _separates(att_a, att_b, rep_a, rep_b)
    if copar == 1 and anti != 1:
        return AxisConfig(AxisKind.CO_PARALLEL, fixed)
    if anti == 1 and copar != 1:
        return AxisConfig(AxisKind.ANTI_PARALLEL, fixed)
    return AxisConfig(AxisKind.DEGENERATE, fixed)


MC_KEYS = (
    "cross", "mix", "neg", "copar", "anti", "complex",
    "reducible", "indeterminate", "union4",
    "cross&mix", "cross&neg", "copar&cross", "total",
)

_DISTRIBUTIONS = ("normal", "uniform01")
# Rows per classification tile.  A whole 10^4-row block's numpy temporaries
# peak near 3.6 MB (tracemalloc), which glibc hands back to the OS after each
# block and faults in again: about 1 200 minor faults a block.  A 2048-row
# tile's stay in the heap and in cache (the block traces 1.4 MB in all).  On
# the montecarlo benchmark, 1024 rows cost more in numpy call overhead than
# they saved, and 2560-4096 rows still faulted 80-450 pages a block.
_MC_TILE = 2048


def _mc_block(seed_seq: np.random.SeedSequence, count: int, distribution: str,
              tol: float) -> Counter:
    rng = np.random.default_rng(seed_seq)
    if distribution == "normal":
        entries = rng.standard_normal((count, 8))
    else:
        entries = rng.random((count, 8))
    tally: Counter = Counter(total=count)
    for start in range(0, count, _MC_TILE):
        flags, _ = _array_flags(entries[start:start + _MC_TILE], tol)
        true = dict(zip(MC_KEYS, (t for t, _ in flags)))  # MC_KEYS starts with the 7 flags
        tally.update({key: np.count_nonzero(t) for key, t in true.items()})
        definite = np.logical_and.reduce([t | f for t, f in flags])
        tally["indeterminate"] += definite.size - np.count_nonzero(definite)
        tally["union4"] += np.count_nonzero(
            true["cross"] | true["mix"] | true["neg"] | true["copar"])
        for both, one, two in (("cross&mix", "cross", "mix"), ("cross&neg", "cross", "neg"),
                               ("copar&cross", "copar", "cross")):
            tally[both] += np.count_nonzero(true[one] & true[two])
    return tally


def monte_carlo_regions(seed: int, n: int, distribution: str = "normal",
                        tol: float = 1e-9, threads: int = 1,
                        block_size: int = 10_000) -> dict[str, int]:
    """Classify n random pairs and tally region membership.

    Entries are iid from the named distribution ("normal" or "uniform01";
    no canonical measure exists, this is a declared choice).  Sampling is
    split into blocks with seeds derived from the master seed, so the
    result is deterministic for a given seed and block size.  Each block
    is drawn as one (block_size, 8) array, then classified ``_MC_TILE``
    rows at a time, and each tile's counts are read straight from the
    flags' (definitely True, definitely False) pairs; blocks run one after
    another.  The tiles change no count: every row is classified alone.
    ``n`` and ``block_size`` must be ints (not bools), and a negative or
    NaN ``tol`` raises ValueError before anything is drawn.  The counts
    are plain ints.  ``threads`` is accepted for compatibility and ignored.
    """
    _check_count("n", n)
    _check_count("block_size", block_size)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    _check_tol("tol", tol)
    if distribution not in _DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}, "
                         f"expected one of {_DISTRIBUTIONS}")
    sizes = [block_size] * (n // block_size)
    if n % block_size:
        sizes.append(n % block_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    total: Counter = Counter()
    for child, size in zip(children, sizes):
        total.update(_mc_block(child, size, distribution, tol))
    return {key: int(total[key]) for key in MC_KEYS}
