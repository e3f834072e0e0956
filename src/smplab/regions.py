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

Cost model.  ``classify`` is the scalar reference for one pair: it
builds Mat2 objects and a margins dict, about 40 us per pair on a 2-CPU
x86 host with Python 3.11, and serves ``certify``, the Sturmian route,
``symmetrize`` and the ``classify`` command.  ``classify_arrays`` runs the
same operations in the same order as numpy passes over an (n, 8) array,
so its margins and flags equal ``classify``'s bit for bit; it makes a
fixed number of array passes (about a hundred), about 0.4 us per row at
n = 10^4 on the same host.  ``monte_carlo_regions`` draws each seeded
block of 10^4 rows at once and classifies it in one ``classify_arrays``
call, one block after another.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    FiveTuple,
    Mat2,
    MatrixPair,
    Spectrum,
    SpectrumKind,
    commutator_matrix,
    five_tuple,
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


def _sign(value: float, tol: float) -> int | None:
    """+1 / -1 for values beyond tol, 0 for an exact zero, None inside tol."""
    if value == 0.0:
        return 0
    if value > tol:
        return 1
    if value < -tol:
        return -1
    return None


def _pos(s: int | None) -> Tri:
    return None if s is None else s > 0


def _neg(s: int | None) -> Tri:
    return None if s is None else s < 0


def _nonpos(s: int | None) -> Tri:
    return None if s is None else s <= 0


def _and(*vals: Tri) -> Tri:
    if any(v is False for v in vals):
        return False
    if any(v is None for v in vals):
        return None
    return True


def _or(*vals: Tri) -> Tri:
    if any(v is True for v in vals):
        return True
    if any(v is None for v in vals):
        return None
    return False


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


def _flags_from_signs(s_comm, s_da, s_db, s_u, s_v, s_uv, s_dom, s_align,
                      margins: dict[str, float]) -> RegionFlags:
    reducible = True if s_comm == 0 else (None if s_comm is None else False)

    in_cross = _and(_pos(s_da), _pos(s_db), _pos(s_comm))
    in_mix = _nonpos(s_uv)
    in_neg = _and(_neg(s_u), _neg(s_v))
    gl_diag = _and(_pos(s_u), _pos(s_v), _pos(s_da), _pos(s_db), _neg(s_comm))
    in_copar = _and(gl_diag, _pos(s_dom), _pos(s_align))
    in_anti = _and(gl_diag, _or(_nonpos(s_dom), _nonpos(s_align)))
    in_complex = _or(_neg(s_da), _neg(s_db))

    if reducible is True:
        in_cross = in_mix = in_neg = in_copar = in_anti = in_complex = False
    return RegionFlags(in_cross, in_mix, in_neg, in_copar, in_anti,
                       in_complex, reducible, margins)


def classify(p: MatrixPair, tol: float = 1e-9) -> RegionFlags:
    """Classify a pair by the sign conditions, with scale-free margins.

    Every test is evaluated on the norm-scaled pair (A/|A|_2, B/|B|_2):
    the raw quantities scale with powers of the entries (the commutator
    determinant with the fourth power), so this both makes the margins
    invariant under independent rescaling and keeps them finite for
    inputs of any magnitude.
    """
    na = operator_norm_2(p.A)
    nb = operator_norm_2(p.B)
    if na == 0.0 or nb == 0.0:
        # a zero matrix commutes with everything
        return _flags_from_signs(0, None, None, None, None, None, None, None,
                                 {"commutator": 0.0})
    pn = MatrixPair(p.A.divided_by(na), p.B.divided_by(nb))
    x, y, z, u, v = five_tuple(pn)

    m = {
        "commutator": commutator_matrix(pn).det(),
        "disc_a": x * x - 4.0 * u,
        "disc_b": y * y - 4.0 * v,
        "det_a": u,
        "det_b": v,
        "det_product": u * v,
        "copar_dominance": abs(z) - 0.5 * abs(x * y),
        "copar_alignment": z * x * y,
    }
    return _flags_from_signs(
        _sign(m["commutator"], tol), _sign(m["disc_a"], tol), _sign(m["disc_b"], tol),
        _sign(m["det_a"], tol), _sign(m["det_b"], tol), _sign(m["det_product"], tol),
        _sign(m["copar_dominance"], tol), _sign(m["copar_alignment"], tol),
        m,
    )


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
    """``operator_norm_2`` over arrays, with its range step as a mask."""
    scale = np.abs(m).max(axis=0)
    s = np.where((scale > 1e75) | ((0.0 < scale) & (scale < 1e-75)), scale, 1.0)
    a11, a12, a21, a22 = _divided_by_arrays(m, s)
    t = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
    d = a11 * a22 - a12 * a21
    disc = t * t - 4.0 * d * d
    disc[disc < 0.0] = 0.0
    return s * np.sqrt(0.5 * (t + np.sqrt(disc)))


# _sign over arrays as three masks (> tol, == 0, < -tol), none set inside
# tol; the predicates below return a three-valued flag as the mask pair
# (definitely True, definitely False)
def _signs(x: np.ndarray, tol: float):
    return x > tol, x == 0.0, x < -tol


def _pos_a(s):
    return s[0], s[1] | s[2]


def _neg_a(s):
    return s[2], s[0] | s[1]


def _nonpos_a(s):
    return s[1] | s[2], s[0]


def _and_a(*tris):
    return np.logical_and.reduce([t for t, _ in tris]), np.logical_or.reduce([f for _, f in tris])


def _or_a(*tris):
    return np.logical_or.reduce([t for t, _ in tris]), np.logical_and.reduce([f for _, f in tris])


def _encode(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(definitely True, definitely False) -> int8 1 / 0, and -1 for neither."""
    return t.view(np.int8) - (~(t | f)).view(np.int8)


def classify_arrays(entries: np.ndarray, tol: float = 1e-9) -> RegionArrays:
    """``classify`` for every row of an (n, 8) array of pairs.

    Row i holds A's entries (a11, a12, a21, a22) and then B's.  The scalar
    operations run in the same order, so every margin equals ``classify``'s
    bit for bit, and so does every flag.  Non-finite entries raise
    ValueError, as ``Mat2`` does; so does a negative or NaN ``tol``.
    """
    e = np.asarray(entries, dtype=float)
    if e.ndim != 2 or e.shape[1] != 8:
        raise ValueError(f"entries must have shape (n, 8), got {e.shape}")
    if not np.isfinite(e).all():
        raise ValueError("matrix entries must be finite")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    m = np.ascontiguousarray(e.reshape(-1, 2, 4).transpose(2, 1, 0))  # entry, matrix, row
    norms = _operator_norm_2_arrays(m)
    zero = (norms == 0.0).any(axis=0)  # a zero matrix commutes with everything
    norms[:, zero] = 1.0
    (a11, a12, a21, a22), (b11, b12, b21, b22) = _divided_by_arrays(m, norms).transpose(1, 0, 2)

    ab11 = a11 * b11 + a12 * b21
    ab12 = a11 * b12 + a12 * b22
    ab21 = a21 * b11 + a22 * b21
    ab22 = a21 * b12 + a22 * b22
    x = a11 + a22
    y = b11 + b22
    z = ab11 + ab22
    u = a11 * a22 - a12 * a21
    v = b11 * b22 - b12 * b21
    # det(AB - BA) from the entries, as commutator_matrix(pn).det()
    c11 = ab11 - (b11 * a11 + b12 * a21)
    c12 = ab12 - (b11 * a12 + b12 * a22)
    c21 = ab21 - (b21 * a11 + b22 * a21)
    c22 = ab22 - (b21 * a12 + b22 * a22)
    margins = {
        "commutator": c11 * c22 - c12 * c21,
        "disc_a": x * x - 4.0 * u,
        "disc_b": y * y - 4.0 * v,
        "det_a": u,
        "det_b": v,
        "det_product": u * v,
        "copar_dominance": np.abs(z) - 0.5 * np.abs(x * y),
        "copar_alignment": z * x * y,
    }
    if zero.any():
        for key, value in margins.items():
            value[zero] = 0.0 if key == "commutator" else math.nan

    s_comm, s_da, s_db, s_u, s_v, s_uv, s_dom, s_align = (
        _signs(value, tol) for value in margins.values())
    reducible = s_comm[1], s_comm[0] | s_comm[2]
    gl_diag = _and_a(_pos_a(s_u), _pos_a(s_v), _pos_a(s_da), _pos_a(s_db), _neg_a(s_comm))
    regions = (
        _and_a(_pos_a(s_da), _pos_a(s_db), _pos_a(s_comm)),
        _nonpos_a(s_uv),
        _and_a(_neg_a(s_u), _neg_a(s_v)),
        _and_a(gl_diag, _pos_a(s_dom), _pos_a(s_align)),
        _and_a(gl_diag, _or_a(_nonpos_a(s_dom), _nonpos_a(s_align))),
        _or_a(_neg_a(s_da), _neg_a(s_db)),
    )
    # a definitely reducible pair carries no region flags
    flags = [_encode(t & ~reducible[0], f | reducible[0]) for t, f in regions]
    return RegionArrays(*flags, _encode(*reducible), margins)


def classify_tuple(t: FiveTuple, tol: float = 1e-9) -> RegionFlags:
    """Classify from the five invariants alone, via the trace window.

    Signs are first flipped, (x, z) -> (-x, -z) and/or (y, z) -> (-y, -z),
    to reach x, y >= 0; legitimate because negating either matrix moves no
    pair across a region boundary.  Requires a realizable tuple.
    """
    if not realizable(t):
        raise ValueError(f"tuple is not attained by any real pair: {tuple(t)!r}")
    x, y, z, u, v = t
    if x < 0:
        x, z = -x, -z
    if y < 0:
        y, z = -y, -z

    sa = max(1.0, x * x, 4.0 * abs(u))
    sb = max(1.0, y * y, 4.0 * abs(v))
    da = x * x - 4.0 * u
    db = y * y - 4.0 * v
    delta = 4.0 * u * v - u * y * y - v * x * x + x * y * z - z * z

    m = {
        "commutator": delta / (sa * sb),
        "disc_a": da / sa,
        "disc_b": db / sb,
        "det_a": u / sa,
        "det_b": v / sb,
        "det_product": (u * v) / (sa * sb),
    }
    s_da = _sign(m["disc_a"], tol)
    s_db = _sign(m["disc_b"], tol)

    # side of the crossing window; above <=> co-parallel, below <=> anti
    s_window = None
    if s_da == 1 and s_db == 1:
        w = 0.5 * math.sqrt(da * db)
        scale = math.sqrt(sa * sb)
        m["window_above"] = (z - (0.5 * x * y + w)) / scale
        m["window_below"] = ((0.5 * x * y - w) - z) / scale
        s_window = _sign(m["window_above"], tol)

    return _flags_from_signs(
        _sign(m["commutator"], tol), s_da, s_db,
        _sign(m["det_a"], tol), _sign(m["det_b"], tol), _sign(m["det_product"], tol),
        s_window, s_window, m,
    )


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


def _mc_block(seed_seq: np.random.SeedSequence, count: int, distribution: str,
              tol: float) -> dict[str, int]:
    rng = np.random.default_rng(seed_seq)
    if distribution == "normal":
        entries = rng.standard_normal((count, 8))
    else:
        entries = rng.random((count, 8))
    f = classify_arrays(entries, tol)
    true = {key: flag == 1 for key, flag in (
        ("cross", f.in_cross), ("mix", f.in_mix), ("neg", f.in_neg),
        ("copar", f.in_copar), ("anti", f.in_anti),
        ("complex", f.in_complex), ("reducible", f.reducible))}
    tally = {key: np.count_nonzero(t) for key, t in true.items()}
    tally["indeterminate"] = np.count_nonzero(f.indeterminate)
    tally["union4"] = np.count_nonzero(f.in_union4)
    for both, one, two in (("cross&mix", "cross", "mix"), ("cross&neg", "cross", "neg"),
                           ("copar&cross", "copar", "cross")):
        tally[both] = np.count_nonzero(true[one] & true[two])
    tally["total"] = count
    return tally


def monte_carlo_regions(seed: int, n: int, distribution: str = "normal",
                        tol: float = 1e-9, threads: int = 1,
                        block_size: int = 10_000) -> dict[str, int]:
    """Classify n random pairs and tally region membership.

    Entries are iid from the named distribution ("normal" or "uniform01";
    no canonical measure exists, this is a declared choice).  Sampling is
    split into blocks with seeds derived from the master seed, so the
    result is deterministic for a given seed and block size.  Each block
    is drawn as one (block_size, 8) array and classified by one
    ``classify_arrays`` call; blocks run one after another.  ``threads``
    is accepted for compatibility and ignored.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
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
    return {key: total.get(key, 0) for key in MC_KEYS}
