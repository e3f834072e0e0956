"""Closed-form linear algebra for real 2x2 matrices and ordered pairs.

Everything a pair ``(A, B)`` exposes to the rest of the package starts
here: spectra and Euclidean operator norms in closed form, products of
binary words, the five simultaneous-conjugacy invariants

    ``(x, y, z, u, v) = (tr A, tr B, tr AB, det A, det B)``,

and the commutator-determinant test ``det(AB - BA)`` that decides whether
a pair is simultaneously triangularizable ("reducible").  A real 5-tuple
is attainable by a pair of real matrices iff

    ``min(4u - x^2,  4uv - u y^2 - v x^2 + xyz - z^2) <= 0``.

All arithmetic is plain double precision; exact integer polynomial work
lives in :mod:`smplab.fricke`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Mat2",
    "MatrixPair",
    "FiveTuple",
    "Spectrum",
    "SpectrumKind",
    "CommutatorReport",
    "Reducibility",
    "ReducibilityReport",
    "spectrum",
    "spectral_radius",
    "spectral_radius_entries",
    "operator_norm_2",
    "five_tuple",
    "word_product",
    "unit_scaled",
    "scaled_letter",
    "renormalized",
    "scaled_word_product",
    "commutator_matrix",
    "commutator_quintic",
    "commutator_invariant",
    "is_reducible",
    "realizable",
]


# entries that float() would take but that are not numbers
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _check_count(name: str, value) -> None:
    """TypeError unless value is an int; a bool is not one.  A plain int
    skips the ABC check, which costs more than ``certify``'s other checks."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _check_tol(name: str, value) -> None:
    """ValueError for a negative or NaN tolerance."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class Mat2:
    """A real 2x2 matrix, stored row-major as four numbers.

    A plain value: it holds the entries it is given, unconverted and
    unchecked, and its arithmetic follows IEEE as ``float`` does, so an
    overflowing product holds inf or nan.  ``checked`` is the one check;
    ``MatrixPair`` applies it to A and B, and the pair helpers that
    multiply the unscaled input (``five_tuple``, ``word_product``, the
    commutator functions, ``sturmian.copar_gap``) apply it to their
    products.  So ``spectrum``, ``spectral_radius`` and ``operator_norm_2``
    return nan for a bare non-finite matrix instead of raising, and the
    methods here give IEEE results (inf or nan) for it.
    """

    a11: float
    a12: float
    a21: float
    a22: float

    def checked(self) -> "Mat2":
        """This matrix with float entries; ValueError names a non-finite one,
        or one that is not a number: a string or a boolean, which ``float()``
        would take, or what it refuses (None, a list)."""
        entries = []
        for name in ("a11", "a12", "a21", "a22"):
            raw = getattr(self, name)
            try:
                if isinstance(raw, _NOT_NUMBERS):
                    raise TypeError
                v = float(raw)
            except TypeError:
                raise ValueError(f"matrix entry {name} is not a number: {raw!r}") from None
            if not math.isfinite(v):
                raise ValueError(f"matrix entry {name} is not finite: {v!r}")
            entries.append(v)
        return Mat2(*entries)

    @classmethod
    def from_rows(cls, rows) -> "Mat2":
        (a11, a12), (a21, a22) = rows
        return cls(a11, a12, a21, a22)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def rows(self) -> list[list[float]]:
        return [[self.a11, self.a12], [self.a21, self.a22]]

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22)

    def trace(self) -> float:
        return self.a11 + self.a22

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def transpose(self) -> "Mat2":
        return Mat2(self.a11, self.a21, self.a12, self.a22)

    def is_zero(self) -> bool:
        return self.a11 == 0.0 and self.a12 == 0.0 and self.a21 == 0.0 and self.a22 == 0.0

    def is_symmetric(self, tol: float = 0.0) -> bool:
        return abs(self.a12 - self.a21) <= tol

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 0.0:
            raise ZeroDivisionError("matrix is singular")
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)

    def apply(self, vec) -> tuple[float, float]:
        x, y = vec
        return (self.a11 * x + self.a12 * y, self.a21 * x + self.a22 * y)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def __mul__(self, s: float) -> "Mat2":
        return Mat2(self.a11 * s, self.a12 * s, self.a21 * s, self.a22 * s)

    __rmul__ = __mul__

    def ldexp(self, k: int) -> "Mat2":
        """Every entry times 2^k, exact while the results stay in range."""
        return Mat2(*(math.ldexp(x, k) for x in self.entries()))

    def divided_by(self, s: float) -> "Mat2":
        """``self * (1/s)`` for s > 0 bounding the entries, at any scale.

        Below about 5.6e-309 the reciprocal overflows; then the entries
        and s are first brought up by the same exact power of two.
        """
        r = 1.0 / s
        if r != math.inf:
            return self * r
        f, e = math.frexp(s)
        return self.ldexp(-e) * (1.0 / f)


@dataclass(frozen=True, slots=True)
class MatrixPair:
    """An ordered pair of real 2x2 matrices; letter 0 names A, letter 1 names B.

    Every analysis takes a pair, so the pair is where input is checked:
    A and B pass through ``Mat2.checked``.  The pair stores them with
    float entries; a non-finite entry raises ValueError naming it, and a
    non-numeric one raises what ``float()`` raises.
    """

    A: Mat2
    B: Mat2

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", self.A.checked())
        object.__setattr__(self, "B", self.B.checked())

    def swapped(self) -> "MatrixPair":
        return MatrixPair(self.B, self.A)

    def letter(self, ch: str) -> Mat2:
        if ch == "0":
            return self.A
        if ch == "1":
            return self.B
        raise ValueError(f"invalid letter {ch!r}, expected '0' or '1'")

    def to_json_dict(self) -> dict:
        return {"A": self.A.rows(), "B": self.B.rows()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MatrixPair":
        return cls(Mat2.from_rows(obj["A"]), Mat2.from_rows(obj["B"]))


class FiveTuple(NamedTuple):
    """Simultaneous-conjugacy coordinates (tr A, tr B, tr AB, det A, det B)."""

    x: float
    y: float
    z: float
    u: float
    v: float

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "u": self.u, "v": self.v}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FiveTuple":
        return cls(float(obj["x"]), float(obj["y"]), float(obj["z"]),
                   float(obj["u"]), float(obj["v"]))


class SpectrumKind(Enum):
    REAL_DISTINCT = "RealDistinct"
    REAL_REPEATED = "RealRepeated"
    COMPLEX_CONJUGATE = "ComplexConjugate"


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Eigenvalue data of a 2x2 matrix.

    Complex eigenvalues are never materialized: in the complex-conjugate
    case only the common modulus ``rho = sqrt(det)`` is exposed and
    ``eigenvalues`` is None.
    """

    kind: SpectrumKind
    rho: float
    eigenvalues: tuple[float, float] | None


def spectrum(m: Mat2, repeated_tol: float = 1e-12) -> Spectrum:
    """Closed-form spectrum of a 2x2 matrix.

    A repeated eigenvalue is reported when ``|tr^2 - 4 det| <= repeated_tol
    * max(1, tr^2)``; an exact floating-point zero of the discriminant is
    not required.
    """
    scale = m.max_abs()
    if scale > 1e100 or 0.0 < scale < 1e-100:
        # keep tr^2 and det within range; eigenvalues scale linearly
        inner = spectrum(m.divided_by(scale), repeated_tol)
        eigs = None if inner.eigenvalues is None else (
            inner.eigenvalues[0] * scale, inner.eigenvalues[1] * scale)
        return Spectrum(inner.kind, inner.rho * scale, eigs)
    t = m.trace()
    d = m.det()
    disc = t * t - 4.0 * d
    if abs(disc) <= repeated_tol * max(1.0, t * t):
        lam = 0.5 * t
        return Spectrum(SpectrumKind.REAL_REPEATED, abs(lam), (lam, lam))
    if disc > 0.0:
        r = math.sqrt(disc)
        l1 = 0.5 * (t + r)
        l2 = 0.5 * (t - r)
        return Spectrum(SpectrumKind.REAL_DISTINCT, max(abs(l1), abs(l2)), (l1, l2))
    return Spectrum(SpectrumKind.COMPLEX_CONJUGATE, math.sqrt(d), None)


def spectral_radius(m: Mat2) -> float:
    """Spectral radius of a 2x2 matrix without building a Spectrum object."""
    return spectral_radius_entries(m.a11, m.a12, m.a21, m.a22)


def spectral_radius_entries(a11: float, a12: float, a21: float, a22: float) -> float:
    """``spectral_radius`` of the matrix with these row-major entries.

    The closed form lives here, for loops that hold a product as four
    floats instead of a ``Mat2``.
    """
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22))
    if scale > 1e100 or 0.0 < scale < 1e-100:
        return scale * spectral_radius(Mat2(a11, a12, a21, a22).divided_by(scale))
    t = a11 + a22
    d = a11 * a22 - a12 * a21
    disc = t * t - 4.0 * d
    if disc >= 0.0:
        return 0.5 * (abs(t) + math.sqrt(disc))
    return math.sqrt(d)


def operator_norm_2(m: Mat2) -> float:
    """Largest singular value, i.e. sqrt of the top eigenvalue of M^T M.

    For ``M^T M`` the trace is the sum of squared entries and the
    determinant is ``det(M)^2``, so the top eigenvalue has a closed form.
    """
    scale = m.max_abs()
    if scale > 1e75 or 0.0 < scale < 1e-75:  # t*t below would overflow
        return scale * operator_norm_2(m.divided_by(scale))
    t = m.a11 * m.a11 + m.a12 * m.a12 + m.a21 * m.a21 + m.a22 * m.a22
    d = m.det()
    disc = t * t - 4.0 * d * d
    if disc < 0.0:  # numerical noise only; |disc| is tiny then
        disc = 0.0
    return math.sqrt(0.5 * (t + math.sqrt(disc)))


def five_tuple(p: MatrixPair) -> FiveTuple:
    """The invariants (tr A, tr B, tr AB, det A, det B) of a pair."""
    ab = (p.A @ p.B).checked()
    return FiveTuple(p.A.trace(), p.B.trace(), ab.trace(), p.A.det(), p.B.det())


def word_product(p: MatrixPair, word: str) -> Mat2:
    """Product of the pair along a binary word, left to right.

    The letter '0' stands for A and '1' for B; ``word_product(p, "01")``
    is ``A @ B``.
    """
    if not word:
        raise ValueError("empty word has no product")
    out = p.letter(word[0])
    for ch in word[1:]:
        out = out @ p.letter(ch)
    return out.checked()  # an overflowed entry stays inf or nan to the end


def unit_scaled(p: MatrixPair) -> tuple[MatrixPair, int]:
    """``(q, e)`` with ``p = 2^e q`` and q's largest entry in [1, 2).

    A power of two scales exactly (save an entry 2^1022 below the largest),
    so only absolute tolerances and under- or overflow can see the scale
    of p, and q keeps clear of both.  The zero pair gives e = 0.
    """
    m = max(p.A.max_abs(), p.B.max_abs())
    e = math.frexp(m)[1] - 1 if m != 0.0 else 0
    return (p, 0) if e == 0 else (MatrixPair(p.A.ldexp(-e), p.B.ldexp(-e)), e)


def scaled_letter(m: Mat2) -> tuple[Mat2, float]:
    """``(M, logscale)`` with ``m = exp(logscale) * M``, ready to multiply.

    A matrix whose largest entry lies outside [2^-511, 2^511], where the
    product of two such matrices could leave the normal doubles, is
    divided by that entry; any other matrix is returned as it is.
    """
    scale = m.max_abs()
    if scale == 0.0 or 2.0 ** -511 <= scale <= 2.0 ** 511:
        return m, 0.0
    return m.divided_by(scale), math.log(scale)


# the band that ``renormalized`` keeps a running product's largest entry in
RENORM_RANGE = (1e-120, 1e120)


def renormalized(m: Mat2, logscale: float) -> tuple[Mat2, float]:
    """``exp(logscale) * m`` as ``(M, logscale')``, divided by its largest
    entry when that has left ``RENORM_RANGE`` (a zero matrix stays)."""
    s = m.max_abs()
    lo, hi = RENORM_RANGE
    if s != 0.0 and (s > hi or s < lo):
        return m.divided_by(s), logscale + math.log(s)
    return m, logscale


def scaled_word_product(p: MatrixPair, word: str) -> tuple[Mat2, float]:
    """Word product with running renormalization.

    Returns ``(P, logscale)`` such that the true product equals
    ``exp(logscale) * P``.  Long words (Christoffel cycles of large
    denominator) overflow or underflow doubles; this keeps the running
    product ``renormalized``, starting from the letters of
    ``scaled_letter``.
    """
    if not word:
        raise ValueError("empty word has no product")
    (a, log_a), (b, log_b) = scaled_letter(p.A), scaled_letter(p.B)
    q, letter_log = MatrixPair(a, b), {"0": log_a, "1": log_b}
    out = q.letter(word[0])
    logscale = letter_log[word[0]]
    for ch in word[1:]:
        out, logscale = renormalized(out @ q.letter(ch), logscale + letter_log[ch])
    return out, logscale


def commutator_matrix(p: MatrixPair) -> Mat2:
    return ((p.A @ p.B) - (p.B @ p.A)).checked()


def commutator_quintic(x: float, y: float, z: float, u: float, v: float) -> float:
    """det(AB - BA) as the quintic in the five invariants (x, y, z, u, v)."""
    return 4.0 * u * v - u * y * y - v * x * x + x * y * z - z * z


@dataclass(frozen=True, slots=True)
class CommutatorReport:
    """det(AB - BA) together with its equivalent algebraic expressions.

    ``expressions`` maps a formula name to its value; the inverse-based
    formula is included only when both determinants are nonzero.
    ``max_deviation`` is the largest pairwise absolute difference among
    the computed expressions.
    """

    value: float
    expressions: dict[str, float]
    max_deviation: float


def commutator_invariant(p: MatrixPair) -> CommutatorReport:
    """Evaluate det(AB - BA) through its equivalent closed forms.

    The five routes are: the quintic in the five-tuple, the literal
    commutator determinant, the discriminant-window form, the power-trace
    difference ``tr(A^2 B^2) - tr((AB)^2)``, and (for invertible matrices)
    ``det A det B (2 - tr(A B A^-1 B^-1))``.
    """
    a, b = p.A, p.B
    x, y, z, u, v = five_tuple(p)

    e1 = commutator_quintic(x, y, z, u, v)
    e2 = commutator_matrix(p).det()
    e3 = 0.25 * (x * x - 4.0 * u) * (y * y - 4.0 * v) - (z - 0.5 * x * y) ** 2
    ab = a @ b
    e4 = ((a @ a) @ (b @ b)).checked().trace() - (ab @ ab).checked().trace()

    expressions = {
        "five_tuple_poly": e1,
        "commutator_det": e2,
        "disc_window": e3,
        "power_traces": e4,
    }
    if u != 0.0 and v != 0.0:
        e5 = u * v * (2.0 - (ab @ a.inverse() @ b.inverse()).checked().trace())
        expressions["inverse_form"] = e5

    values = list(expressions.values())
    max_dev = max(abs(p1 - p2) for i, p1 in enumerate(values) for p2 in values[i + 1:])
    return CommutatorReport(value=e2, expressions=expressions, max_deviation=max_dev)


class Reducibility(Enum):
    REDUCIBLE = "Reducible"
    IRREDUCIBLE = "Irreducible"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True, slots=True)
class ReducibilityReport:
    verdict: Reducibility
    margin: float  # det(AB-BA) / (|A|_2 |B|_2)^2, signed


def is_reducible(p: MatrixPair, tol: float = 1e-9) -> ReducibilityReport:
    """Simultaneous-triangularizability test via det(AB - BA).

    The verdict is ``classify``'s reducible flag and the margin its
    scale-free commutator margin ``det(AB - BA) / (|A|_2 |B|_2)^2``: an
    exact zero is Reducible, a nonzero margin inside ``tol`` Indeterminate.
    A negative or NaN ``tol`` raises ValueError.
    """
    from .regions import classify  # deferred: regions imports linalg

    flags = classify(p, tol)
    verdict = {True: Reducibility.REDUCIBLE, False: Reducibility.IRREDUCIBLE,
               None: Reducibility.INDETERMINATE}[flags.reducible]
    return ReducibilityReport(verdict, flags.margins["commutator"])


def _unit_tuple(x: float, y: float, z: float, u: float,
                v: float) -> tuple[float, float, float, float, float]:
    """The invariants of (2^-a A, 2^-b B): (x, u, z) times (2^-a, 2^-2a, 2^-a)
    and (y, v, z) times (2^-b, 2^-2b, 2^-b), with 2^a the scale of A's own
    trace and det (of z for a nilpotent A), and b likewise; exact, barring
    subnormals."""
    def exponent(t: float, d: float) -> int:
        return math.frexp(max(abs(t), math.sqrt(abs(d))))[1]

    a = exponent(x, u)
    b = exponent(y, v)
    if not (x or u):  # nilpotent A: z alone carries its scale
        a = math.frexp(math.ldexp(z, -b))[1]
    elif not (y or v):
        b = math.frexp(math.ldexp(z, -a))[1]
    return (math.ldexp(x, -a), math.ldexp(y, -b), math.ldexp(z, -a - b),
            math.ldexp(u, -2 * a), math.ldexp(v, -2 * b))


def realizable(t: FiveTuple) -> bool:
    """Whether a real matrix pair attains this 5-tuple; decided on
    ``_unit_tuple(*t)``, so no square overflows at any finite tuple."""
    x, y, z, u, v = _unit_tuple(*t)
    return min(4.0 * u - x * x, commutator_quintic(x, y, z, u, v)) <= 0.0
