"""Explicit constructions: symmetric forms, tuple realization, and the
invariant-polygon family whose unique optimal product is A^n B.

``symmetrize`` rewrites a crossing pair as the simultaneously conjugate
symmetric pair in closed form from the five invariants.
``realize_from_tuple`` produces one concrete pair attaining any
realizable 5-tuple.  ``counterexample_family`` builds, for each n, the
pair

    A_n = c^(1/n) [[1, 0], [1, 1]],      B_n rank one,

with c = 0.278... the root of x e^(x+1) = 1, together with the centrally
symmetric (2n+2)-gon S spanned by +-v_i, v_i = A_n^i (1, 0)^T.  The
vertices v_i sit on the strictly concave graph of y = n x log(x)/log(c),
whose tangent at v_n passes through -v_0; that makes S convex with the
segment [v_n, -v_0] as an edge, and A_n(S) inside S.  B_n sends v_n to
v_0 and kills the direction of a line touching S at v_n only; since that
tangent line contains the whole edge [v_n, -v_0], a strictly supporting
line at the vertex v_n (here: the angle bisector of the two incident
edges) is used instead, which keeps |B_n|_S = 1 while making every other
vertex land strictly inside.  Both gauge norms then equal 1, so the
joint spectral radius is 1, attained by A_n^n B_n alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jsr import BoundsReport, brute_force
from .linalg import (
    FiveTuple,
    Mat2,
    MatrixPair,
    commutator_quintic,
    five_tuple,
    realizable,
    spectral_radius,
    unit_scaled,
    word_product,
)
from .regions import classify

__all__ = [
    "Polygon",
    "ExampleFamily",
    "ExampleReport",
    "symmetrize",
    "realize_from_tuple",
    "lambert_c",
    "counterexample_family",
    "polygon_gauge",
    "polygon_operator_norm",
    "verify_example",
]

Vec = tuple[float, float]


def _cross(p: Vec, q: Vec) -> float:
    return p[0] * q[1] - p[1] * q[0]


@dataclass(frozen=True, slots=True)
class Polygon:
    """A centrally symmetric convex polygon, counterclockwise.

    Stored as the half-list (w_1, ..., w_m); the full vertex cycle is
    w_1, ..., w_m, -w_1, ..., -w_m.  Construction verifies strict
    convexity (up to 1e-12 of scale) and that the origin is interior.
    """

    half_vertices: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.half_vertices) < 2:
            raise ValueError("need at least 2 half-vertices (a 4-gon)")
        verts = self.vertices()
        scale = max(abs(c) for v in verts for c in v)
        if scale == 0.0:
            raise ValueError("degenerate polygon")
        n = len(verts)
        for i in range(n):
            p = verts[i]
            q = verts[(i + 1) % n]
            r = verts[(i + 2) % n]
            turn = _cross((q[0] - p[0], q[1] - p[1]), (r[0] - q[0], r[1] - q[1]))
            if turn <= -1e-12 * scale * scale:
                raise ValueError(f"polygon is not convex at vertex {i + 1}")
            if _cross(p, q) <= 0.0:
                raise ValueError("origin is not strictly interior")

    def vertices(self) -> list[Vec]:
        half = list(self.half_vertices)
        return half + [(-x, -y) for x, y in half]


def polygon_gauge(s: Polygon, vec: Vec) -> float:
    """Minkowski gauge |v|_S = min{t > 0 : v in t S}.

    Equals the largest of the edge support functionals (the linear maps
    that are 1 on their edge), which is attained on the edge crossed by
    the ray through v; vertices evaluate to exactly 1.
    """
    verts = s.vertices()
    n = len(verts)
    best = 0.0
    for i in range(n):
        p = verts[i]
        q = verts[(i + 1) % n]
        edge = (q[0] - p[0], q[1] - p[1])
        val = _cross(vec, edge) / _cross(p, edge)
        if val > best:
            best = val
    return best


def polygon_operator_norm(s: Polygon, m: Mat2) -> float:
    """Operator norm induced by the gauge: max over vertices of |M w|_S."""
    return max(polygon_gauge(s, m.apply(w)) for w in s.half_vertices)


def symmetrize(p: MatrixPair, tol: float = 1e-9) -> MatrixPair:
    """Closed-form symmetric representatives of a crossing pair.

    A crossing pair is simultaneously conjugate to symmetric matrices;
    with d = x^2 - 4u > 0 and the commutator quintic positive, the
    conjugate pair is diag((x +- sqrt(d))/2) and the symmetric B with
    off-diagonal sqrt(quintic / d).  The five invariants are preserved.
    It runs on ``unit_scaled(p)`` and scales the result back exactly, and
    d is measured against A's own scale, as ``classify_tuple`` does, so no
    pair is refused for its scale or for A's scale relative to B's.
    """
    q, e = unit_scaled(p)
    flags = classify(q, tol)
    if flags.in_cross is not True:
        raise ValueError("pair is not (definitely) crossing; "
                         f"cross flag = {flags.in_cross!r}, "
                         f"margins = {flags.margins}")
    x, y, z, u, v = five_tuple(q)
    d = x * x - 4.0 * u
    scale = max(x * x, 4.0 * abs(u))
    if d <= tol * scale:
        raise ValueError(f"x^2 - 4u is too small to symmetrize: margin {d / scale:.3e}")
    rd = math.sqrt(d)
    off = math.sqrt(commutator_quintic(x, y, z, u, v) / d)
    a_sym = Mat2(0.5 * (x + rd), 0.0, 0.0, 0.5 * (x - rd))
    b_sym = Mat2(
        (y * rd - x * y + 2.0 * z) / (2.0 * rd), off,
        off, (y * rd + x * y - 2.0 * z) / (2.0 * rd),
    )
    return MatrixPair(a_sym.ldexp(e), b_sym.ldexp(e))


def realize_from_tuple(t: FiveTuple) -> MatrixPair:
    """One canonical pair attaining a realizable 5-tuple.

    When x^2 - 4u > 0, A is diagonal and B = [[b1, 1], [b3, b4]] solves
    the three linear/trace conditions.  When x^2 - 4u < 0, A is a scaled
    rotation and B has equal diagonal; realizability makes the quadratic
    for the off-diagonal entries solvable.  On the repeated-eigenvalue
    boundary the roles of A and B swap if B's discriminant is usable,
    else A becomes a Jordan block and B is solved linearly.  Reducible
    tuples (vanishing commutator quintic) are still realized even though
    their conjugacy class is not unique.  Each branch test is relative to
    the scale of the matrix it tests, so no tuple's branch depends on scale.
    """
    t = FiveTuple(*map(float, t))
    if not realizable(t):
        raise ValueError(f"tuple is not attained by any real pair: {tuple(t)!r}")
    x, y, z, u, v = t
    da = x * x - 4.0 * u
    sa = max(x * x, 4.0 * abs(u))
    db = y * y - 4.0 * v
    sb = max(y * y, 4.0 * abs(v))

    if da > 1e-12 * sa:
        rd = math.sqrt(da)
        l1 = 0.5 * (x + rd)
        l2 = 0.5 * (x - rd)
        b1 = (z - l2 * y) / rd
        b4 = y - b1
        b3 = b1 * b4 - v
        return MatrixPair(Mat2(l1, 0.0, 0.0, l2), Mat2(b1, 1.0, b3, b4))

    if da < -1e-12 * sa:
        s = 0.5 * math.sqrt(-da)
        d = (z - 0.5 * x * y) / s
        disc = d * d + db  # equals -quintic / s^2 >= 0 for realizable tuples
        if disc < 0.0:
            if disc < -1e-9 * max(d * d, abs(db)):
                raise ValueError(f"tuple is not realizable: discriminant {disc:.3e}")
            disc = 0.0
        b3 = 0.5 * (-d + math.sqrt(disc))
        b2 = b3 + d
        return MatrixPair(Mat2(0.5 * x, -s, s, 0.5 * x),
                          Mat2(0.5 * y, b2, b3, 0.5 * y))

    # repeated eigenvalues on the A side: try the swapped construction
    if abs(db) > 1e-12 * sb:
        swapped = realize_from_tuple(FiveTuple(y, x, z, v, u))
        return MatrixPair(swapped.B, swapped.A)

    # both sides on the boundary: Jordan A, linear solve for B
    b21 = z - 0.5 * x * y
    if abs(b21) > 1e-12 * max(abs(z), abs(x * y)):
        b12 = (0.25 * y * y - v) / b21
        return MatrixPair(Mat2(0.5 * x, 1.0, 0.0, 0.5 * x),
                          Mat2(0.5 * y, b12, b21, 0.5 * y))
    return MatrixPair(Mat2(0.5 * x, 1.0, 0.0, 0.5 * x),
                      Mat2(0.5 * y, 1.0, 0.0, 0.5 * y))


def lambert_c(tol: float = 1e-14) -> float:
    """The root c = 0.2784... of x e^(x+1) = 1, by Newton iteration."""
    c = 0.3
    for _ in range(64):
        g = c * math.exp(c + 1.0) - 1.0
        if abs(g) < tol:
            break
        c -= g / (math.exp(c + 1.0) * (1.0 + c))
    return c


@dataclass(frozen=True, slots=True)
class ExampleFamily:
    """The pair (A_n, B_n) with its invariant polygon.

    Constructed so that both gauge operator norms are 1 and
    rho(A_n^n B_n) = 1.  Construction raises AssertionError unless both
    ``polygon_operator_norm`` values are at most 1 + 1e-12 and
    rho(A_n^n B_n) is within 1e-10 of 1; ``verify_example`` reports the
    same three values with the brute-force scan that shows A_n^n B_n is
    the unique best class.
    """

    n: int
    c: float
    A: Mat2
    B: Mat2
    polygon: Polygon

    def __post_init__(self) -> None:
        # -w maps to -(M w), whose gauge is that of M w bit for bit, so the
        # half-vertices that polygon_operator_norm visits cover every vertex
        if max(polygon_operator_norm(self.polygon, m) for m in (self.A, self.B)) > 1.0 + 1e-12:
            raise AssertionError("polygon is not invariant")
        if abs(spectral_radius(word_product(self.pair, "0" * self.n + "1")) - 1.0) > 1e-10:
            raise AssertionError("rho(A^n B) != 1")

    @property
    def pair(self) -> MatrixPair:
        return MatrixPair(self.A, self.B)


def counterexample_family(n: int) -> ExampleFamily:
    """Build (A_n, B_n) and the invariant (2n+2)-gon for n >= 1.

    B_n = v_0 phi with phi(v_n) = 1 and ker phi spanned by the angle
    bisector of the polygon edges at v_n: a strictly supporting direction,
    so |phi| < 1 on every vertex except +-v_n.  (The tangent direction
    v_n + v_0 would put the whole edge [v_n, -v_0] on the kernel line's
    level set, giving rho(B_n) = 1 and a second optimal product.)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c = lambert_c()
    r = c ** (1.0 / n)
    a = Mat2(r, 0.0, r, r)

    verts: list[Vec] = []
    vec: Vec = (1.0, 0.0)
    for _ in range(n + 1):
        verts.append(vec)
        vec = a.apply(vec)
    poly = Polygon(tuple(verts))

    v0 = verts[0]
    vn = verts[n]
    prev = verts[n - 1]
    e1 = (vn[0] - prev[0], vn[1] - prev[1])
    e2 = (-v0[0] - vn[0], -v0[1] - vn[1])
    h1 = math.hypot(*e1)
    h2 = math.hypot(*e2)
    bis = (e1[0] / h1 + e2[0] / h2, e1[1] / h1 + e2[1] / h2)

    # phi(vn) = 1, phi(bis) = 0
    det = vn[0] * bis[1] - vn[1] * bis[0]
    phi = (bis[1] / det, -bis[0] / det)
    b = Mat2(v0[0] * phi[0], v0[0] * phi[1], v0[1] * phi[0], v0[1] * phi[1])
    return ExampleFamily(n=n, c=c, A=a, B=b, polygon=poly)


@dataclass(frozen=True, slots=True)
class ExampleReport:
    """Verification record for one family member."""

    n: int
    norm_a: float
    norm_b: float
    rho_power: float
    best_word: str
    best_value: float
    gap: float
    unique: bool
    bounds: BoundsReport

    @property
    def ok(self) -> bool:
        return (abs(self.norm_a - 1.0) <= 1e-12
                and abs(self.norm_b - 1.0) <= 1e-12
                and abs(self.rho_power - 1.0) <= 1e-10
                and self.unique)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "norm_a": self.norm_a,
            "norm_b": self.norm_b,
            "rho_power": self.rho_power,
            "best_word": self.best_word,
            "best_value": self.best_value,
            "gap": self.gap,
            "unique": self.unique,
            "ok": self.ok,
        }


def verify_example(n: int, max_len: int | None = None) -> ExampleReport:
    """Check the defining properties of family member n by brute force.

    Both gauge norms must be 1, rho(A^n B) must be 1, and the class scan
    up to max_len (default 2n + 4) must find 0^n 1 as the unique best
    class, with the gap to the runner-up reported.
    """
    if max_len is None:
        max_len = 2 * n + 4
    if max_len < n + 1:
        raise ValueError("max_len must be at least n + 1 to see the optimum")
    fam = counterexample_family(n)
    norm_a = polygon_operator_norm(fam.polygon, fam.A)
    norm_b = polygon_operator_norm(fam.polygon, fam.B)
    expected = "0" * n + "1"
    rho_power = spectral_radius(word_product(fam.pair, expected))

    bounds = brute_force(fam.pair, max_len)
    gap = bounds.lower - bounds.second_value
    unique = bounds.best_word == expected and gap > 0.0
    return ExampleReport(n=n, norm_a=norm_a, norm_b=norm_b, rho_power=rho_power,
                         best_word=bounds.best_word, best_value=bounds.lower,
                         gap=gap, unique=unique, bounds=bounds)
