"""Exact integer trace polynomials for words in two 2x2 matrices.

For every binary word w there is a unique integer polynomial
``F_w(x, y, z, u, v)`` with ``tr w(A, B) = F_w(tr A, tr B, tr AB, det A,
det B)`` for all real 2x2 matrices A, B.  It is computed here by reducing
the word left to right inside the 4-dimensional algebra spanned by
{I, A, B, AB}, with coefficients that are exact integer polynomials in
the five invariants.

Cayley-Hamilton (M^2 = tr(M) M - det(M) I) and its linearization
(AB + BA = x B + y A + (xy - z) I) close the basis under multiplication:

    A*A   = x*A - u*I            B*B   = y*B - v*I
    A*B   = AB                   B*A   = x*B + y*A + (z - xy)*I - AB
    A*AB  = x*AB - u*B           AB*A  = z*A + u*B - u*y*I
    B*AB  = v*A + z*B - v*x*I    AB*B  = y*AB - v*A
    AB*AB = z*AB - u*v*I

Every row is re-derivable from the two identities above, and
tests/test_fricke.py checks each one numerically against random matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import FiveTuple
from .words import is_primitive

__all__ = [
    "Poly5",
    "AlgebraElement",
    "fricke_poly",
    "evaluate",
    "monomial_at_uv0",
]

_VAR_NAMES = ("x", "y", "z", "u", "v")
_ZERO_EXP = (0, 0, 0, 0, 0)


class Poly5:
    """A polynomial in (x, y, z, u, v) with exact integer coefficients.

    Stored as a sparse map from exponent 5-vectors to nonzero Python ints,
    so all arithmetic is exact at any size.  Instances are treated as
    immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int, int], int] | None = None):
        self._terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "Poly5":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "Poly5":
        return cls({_ZERO_EXP: int(c)})

    @classmethod
    def variable(cls, name: str) -> "Poly5":
        i = _VAR_NAMES.index(name)
        exp = tuple(1 if j == i else 0 for j in range(5))
        return cls({exp: 1})

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly5) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Poly5") -> "Poly5":
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return Poly5(out)

    def __sub__(self, other: "Poly5") -> "Poly5":
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) - c
        return Poly5(out)

    def __neg__(self) -> "Poly5":
        return Poly5({e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "Poly5":
        if isinstance(other, int):
            return Poly5({e: c * other for e, c in self._terms.items()})
        out: dict[tuple, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly5(out)

    __rmul__ = __mul__

    def substitute_uv0(self) -> "Poly5":
        """The polynomial with u = v = 0 substituted."""
        return Poly5({e: c for e, c in self._terms.items() if e[3] == 0 and e[4] == 0})

    def sorted_terms(self) -> list[tuple[tuple[int, int, int, int, int], int]]:
        """Deterministic order: total degree descending, then exponents."""
        return sorted(self._terms.items(), key=lambda ec: (-sum(ec[0]), ec[0]))

    def __repr__(self) -> str:
        return f"Poly5({self.format()!r})"

    def format(self) -> str:
        """Human-readable sorted monomial list, e.g. ``x y z - v x^2``."""
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            vars_str = " ".join(
                name if p == 1 else f"{name}^{p}"
                for name, p in zip(_VAR_NAMES, e)
                if p
            )
            mag = abs(c)
            if not vars_str:
                body = str(mag)
            elif mag == 1:
                body = vars_str
            else:
                body = f"{mag} {vars_str}"
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([first] + parts[1:])


def _p(name: str) -> Poly5:
    return Poly5.variable(name)


_X, _Y, _Z, _U, _V = (_p(n) for n in _VAR_NAMES)
_ONE = Poly5.constant(1)


@dataclass(frozen=True, slots=True)
class AlgebraElement:
    """An element c_I I + c_A A + c_B B + c_AB AB with Poly5 coefficients."""

    cI: Poly5
    cA: Poly5
    cB: Poly5
    cAB: Poly5

    @classmethod
    def letter(cls, ch: str) -> "AlgebraElement":
        zero = Poly5.zero()
        if ch == "0":
            return cls(zero, _ONE, zero, zero)
        if ch == "1":
            return cls(zero, zero, _ONE, zero)
        raise ValueError(f"invalid letter {ch!r}")

    def times_a(self) -> "AlgebraElement":
        """Right-multiply by A using the reduction table."""
        return AlgebraElement(
            cI=-(_U * self.cA) + (_Z - _X * _Y) * self.cB - (_U * _Y) * self.cAB,
            cA=self.cI + _X * self.cA + _Y * self.cB + _Z * self.cAB,
            cB=_X * self.cB + _U * self.cAB,
            cAB=-self.cB,
        )

    def times_b(self) -> "AlgebraElement":
        """Right-multiply by B using the reduction table."""
        return AlgebraElement(
            cI=-(_V * self.cB),
            cA=-(_V * self.cAB),
            cB=self.cI + _Y * self.cB,
            cAB=self.cA + _Y * self.cAB,
        )

    def trace(self) -> Poly5:
        """tr(c_I I + c_A A + c_B B + c_AB AB) = 2 c_I + x c_A + y c_B + z c_AB."""
        return (2 * self.cI) + _X * self.cA + _Y * self.cB + _Z * self.cAB


@lru_cache(maxsize=65536)
def fricke_poly(word: str) -> Poly5:
    """The integer polynomial F_w with tr w(A, B) = F_w(x, y, z, u, v)."""
    if not word:
        raise ValueError("empty word has no trace polynomial")
    if set(word) - {"0", "1"}:
        raise ValueError(f"word must be over alphabet {{0,1}}: {word!r}")
    elem = AlgebraElement.letter(word[0])
    for ch in word[1:]:
        elem = elem.times_a() if ch == "0" else elem.times_b()
    return elem.trace()


def evaluate(f: Poly5, t: FiveTuple | tuple) -> float:
    """Evaluate at a 5-tuple.

    Accumulation happens in the inputs' own arithmetic, so integer tuples
    are summed exactly and rounded once on conversion to float.
    """
    x, y, z, u, v = t
    total = 0
    for (ex, ey, ez, eu, ev), c in f.items():
        total += c * x**ex * y**ey * z**ez * u**eu * v**ev
    return float(total)


def monomial_at_uv0(word: str) -> Poly5:
    """F_w restricted to u = v = 0; a single monomial for primitive words.

    For a primitive word of signature (m, k, l) this equals
    ``x^(m-l) y^(k-l) z^l``.
    """
    if not is_primitive(word):
        raise ValueError(f"word is not primitive: {word!r}")
    return fricke_poly(word).substitute_uv0()
