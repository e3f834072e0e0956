"""Binary-word combinatorics.

Words are plain Python strings over the alphabet {'0', '1'}.  This module
covers primitivity, canonical (Lyndon) rotations, the (m, k, l) signature,
mechanical words of a given slope and intercept, Christoffel words, the
Christoffel tree of standard factorizations, and Sturmian-word membership.

A lower mechanical word of slope ``gamma`` and intercept ``rho`` has
letters ``floor(gamma*(n+1) + rho) - floor(gamma*n + rho)``; the upper
variant uses ceilings.  The Christoffel word of slope p/q is the length-q
prefix at intercept 0; for 1 <= p <= q-1 it is Lyndon.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple, Union

__all__ = [
    "WordSignature",
    "ChristoffelNode",
    "is_primitive",
    "lyndon_rotation",
    "cyclic_rotations",
    "signature",
    "mechanical_prefix",
    "christoffel",
    "christoffel_tree",
    "is_sturmian_word",
    "sturmian_class_words",
    "lyndon_words",
    "words_with_counts",
]

Slope = Union[Fraction, float, int]


def _check_word(word: str) -> None:
    if not word:
        raise ValueError("word must be nonempty")
    if set(word) - {"0", "1"}:
        raise ValueError(f"word must be over alphabet {{0,1}}: {word!r}")


class WordSignature(NamedTuple):
    """Counts taken on the Lyndon rotation: zeros, ones, '01' factors."""

    m: int
    k: int
    l: int


class ChristoffelNode(NamedTuple):
    """A standard factorization (u, v); the node's word is u + v."""

    u: str
    v: str
    depth: int


def is_primitive(word: str) -> bool:
    """True iff the word is not a proper power of a shorter word."""
    _check_word(word)
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return False
    return True


def cyclic_rotations(word: str) -> list[str]:
    _check_word(word)
    return [word[i:] + word[:i] for i in range(len(word))]


def lyndon_rotation(word: str) -> str:
    """The lexicographically least cyclic rotation of a primitive word."""
    if not is_primitive(word):
        raise ValueError(f"word is not primitive: {word!r}")
    return min(cyclic_rotations(word))


def signature(word: str) -> WordSignature:
    """Signature (m, k, l) of a primitive word.

    m and k count zeros and ones; l counts the occurrences of the factor
    "01" in the Lyndon rotation, without wraparound.
    """
    lw = lyndon_rotation(word)
    return WordSignature(lw.count("0"), lw.count("1"), lw.count("01"))


def mechanical_prefix(gamma: Slope, rho: Slope, variant: str = "lower",
                      n: int = 1) -> str:
    """First n letters of the mechanical word of slope gamma, intercept rho.

    Exact when gamma and rho are Fractions (or integers); floats are
    evaluated in double precision.
    """
    if not 0 <= gamma <= 1:
        raise ValueError("slope gamma must lie in [0, 1]")
    if not 0 <= rho <= 1:
        raise ValueError("intercept rho must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant == "lower":
        step = math.floor
    elif variant == "upper":
        step = math.ceil
    else:
        raise ValueError(f"variant must be 'lower' or 'upper', got {variant!r}")
    prev = step(rho)
    out = []
    for i in range(1, n + 1):
        cur = step(gamma * i + rho)
        out.append("1" if cur - prev else "0")
        prev = cur
    return "".join(out)


def christoffel(p: int, q: int) -> str:
    """The Christoffel word of slope p/q: length q with p ones.

    Requires gcd(p, q) = 1.  christoffel(0, 1) = "0" and
    christoffel(1, 1) = "1"; for 1 <= p <= q-1 the word is Lyndon.
    """
    if q < 1 or not 0 <= p <= q:
        raise ValueError(f"need 0 <= p <= q and q >= 1, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"slope must be in lowest terms, got {p}/{q}")
    # letter i is floor(i*p/q) - floor((i-1)*p/q), in integer floors
    return "".join("1" if (i * p) // q - ((i - 1) * p) // q else "0"
                   for i in range(1, q + 1))


def christoffel_tree(depth: int) -> list[ChristoffelNode]:
    """Breadth-first standard factorizations down to the given depth.

    The root is ("0", "1"); a node (u, v) has children (u, uv) and (uv, v).
    Every Christoffel word of length >= 2 occurs exactly once in the full
    tree as a concatenation u + v.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nodes = [ChristoffelNode("0", "1", 0)]
    frontier = nodes[:]
    for d in range(1, depth + 1):
        nxt = []
        for node in frontier:
            w = node.u + node.v
            nxt.append(ChristoffelNode(node.u, w, d))
            nxt.append(ChristoffelNode(w, node.v, d))
        nodes.extend(nxt)
        frontier = nxt
    return nodes


def is_sturmian_word(word: str) -> tuple[bool, tuple[int, int, Fraction] | None]:
    """Decide Sturmian membership by finite intercept enumeration.

    With q = len(word) and p the number of ones, the word is accepted iff
    it equals the length-q lower mechanical prefix of slope p/q at some
    intercept i/q.  Intercepts on the 1/q grid suffice because the floor
    values change only there.  Returns (flag, (p, q, intercept)) with the
    witness intercept as a Fraction, or (False, None).
    """
    _check_word(word)
    q = len(word)
    p = word.count("1")
    gamma = Fraction(p, q)
    for i in range(q):
        rho = Fraction(i, q)
        if mechanical_prefix(gamma, rho, "lower", q) == word:
            return True, (p, q, rho)
    return False, None


def sturmian_class_words(a: int, b: int) -> list[str]:
    """All cyclic rotations of the Christoffel word with a zeros, b ones.

    These are the spectral-radius maximizers within the set of words with
    a letters '0' and b letters '1' when the pair of matrices is
    co-parallel.  Requires a, b >= 1 and gcd(a, b) = 1; non-primitive
    classes are handled by callers via powers.
    """
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if math.gcd(a, b) != 1:
        raise ValueError(f"need gcd(a, b) = 1, got ({a}, {b})")
    return cyclic_rotations(christoffel(b, a + b))


def lyndon_words(max_len: int) -> Iterator[str]:
    """All binary Lyndon words of length <= max_len, in lexicographic order.

    Duval's algorithm; these are canonical representatives of the
    primitive cyclic classes.
    """
    if max_len < 1:
        return
    w = [-1]
    while w:
        w[-1] += 1
        yield "".join("01"[c] for c in w)
        m = len(w)
        while len(w) < max_len:
            w.append(w[-m])
        while w and w[-1] == 1:
            w.pop()


def words_with_counts(a: int, b: int) -> Iterator[str]:
    """All words with exactly a zeros and b ones."""
    n = a + b
    for ones in combinations(range(n), b):
        s = ["0"] * n
        for i in ones:
            s[i] = "1"
        yield "".join(s)
