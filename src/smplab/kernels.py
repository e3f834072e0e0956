"""Product-scan kernels: numpy, built on one product tree.

Two functions do the heavy lifting of the brute-force bounds:

``scan_classes(a, b, max_len, tie_tol)``
    Per-length best (and second-best) spectral-radius roots over one
    Lyndon representative per primitive cyclic class, plus every word
    whose root lies within ``tie_tol`` of the global best.

``norm_profile(a, b, max_len)``
    Per-length maximum of the Euclidean operator norm over all 2^k
    products, reported as k-th roots.

Matrices are passed as flat (a11, a12, a21, a22) tuples known to be
pre-scaled by the caller.  Callers look both functions up on this module
at call time (``kernels.scan_classes``), so a wrapper set here sees every
call.

A word of length k is handled as its integer code (first letter = most
significant bit, ``words.lyndon_codes``), so the product of a word of
length k is row ``code`` of level k of a tree.  Every product is a
stacked ``np.matmul`` in the same association as the letter-by-letter
loop these kernels replaced, so results are bit for bit the same:
numpy's matmul rounds each entry as fma(a12, b21, a11*b11), which plain
elementwise arithmetic would not reproduce.

Cost, in 2x2 products for L = max_len and T = min(L, 14):

- ``scan_classes`` builds one left-associated product tree of the
  2^(T+1) - 2 words up to length T and reads each Lyndon word's product
  from it; a Lyndon word of length k > 14 reads its 14-letter prefix and
  takes k - 14 more products.  Lyndon words come from
  ``words.lyndon_codes``, integer tables cached per length for the life
  of the process: about 2^k/k int64 codes for length k, 0.2 MB up to
  L = 18 and 11 MB up to L = 24, built in about 10 ms and 0.8 s.  Only
  the best word, the runner-up and the ties become strings.
- ``norm_profile`` builds the right-associated tree of the same size
  and, for each k > 14, multiplies each of the 2^(k-14) prefixes (read
  from a left tree) into level 14, in blocks of 2^14 products.

Nothing but the Lyndon tables outlives a call.  Up to L = 18 no array
holds more than 2^14 products; on a 2-CPU host a call at L = 18
takes about 15 ms (``scan_classes``) and 35-50 ms (``norm_profile``)
and raises peak memory by about 5 MB.  At L = 24, ``scan_classes``
holds the 698 870 products of the longest Lyndon words at once (22 MB),
and the two kernels raise peak memory by about 100 MB and take about
1 s and 3 s.
"""

from __future__ import annotations

import math

import numpy as np

from .words import lyndon_codes

__all__ = ["BACKEND", "scan_classes", "norm_profile"]

# the one implementation; ``smplab --version`` and bench reports name it
BACKEND = "python"

# deepest tree level held whole: 2^14 products of 32 bytes each
_TREE_DEPTH = 14

_NEG_INF = float("-inf")


def _left_tree(a: np.ndarray, b: np.ndarray, depth: int) -> list[np.ndarray]:
    """Level k holds ((I @ M_w1) @ M_w2) ... @ M_wk at row code(w), k <= depth.

    Level k is level k-1 times A and times B, interleaved so that row
    2i + c is row i times M_c (M_0 = A, M_1 = B).
    """
    levels = [np.eye(2)[None]]
    for _ in range(depth):
        prev = levels[-1]
        levels.append(np.stack([prev @ a, prev @ b], axis=1).reshape(-1, 2, 2))
    return levels


def _rhos(prods: np.ndarray) -> np.ndarray:
    tr = prods[:, 0, 0] + prods[:, 1, 1]
    det = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = tr * tr - 4.0 * det
    real = disc >= 0.0
    out = np.empty(len(prods))
    out[real] = 0.5 * (np.abs(tr[real]) + np.sqrt(disc[real]))
    out[~real] = np.sqrt(det[~real])  # disc < 0 forces det > 0
    return out


def _twice_sq_norm_max(prods: np.ndarray) -> float:
    """max over the batch of t + sqrt(t^2 - 4 d^2) = 2 |P|^2.

    |P| = sqrt(0.5 * that), and sqrt and the halving are monotone, so
    the batch's largest norm is sqrt(0.5 * this maximum), exactly.  The
    squares are summed left to right, as ``sum(axis=(1, 2))`` does, at a
    fifth of its cost.
    """
    sq = prods * prods
    t = sq[:, 0, 0] + sq[:, 0, 1] + sq[:, 1, 0] + sq[:, 1, 1]
    d = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = np.maximum(t * t - 4.0 * d * d, 0.0)
    return float((t + np.sqrt(disc)).max())


def _word_rhos(tree: list[np.ndarray], codes: np.ndarray, k: int,
               a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho(P) for the words of length k with these codes, in code order."""
    if k < len(tree):
        return _rhos(tree[k][codes])
    # Look up the first _TREE_DEPTH letters, then multiply the r others in
    # order.  Sorting the words by their last r letters makes each letter
    # step 2^j contiguous runs sharing one letter.
    r = k - _TREE_DEPTH
    tail = codes & ((1 << r) - 1)
    order = np.argsort(tail, kind="stable")
    prods = tree[_TREE_DEPTH][codes[order] >> r]
    starts = np.searchsorted(tail[order], np.arange((1 << r) + 1))
    for j in range(r):
        width = 1 << (r - j - 1)  # tails per run at letter _TREE_DEPTH + j
        for g in range(1 << (j + 1)):
            lo, hi = starts[g * width], starts[(g + 1) * width]
            if lo < hi:
                prods[lo:hi] = prods[lo:hi] @ (b if g & 1 else a)
    out = np.empty(len(codes))
    out[order] = _rhos(prods)
    return out


def scan_classes(a, b, max_len: int, tie_tol: float):
    """Per-length class scan over Lyndon words (see the module docstring)."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)
    tree = _left_tree(a, b, min(max_len, _TREE_DEPTH))

    best_root = [math.nan] * (max_len + 1)
    best_word: list[str | None] = [None] * (max_len + 1)
    second_root = [math.nan] * (max_len + 1)
    kept: list[tuple[int, np.ndarray, np.ndarray]] = []

    for k in range(1, max_len + 1):
        codes = lyndon_codes(k)
        roots = _word_rhos(tree, codes, k, a, b) ** (1.0 / k)
        i = int(np.argmax(roots))  # first occurrence = lex-least on ties
        best_root[k] = float(roots[i])
        best_word[k] = format(int(codes[i]), f"0{k}b")
        if len(roots) >= 2:
            second_root[k] = float(np.partition(roots, -2)[-2])
        else:
            second_root[k] = _NEG_INF
        kept.append((k, codes, roots))

    gbest = max(best_root[1:])
    ties = []
    for k, codes, roots in kept:
        for i in np.flatnonzero(roots >= gbest - tie_tol):
            ties.append((format(int(codes[i]), f"0{k}b"), float(roots[i])))
    return best_root, best_word, second_root, ties


def norm_profile(a, b, max_len: int):
    """Per-length max operator norm over all products (see the module docstring)."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)

    # right-associated: level k is [A @ level k-1, B @ level k-1]
    top = min(max_len, _TREE_DEPTH)
    levels = [np.stack([a, b])]
    for _ in range(2, top + 1):
        prev = levels[-1]
        levels.append(np.concatenate([a @ prev, b @ prev]))
    out = [math.nan] + [math.sqrt(0.5 * _twice_sq_norm_max(lv)) ** (1.0 / k)
                        for k, lv in enumerate(levels, start=1)]

    # deeper words: each left-associated prefix times the whole top level
    suffix = levels[-1]
    prefixes = _left_tree(a, b, max_len - top)
    for k in range(top + 1, max_len + 1):
        mx = 0.0
        for prefix in prefixes[k - top]:
            mx = max(mx, _twice_sq_norm_max(prefix @ suffix))
        out.append(math.sqrt(0.5 * mx) ** (1.0 / k))
    return out
