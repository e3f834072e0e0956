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
  and, for each k > 14, multiplies prefixes of k - 14 letters (read
  from a left tree) into level 14, one slice of it per prefix.

Pruning.  Up to L = 14 both kernels evaluate every word.  A word of
length k > 14 is its 14-letter prefix P, read from the tree, times its
r = k - 14 letter tail, and |P T| <= |P| |T| (Gripenberg, "Computing the
joint spectral radius", LAA 234, 1996) rules most of these products out:

- ``scan_classes`` bounds each word's root by (|P| |T|)^(1/k), times
  1 + _MARGIN, with |T| read from tree level r.  It computes the exact
  roots of the _SEED_WORDS words with the largest bounds and evaluates
  only the words whose bound reaches thr = min(s2, max(b, s1) - tie_tol),
  where s1 >= s2 are the two largest seed roots and b is the best root
  of the shorter lengths.  A word that can be this length's best or
  runner-up, or fall in the tie band, has a root of at least thr, so the
  per-length best, its tie-break (first in code order), the second-best
  value and the ties are unchanged.  Tails come from the tree, so the
  kernel takes L <= 28 (``jsr.brute_force`` stops at 24).
- ``norm_profile`` sorts level 14 by norm and visits the prefixes in
  descending norm.  It multiplies a prefix P only into the rows S with
  0.5 N(P) N(S) (1 + _MARGIN) >= mx, where N = 2|.|^2 as computed and mx
  is the running maximum: a leading slice ``suffix[:hi]``, no copy.  A
  prefix with no such row ends the length.

Every value that is computed is the same matmul in the same association
as without pruning, and a skipped one cannot reach the result, so the
output is bit for bit the same.  The bounds hold for the computed
values, with u = 2^-53, because:

- one product: each entry of fl(XY) is within 2u (|x_i1 y_1j| + |x_i2 y_2j|)
  of the exact one, so |fl(XY)| <= |X| |Y| (1 + 4.1u);
- the closed forms: the computed t^2 - 4 d^2 is off by at most about
  16u t^2 <= 64u |X|^4, and tr^2 - 4 det by about 28u |X|^2.  Their
  square roots are off by sqrt(64u) |X|^2 and sqrt(28u) |X|, so N and
  rho come within 4e-8 (2|X|^2) and 3e-8 |X| of the exact values: this
  is the cancellation of ROADMAP item 9, far above u;
- the tail: a word's product is ((P M1) M2) ... Mr, while T is computed
  as (M1 M2) ... Mr.  Each is off from its exact product by at most
  ((1 + 4.1u)^r - 1) mu^r, times |P| for the first, with mu = max(|A|, |B|).
  That is not small against |T| when the tail cancels, so the scan adds
  _REASSOC r mu^r to |T| (1e-15 >= 2 * 4.1u, with room for rounding mu);
- range: every N is raised to _N_FLOOR.  A computed N below a quarter of
  it can read up to 2x low, as its squares underflow, and the floor then
  bounds it; above that, the underflow is far below u.  Neither kernel
  prunes when a product's norm could pass _NORM_CEIL, where t^2 or tr^2
  could overflow: ``scan_classes`` then evaluates every word, and
  ``norm_profile`` multiplies every prefix into the whole level 14.

Together a computed value exceeds its computed bound by a factor below
1 + 2e-7 before the margin, and the k-th root and the few roundings of
the bound add a few u: _MARGIN = 1e-6 covers that five times over.

Nothing but the Lyndon tables outlives a call.  Up to L = 18 no array
holds more than 2^14 products.  Timings on a 2-CPU host (a fixed random
pre-scaled pair, then the worst case, an orthogonal pair where every
product has norm 1 and nothing is pruned; ``benchmarks/bench_kernels.py``):

=====  =================  ================  ==================  ================
L      scan_classes       norm_profile      scan_classes        norm_profile
       (random)           (random)          (orthogonal)        (orthogonal)
=====  =================  ================  ==================  ================
18     6 ms (13 before)   5 ms (30 before)  50 ms (same)        44 ms (same)
20     5 ms (43 before)   4 ms (125 before) 200 ms (same)       145 ms (same)
=====  =================  ================  ==================  ================

At L = 24 the random pair takes 41 ms and 7 ms (1.2 s and 2.7 s
before).  A pair where nothing prunes costs what it did before: at
L = 24 ``scan_classes`` holds the 698 870 products of the longest Lyndon
words at once (22 MB), and the two kernels raise peak memory by about
100 MB and take about 1 s and 3 s.
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

# pruning of words longer than _TREE_DEPTH (see Pruning in the docstring)
_MARGIN = 1e-6           # relative slack on every bound, after the k-th root
_SEED_WORDS = 64         # exact values that set the first threshold
_REASSOC = 1e-15         # tail reassociation error, per letter, times mu^r
_N_FLOOR = 2.0 ** -470   # 2|P|^2 below this may have lost relative accuracy
_NORM_CEIL = 2.0 ** 250  # no product whose norm stays below this overflows

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


def _twice_sq_norms(prods: np.ndarray) -> np.ndarray:
    """t + sqrt(t^2 - 4 d^2) = 2 |P|^2 for each product of the batch.

    |P| = sqrt(0.5 * that), and sqrt and the halving are monotone, so
    the batch's largest norm is sqrt(0.5 * the largest of these), exactly.
    The squares are summed left to right, as ``sum(axis=(1, 2))`` does, at
    a fifth of its cost.
    """
    sq = prods * prods
    t = sq[:, 0, 0] + sq[:, 0, 1] + sq[:, 1, 0] + sq[:, 1, 1]
    d = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = np.maximum(t * t - 4.0 * d * d, 0.0)
    return t + np.sqrt(disc)


def _twice_sq_norm_max(prods: np.ndarray) -> float:
    return float(_twice_sq_norms(prods).max())


def _floored_norms(prods: np.ndarray) -> np.ndarray:
    """2 |P|^2 raised to _N_FLOOR: an upper bound to within 1e-7 (Pruning)."""
    return np.maximum(_twice_sq_norms(prods), _N_FLOOR)


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


def _candidates(tree: list[np.ndarray], heads: np.ndarray, tails: list[np.ndarray],
                codes: np.ndarray, k: int, a: np.ndarray, b: np.ndarray,
                best: float, tie_tol: float) -> np.ndarray:
    """The codes of length k > _TREE_DEPTH whose root can reach this length's
    top two or the tie band, in code order (see Pruning).

    ``heads`` and ``tails[j]`` bound the norms of tree levels _TREE_DEPTH
    and j; ``best`` is the best root of the shorter lengths.  Every code
    comes back where products could overflow and the bounds are not safe.
    """
    r = k - _TREE_DEPTH
    mu = float(tails[1].max())
    if not (math.isfinite(best) and heads.max() * max(1.0, mu) ** r <= _NORM_CEIL):
        return codes
    bound = heads[codes >> r] * (tails[r][codes & ((1 << r) - 1)] + _REASSOC * r * mu ** r)
    bound = bound ** (1.0 / k) * (1.0 + _MARGIN)
    seeds = codes[np.argpartition(bound, -_SEED_WORDS)[-_SEED_WORDS:]]
    second, first = np.partition(_word_rhos(tree, seeds, k, a, b) ** (1.0 / k), -2)[-2:]
    keep = ~(bound < min(second, max(best, first) - tie_tol))
    return codes if keep.all() else codes[keep]


def scan_classes(a, b, max_len: int, tie_tol: float):
    """Per-length class scan over Lyndon words (see the module docstring)."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)
    tree = _left_tree(a, b, min(max_len, _TREE_DEPTH))
    if max_len > _TREE_DEPTH:
        heads = np.sqrt(0.5 * _floored_norms(tree[_TREE_DEPTH]))
        tails = [np.sqrt(0.5 * _floored_norms(level))
                 for level in tree[:max_len - _TREE_DEPTH + 1]]

    best_root = [math.nan] * (max_len + 1)
    best_word: list[str | None] = [None] * (max_len + 1)
    second_root = [math.nan] * (max_len + 1)
    kept: list[tuple[int, np.ndarray, np.ndarray]] = []

    for k in range(1, max_len + 1):
        codes = lyndon_codes(k)
        if k > _TREE_DEPTH:
            codes = _candidates(tree, heads, tails, codes, k, a, b,
                                max(best_root[1:k]), tie_tol)
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
    if max_len == top:
        return out

    # deeper words: each left-associated prefix times the top level, whose
    # rows are sorted by norm so that the rows a prefix can still need
    # (see Pruning) are the slice suffix[:hi]
    suffix = levels[-1]
    n_suffix = _twice_sq_norms(suffix)
    order = np.argsort(n_suffix)[::-1]
    suffix, n_suffix = suffix[order], np.maximum(n_suffix[order], _N_FLOOR)
    prefixes = _left_tree(a, b, max_len - top)
    for k in range(top + 1, max_len + 1):
        level = prefixes[k - top]
        n_prefix = _floored_norms(level)
        visit = np.argsort(n_prefix)[::-1]
        # where a product could overflow the bounds are not safe: every
        # prefix meets every row, and max() skips an overflowed batch's NaN
        safe = 0.5 * n_prefix.max() * n_suffix[0] <= _NORM_CEIL ** 2
        mx = _twice_sq_norm_max(level[visit[0]] @ suffix[:_SEED_WORDS]) if safe else 0.0
        for i in visit:
            hi = len(suffix)
            if safe:
                hi = int(np.count_nonzero(
                    (0.5 * (1.0 + _MARGIN)) * n_prefix[i] * n_suffix >= mx))
                if hi == 0:
                    break  # the later prefixes have no larger norm
            mx = max(mx, _twice_sq_norm_max(level[i] @ suffix[:hi]))
        out.append(math.sqrt(0.5 * mx) ** (1.0 / k))
    return out
