"""Product-scan kernels: numpy, built on one product tree.

Two functions do the heavy lifting of the brute-force bounds:

``scan_classes(a, b, max_len, tie_tol)``
    Per-length best (and second-best) spectral-radius roots over one
    Lyndon representative per primitive cyclic class, plus every word
    whose root lies within ``tie_tol`` of the global best.

``norm_profile(a, b, max_len)``
    Per-length maximum of the Euclidean operator norm over all 2^k
    products, reported as k-th roots.

Matrices are passed as flat (a11, a12, a21, a22) tuples.  The one
caller, ``jsr.brute_force``, divides both letters by max(|A|, |B|).
So, up to rounding, no entry exceeds 1 and no letter has a norm above 2,
nor above 1 save for a pair whose norm is subnormal, where the divisor
keeps only a few bits.  No product of up to 28 letters has a norm above
2^28, far below 2^256, where t^2 in the norm's closed form would
overflow.  The pruning argument below assumes this; letters of much
larger norm are outside the contract.  Callers look both functions up
on this module at call time (``kernels.scan_classes``), so a wrapper
set here sees every call.

A word of length k is handled as its integer code (first letter = most
significant bit, ``words.lyndon_codes``), so the product of a word of
length k is row ``code`` of level k of a tree.  Every product is taken
in the same association, and rounded alike, as in the letter-by-letter
loop these kernels replaced, so results are bit for bit the same.  That
loop's stacked ``(n,2,2) @ (2,2)`` makes one BLAS call per 2x2 product
and rounds each entry as fma(x_i2, y_2j, x_i1*y_1j), which elementwise
arithmetic would not reproduce.  Here each batch is one GEMM on stacked
rows, ``(2n,2) @ (2,2)``, with the same fma per entry.  A right product
M P is held transposed: entry (j, i) of ``rows(P^T) @ M^T`` is
fma(p_2j, m_i2, p_1j*m_i1), the same pair in the same order, so the
right tree stores each product as the rows of its transpose and reads
its norm in P's entry order (t11, t21, t12, t22).  M^T is a contiguous
copy: given a transposed view, OpenBLAS takes a path that turns -0 into
+0.  ``tests/test_kernels.py`` checks all of this bit for bit.

Cost, in 2x2 products for L = max_len and T = min(L, 14), formed by one
GEMM per tree level, tail run or prefix (about 3 ns a product, not 40):

- ``scan_classes`` builds one left-associated product tree in one buffer:
  the words of up to max(1, L - 14) letters, which tails read, and below
  that only those that start with A, as every Lyndon word of length 2 or
  more and every 14-letter prefix of one does: about 2^T products.  It
  gathers every Lyndon word up to length T from it with one index and
  takes their spectral radii in one pass; a Lyndon word of length k > 14
  reads its 14-letter prefix and takes k - 14 more products.  Lyndon
  words come from ``words.lyndon_codes``, integer tables cached per
  length for the life of the process: about 2^k/k int64 codes for length
  k, 0.2 MB up to L = 18 and 11 MB up to L = 24, built in about 10 ms
  and 0.8 s.  Ties become strings from a matrix of '0' and '1' bytes,
  2^16 at a time: in one pass the 1.5 M ties of an orthogonal pair at
  L = 24 raise ``brute_force``'s peak memory from 334 MB to 422 MB.  The
  best word and the runner-up are formatted one at a time.
- ``norm_profile`` builds the right-associated tree of all 2^(T+1) - 2
  words, also in one buffer, takes the norms of all its levels in one
  pass and each level's maximum with ``np.maximum.reduceat``; for each
  k > 14 it multiplies prefixes of k - 14 letters (read from a left
  tree) into the level-14 rows that the bounds leave, one slice of them
  per prefix.

So a short scan, such as the L = 12 bracket of ``jsr.certify``, makes
one pass of each closed form, not one per length.

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
- ``norm_profile`` starts each length from its largest prefix P1 times
  the _SEED_WORDS level-14 rows of largest norm, and mx is the largest
  N of those products, N = 2|.|^2 as computed.  It multiplies a prefix
  P only into the rows S with 0.5 N(P) N(S) (1 + _MARGIN) >= mx, where
  mx is the running maximum; as N(P) <= N(P1) and mx only grows, only
  the rows that pass this test for P1 at the first mx of some length
  are sorted by norm (a median of 2 of 16 384 on seeded N(0,1) pairs at
  L = 18).  It visits the prefixes in descending norm; the rows of each
  are a leading slice ``srows[:hi]`` of those, no copy.  A prefix with
  no such row ends the length.

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
  bounds it; above that, the underflow is far below u.  By the input
  contract nothing overflows.

Together a computed value exceeds its computed bound by a factor below
1 + 2e-7 before the margin, and the k-th root and the few roundings of
the bound add a few u: _MARGIN = 1e-6 covers that five times over.

Nothing but the Lyndon tables outlives a call.  Up to L = 18 no array
holds more than 2^14 products.  Warm timings on a 2-CPU host (the pairs
of ``benchmarks/bench_kernels.py``: a fixed random pre-scaled pair, then
the worst case, an orthogonal pair where every product has norm 1 and
nothing is pruned), best of 7 calls in each of two rounds; the host's
speed changed about twofold between the rounds:

=====  ============  ============  ================  ================
L      scan_classes  norm_profile  scan_classes      norm_profile
       (random, ms)  (random, ms)  (orthogonal, ms)  (orthogonal, ms)
=====  ============  ============  ================  ================
18     1.4-3.0       0.8-1.7       10-20             8-20
20     2.4-5.7       1.0-1.7       39-47             29-36
=====  ============  ============  ================  ================

At L = 24 the random pair takes 19-40 ms and 1.2-2.8 ms.  A pair where
nothing prunes: at L = 24 ``scan_classes`` holds the 698 870 products of
the longest Lyndon words at once (22 MB), ``brute_force`` peaks at about
335 MB of resident memory, and the kernels take 0.73-0.77 s and
0.47-0.52 s.  ``BENCH_deep_scan.json`` holds these runs, the earlier
kernels' and the end-to-end ones.
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

_NEG_INF = float("-inf")


def _left_tree(a: np.ndarray, b: np.ndarray, depth: int,
               full: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Row 2^k - 1 + code(w) holds ((I @ M_w1) @ M_w2) ... @ M_wk, k <= depth.

    Returns that one buffer and its levels: level k, rows 2^k - 1 on, is
    a view.  Level k is level k-1 times A and times B, interleaved so
    that row 2i + c of the level is row i of level k-1 times M_c (M_0 = A,
    M_1 = B): one GEMM per letter on the stacked rows of level k-1, copied
    into its slots (``np.stack`` here took ~550 page faults per
    ``brute_force(p, 18)``, against 3).  Given ``full``, the levels deeper
    than it hold only their first half, the words that start with A, made
    from the first half of the level above; the rest is left unset.
    """
    tree = np.empty(((2 << depth) - 1, 2, 2))
    tree[0] = np.eye(2)
    levels = [tree[(1 << k) - 1:(2 << k) - 1] for k in range(depth + 1)]
    for k in range(1, depth + 1):
        shorter, level = levels[k - 1], levels[k]
        if full is not None and k > full:
            shorter, level = shorter[:len(shorter) // 2], level[:len(level) // 2]
        rows = shorter.reshape(-1, 2)
        level = level.reshape(-1, 2, 2, 2)
        level[:, 0] = (rows @ a).reshape(-1, 2, 2)
        level[:, 1] = (rows @ b).reshape(-1, 2, 2)
    return tree, levels


def _rhos(prods: np.ndarray) -> np.ndarray:
    tr = prods[:, 0, 0] + prods[:, 1, 1]
    det = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = tr * tr - 4.0 * det
    real = disc >= 0.0
    out = np.empty(len(prods))
    out[real] = 0.5 * (np.abs(tr[real]) + np.sqrt(disc[real]))
    out[~real] = np.sqrt(det[~real])  # disc < 0 forces det > 0
    return out


def _twice_sq_norms(p11, p12, p21, p22) -> np.ndarray:
    """t + sqrt(t^2 - 4 d^2) = 2 |P|^2 for the matrices with these entry arrays.

    |P| = sqrt(0.5 * that), and sqrt and the halving are monotone, so
    the batch's largest norm is sqrt(0.5 * the largest of these), exactly.
    The squares are summed left to right, as ``sum(axis=(1, 2))`` does.
    A batch of products P passes ``*P.reshape(-1, 4).T``;
    ``regions.classify_arrays`` passes its contiguous entry rows.
    """
    t = p11 * p11 + p12 * p12 + p21 * p21 + p22 * p22
    d = p11 * p22 - p12 * p21
    return t + np.sqrt(np.maximum(t * t - 4.0 * d * d, 0.0))


def _transposed_norms(rows: np.ndarray) -> np.ndarray:
    """2 |P|^2 for products P stored as the rows of P^T, summing the
    squares in P's entry order (p11, p12, p21, p22) = (t11, t21, t12, t22)."""
    t11, t12, t21, t22 = rows.reshape(-1, 4).T
    return _twice_sq_norms(t11, t21, t12, t22)


def _twice_sq_norm_max(rows: np.ndarray) -> float:
    return float(_transposed_norms(rows).max())


def _floored_norms(prods: np.ndarray) -> np.ndarray:
    """2 |P|^2 raised to _N_FLOOR: an upper bound to within 1e-7 (Pruning)."""
    return np.maximum(_twice_sq_norms(*prods.reshape(-1, 4).T), _N_FLOOR)


def _word_rhos(tree: list[np.ndarray], codes: np.ndarray, k: int,
               a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho(P) for the words of length k > _TREE_DEPTH with these codes, in
    code order."""
    # Look up the first _TREE_DEPTH letters, then multiply the r others in
    # order.  Sorting the words by their last r letters makes each letter
    # step 2^j contiguous runs sharing one letter.
    r = k - _TREE_DEPTH
    tail = codes & ((1 << r) - 1)
    order = np.argsort(tail, kind="stable")
    prods = tree[_TREE_DEPTH][codes[order] >> r]
    rows = prods.reshape(-1, 2)
    starts = 2 * np.searchsorted(tail[order], np.arange((1 << r) + 1))
    for j in range(r):
        width = 1 << (r - j - 1)  # tails per run at letter _TREE_DEPTH + j
        for g in range(1 << (j + 1)):
            lo, hi = starts[g * width], starts[(g + 1) * width]
            if lo < hi:
                rows[lo:hi] = rows[lo:hi] @ (b if g & 1 else a)
    out = np.empty(len(codes))
    out[order] = _rhos(prods)
    return out


def _candidates(tree: list[np.ndarray], heads: np.ndarray, tails: list[np.ndarray],
                codes: np.ndarray, k: int, a: np.ndarray, b: np.ndarray,
                best: float, tie_tol: float) -> np.ndarray:
    """The codes of length k > _TREE_DEPTH whose root can reach this length's
    top two or the tie band, in code order (see Pruning).

    ``heads`` and ``tails[j]`` bound the norms of the A-first half of tree
    level _TREE_DEPTH and of level j; ``best`` is the best root of the
    shorter lengths.
    """
    r = k - _TREE_DEPTH
    mu = float(tails[1].max())
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
    shallow = min(max_len, _TREE_DEPTH)
    # Lyndon words of length 2 or more, and so the prefixes that deeper
    # words read, start with A; only the tails' levels are needed whole
    buffer, tree = _left_tree(a, b, shallow, max(1, max_len - _TREE_DEPTH))
    # every Lyndon word up to the tree depth in one gather and one _rhos
    # call; roots per length, so that numpy's power keeps its paths for
    # a scalar exponent (0.5 is a sqrt)
    short_codes = [lyndon_codes(k) for k in range(1, shallow + 1)]
    ends = np.cumsum([0] + [len(c) for c in short_codes]).tolist()
    short_rhos = _rhos(buffer[np.concatenate(
        [c + ((1 << k) - 1) for k, c in enumerate(short_codes, 1)])])
    if max_len > _TREE_DEPTH:
        heads = np.sqrt(0.5 * _floored_norms(tree[_TREE_DEPTH][:1 << (_TREE_DEPTH - 1)]))
        tails = [np.sqrt(0.5 * _floored_norms(level))
                 for level in tree[:max_len - _TREE_DEPTH + 1]]

    best_root = [math.nan] * (max_len + 1)
    best_word: list[str | None] = [None] * (max_len + 1)
    second_root = [math.nan] * (max_len + 1)
    kept: list[tuple[int, np.ndarray, np.ndarray]] = []

    for k in range(1, max_len + 1):
        if k <= _TREE_DEPTH:
            codes = short_codes[k - 1]
            roots = short_rhos[ends[k - 1]:ends[k]] ** (1.0 / k)
        else:
            codes = _candidates(tree, heads, tails, lyndon_codes(k), k, a, b,
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

    # each length's ties as one matrix of '0' and '1' bytes, read as k-byte
    # strings (codes are below 2^28, so their 32 bits big-endian end in the
    # word), 2^16 at a time to bound the temporaries
    gbest = max(best_root[1:])
    ties = []
    for k, codes, roots in kept:
        hit = np.flatnonzero(roots >= gbest - tie_tol)
        for lo in range(0, len(hit), 1 << 16):
            part = hit[lo:lo + (1 << 16)]
            bits = np.unpackbits(codes[part].astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
            words = (bits[:, 32 - k:] + np.uint8(ord("0"))).view(f"S{k}").ravel().tolist()
            ties.extend(zip([w.decode() for w in words], roots[part].tolist()))
    return best_root, best_word, second_root, ties


def norm_profile(a, b, max_len: int):
    """Per-length max operator norm over all products (see the module docstring)."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)

    # right-associated: level k is [A @ level k-1, B @ level k-1], each
    # product P held as the rows of P^T, so that A @ P is the one GEMM
    # rows(P^T) @ A^T per level (see the module docstring).  One buffer
    # holds every level, level k from row 2^(k+1) - 4 on; one norm pass
    # covers them all.
    shallow = min(max_len, _TREE_DEPTH)
    at, bt = a.T.copy(), b.T.copy()
    tree = np.empty(((4 << shallow) - 4, 2))
    tree[:4] = np.concatenate([at, bt])
    for k in range(2, shallow + 1):
        shorter = tree[(1 << k) - 4:(2 << k) - 4]
        level = tree[(2 << k) - 4:(4 << k) - 4].reshape(2, -1, 2)
        np.matmul(shorter, at, out=level[0])
        np.matmul(shorter, bt, out=level[1])
    norms = _transposed_norms(tree)
    peaks = np.maximum.reduceat(norms, (2 << np.arange(shallow)) - 2).tolist()
    out = [math.nan] + [math.sqrt(0.5 * m) ** (1.0 / k) for k, m in enumerate(peaks, 1)]
    if max_len <= _TREE_DEPTH:
        return out
    rows, norms = tree[(2 << _TREE_DEPTH) - 4:], norms[(1 << _TREE_DEPTH) - 2:]

    # deeper words: each left-associated prefix P times the top level.  Each
    # length starts from its largest prefix times the _SEED_WORDS rows of
    # largest norm; only the rows that some prefix can then still need (see
    # Pruning) are sorted by norm, so that those of P are the slice
    # srows[:2 hi].  P @ S is the GEMM rows(S^T) @ P^T
    n_rows = np.maximum(norms, _N_FLOOR)
    top = np.argpartition(n_rows, -_SEED_WORDS)[-_SEED_WORDS:]
    seeds = rows.reshape(-1, 2, 2)[top].reshape(-1, 2)
    _, prefixes = _left_tree(a, b, max_len - _TREE_DEPTH)
    reach = np.zeros(len(n_rows), dtype=bool)
    scans = []
    for level in prefixes[1:]:
        transposed = level.transpose(0, 2, 1).copy()
        n_prefix = _floored_norms(level)
        visit = np.argsort(n_prefix)[::-1]
        mx = _twice_sq_norm_max(seeds @ transposed[visit[0]])
        reach |= (0.5 * (1.0 + _MARGIN)) * n_prefix[visit[0]] * n_rows >= mx
        scans.append((transposed, n_prefix, visit, mx))
    order = np.flatnonzero(reach)
    order = order[np.argsort(n_rows[order])[::-1]]
    srows = rows.reshape(-1, 2, 2)[order].reshape(-1, 2)
    n_suffix = n_rows[order]
    for k, (transposed, n_prefix, visit, mx) in enumerate(scans, _TREE_DEPTH + 1):
        for i in visit:
            hi = int(np.count_nonzero(
                (0.5 * (1.0 + _MARGIN)) * n_prefix[i] * n_suffix >= mx))
            if hi == 0:
                break  # the later prefixes have no larger norm
            mx = max(mx, _twice_sq_norm_max(srows[:2 * hi] @ transposed[i]))
        out.append(math.sqrt(0.5 * mx) ** (1.0 / k))
    return out
