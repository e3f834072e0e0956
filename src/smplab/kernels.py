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
  takes their spectral radii in one pass, and each length's best root,
  its first word, the runner-up and later the ties with
  ``np.maximum.reduceat`` and ``np.flatnonzero`` over all those roots at
  once; only the k-th roots are taken per length, as numpy's power keeps
  its paths (0.5 is a sqrt) for a scalar exponent.  A Lyndon word of
  length k > 14 reads its 14-letter prefix and takes k - 14 more
  products.  Lyndon words come from ``words.lyndon_codes``, integer
  tables cached per length for the life of the process: about 2^k/k
  int64 codes for length k, 0.2 MB up to L = 18 and 11 MB up to L = 24,
  built in about 10 ms and 0.8 s.  Ties become strings from a matrix of
  '0' and '1' bytes, 2^16 at a time: in one pass the 1.5 M ties of an
  orthogonal pair at L = 24 raise ``brute_force``'s peak memory from
  334 MB to 422 MB.
- ``norm_profile`` builds the right-associated tree of all 2^(T+1) - 2
  words, also in one buffer, takes the Frobenius sums t of all its
  levels in one pass and each level's largest t with
  ``np.maximum.reduceat``, and the closed-form norm only for the rows
  that the screen below leaves (a few percent of them on N(0,1) pairs);
  for each k > 14 it multiplies prefixes of k - 14 letters (read from a
  left tree) into the level-14 rows that the bounds leave, one slice of
  them per prefix.

So a short scan, such as the L = 12 bracket of ``jsr.certify``, makes
one pass of each closed form, not one per length.

Pruning.  Up to L = 14 ``scan_classes`` evaluates every word.
``norm_profile`` needs only each level's largest N = 2|P|^2 as computed,
N = t + sqrt(t^2 - 4 d^2), with t = |P|_F^2, the squares summed in P's
entry order, and d = det P.  As computed, t <= N <= 2 t (1 + 2u) +
2^-537.4 (u = 2^-53): fl(t^2) is at most t^2 (1 + u) + 2^-1075, as its
rounding below 2^-1022 is absolute, fl(4 d^2) >= 0, and sqrt(t^2 +
2^-1075) <= t + 2^-537.5.  A level's largest t is at most its largest N,
so a row with 2 t (1 + 4u) + 2^-536 below it cannot hold the level's
maximum.  The screen keeps the rows with t >= (max t - 2^-536) / 2 times
1 - 2^-48, a superset of the others (the factor covers the roundings of
the test), and the maximum over them is the same float.  The absolute
term matters: near t = 2^-537.5, fl(t^2) rounds up to 2^-1074 and N
reads 2.4 t.

A word of length k > 14 is its 14-letter prefix P, read from the tree,
times its r = k - 14 letter tail, and |P T| <= |P| |T| (Gripenberg,
"Computing the joint spectral radius", LAA 234, 1996) rules most of
these products out.  Where a norm serves only as such a bound, the
kernels take the Frobenius bound |X| <= sqrt(t): it has no cancellation,
is loose by at most sqrt(2), and is nearly tight on the 14-letter
products, which are close to rank one.  The short tails and prefixes are
far from rank one, so they keep the closed form (on seeded N(0,1) pairs
at L = 18, Frobenius tails let through 14% more words):

- ``scan_classes`` bounds each word's root by (sqrt(t_P) |T|)^(1/k), times
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
  the _SEED_WORDS level-14 rows S of largest 2 t_S, and mx is the
  largest N of those products.  It multiplies a prefix P only into the
  rows S with 0.5 N(P) 2 t_S (1 + _MARGIN) >= mx, where mx is the
  running maximum; as N(P) <= N(P1) and mx only grows, only the rows
  that pass this test for P1 at the first mx of some length are sorted
  by bound (a median of 2 of 16 384 on seeded N(0,1) pairs at L = 18).
  It visits the prefixes in descending norm; the rows of each are a
  leading slice ``srows[:hi]`` of those, no copy.  A prefix with no such
  row ends the length.

Every value that is computed is the same matmul in the same association
as without pruning or the screen, and a skipped one cannot reach the
result, so the output is bit for bit the same.  The bounds hold for the
computed values because:

- one product: each entry of fl(XY) is within 2u (|x_i1 y_1j| + |x_i2 y_2j|)
  of the exact one, so |fl(XY)| <= |X| |Y| (1 + 4.1u);
- the Frobenius sums: the computed t is within 4u t of the exact sum of
  squares, which is at least |X|^2, so sqrt(t) and 2t bound |X| and
  2|X|^2 to within a few u;
- the closed forms: the computed t^2 - 4 d^2 is off by at most about
  16u t^2 <= 64u |X|^4, and tr^2 - 4 det by about 28u |X|^2.  Their
  square roots are off by sqrt(64u) |X|^2 and sqrt(28u) |X|, so N and
  rho come within 4e-8 (2|X|^2) and 3e-8 |X| of the exact values: this
  is the cancellation of ROADMAP item 9, far above u.  It enters the
  values compared (every rho and N) and the tail and prefix bounds;
- the tail: a word's product is ((P M1) M2) ... Mr, while T is computed
  as (M1 M2) ... Mr.  Each is off from its exact product by at most
  ((1 + 4.1u)^r - 1) mu^r, times |P| for the first, with mu = max(|A|, |B|).
  That is not small against |T| when the tail cancels, so the scan adds
  _REASSOC r mu^r to |T| (1e-15 >= 2 * 4.1u, with room for rounding mu);
- range: every bound on N is raised to _N_FLOOR, and every t to half of
  it.  A computed value below a quarter of that can read up to 2x low,
  as its squares underflow, and the floor then bounds it; above that,
  the underflow is far below u.  By the input contract nothing overflows.

Together a computed value exceeds its computed bound by a factor below
1 + 1e-7 before the margin (the closed forms' 4e-8 twice, in the value
and in one factor of the bound), and the k-th root and the few
roundings of the bound add a few u: _MARGIN = 1e-6 covers that ten
times over.

What outlives a call: the Lyndon tables (``words.lyndon_codes``, and
their concatenated index per tree depth, 40 KB at depth 14), and one
buffer per tree per thread (``threading.local``), so that a call does
not fault fresh pages in: the left tree (1 MB at L >= 14), the right
tree (1 MB) and ``norm_profile``'s prefix tree (64 KB at L = 24), 2.1 MB
per thread in all.  Each grows to the largest call so far and is sliced
to size.  Nothing returned is a view of them, and the rows that a call
leaves unset are never read.  Freshly allocated, the two large trees
came from the OS and went back to it on every call: inside perfbench's
loop a copar-sturmian call took 88-114 minor faults, now about 8.  Up to
L = 18 no other array holds more than 2^14 products.  Warm timings on a
2-CPU host (the pairs of ``benchmarks/bench_kernels.py``: a fixed random
pre-scaled pair, then the worst case, an orthogonal pair where every
product has norm 1 and nothing is pruned), best of 7 calls in each of
two rounds, with the kernels before the tree buffers and the screen in
brackets, from the same rounds:

=====  ==============  ==============  ================  ================
L      scan_classes    norm_profile    scan_classes      norm_profile
       (random, ms)    (random, ms)    (orthogonal, ms)  (orthogonal, ms)
=====  ==============  ==============  ================  ================
18     1.2-1.7 [1.3]   1.1 [0.8]       8.5-13 [9.7-10]   8.7-12 [7.4-7.7]
20     2.3-2.9 [2.4]   0.8-1.3 [0.9]   43-60 [47-48]     30-43 [28-29]
=====  ==============  ==============  ================  ================

One pair called over and over is the case the buffers do not help: the
allocator then hands the same fresh pages back each time.  On the
orthogonal pair every row passes the screen, which then only adds its
gather.  On 20 seeded N(0,1) pairs in turn, ``norm_profile`` at L = 18
takes about 0.95 ms against 1.6-1.8 ms before.  At L = 24 the random
pair takes 19-40 ms and 1.2-2.8 ms (before the tree buffers).  A pair
where nothing prunes: at L = 24 ``scan_classes`` holds the 698 870
products of the longest Lyndon words at once (22 MB), ``brute_force``
peaks at about 330 MB of resident memory (341 MB before), and the
kernels take 0.73-0.77 s and 0.47-0.52 s.  ``BENCH_deep_scan.json`` and
``BENCH_tree_buffers.json`` hold these runs, the earlier kernels' and
the end-to-end ones.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

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

# the norm screen (see Pruning): N <= 2 t (1 + 4u) + _T_UNDERFLOW as computed
_T_UNDERFLOW = 2.0 ** -536
_SCREEN_SLACK = 1.0 - 2.0 ** -48

_NEG_INF = float("-inf")

# tree buffers kept between calls, one set per thread (see the docstring)
_workspace = threading.local()


def _buffer(slot: str, size: int) -> np.ndarray:
    """The first ``size`` floats of this thread's buffer ``slot``, grown when
    too small.  Rows hold whatever an earlier call left in them."""
    buf = getattr(_workspace, slot, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size)
        setattr(_workspace, slot, buf)
    return buf[:size]


def _left_tree(a: np.ndarray, b: np.ndarray, depth: int, full: int | None = None,
               slot: str = "left") -> tuple[np.ndarray, list[np.ndarray]]:
    """Row 2^k - 1 + code(w) holds ((I @ M_w1) @ M_w2) ... @ M_wk, k <= depth.

    Returns that one buffer, a view of the workspace ``slot``, and its
    levels: level k, rows 2^k - 1 on, is a view.  Level k is level k-1
    times A and times B, interleaved so that row 2i + c of the level is
    row i of level k-1 times M_c (M_0 = A, M_1 = B): one GEMM per letter on
    the stacked rows of level k-1, copied into its slots.  Given ``full``,
    the levels deeper than it hold only their first half, the words that
    start with A, made from the first half of the level above; the rest
    keeps what an earlier call left there and is never read.
    """
    tree = _buffer(slot, ((2 << depth) - 1) * 4).reshape(-1, 2, 2)
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


@lru_cache(maxsize=None)
def _short_tables(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every Lyndon word of 1..depth letters, by length and then code:
    its row in a left tree, its code, and where each length starts (a
    final entry closes the last).  Cached like ``lyndon_codes``; read-only."""
    codes = [lyndon_codes(k) for k in range(1, depth + 1)]
    rows = np.concatenate([c + ((1 << k) - 1) for k, c in enumerate(codes, 1)])
    starts = np.cumsum([0] + [len(c) for c in codes])
    tables = rows, np.concatenate(codes), starts
    for table in tables:
        table.setflags(write=False)
    return tables


def _rhos(prods: np.ndarray) -> np.ndarray:
    tr = prods[:, 0, 0] + prods[:, 1, 1]
    det = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = tr * tr - 4.0 * det
    real = disc >= 0.0
    out = np.empty(len(prods))
    out[real] = 0.5 * (np.abs(tr[real]) + np.sqrt(disc[real]))
    out[~real] = np.sqrt(det[~real])  # disc < 0 forces det > 0
    return out


def _sq_sums(p11, p12, p21, p22) -> np.ndarray:
    """t = |P|_F^2, the squares summed left to right, as ``sum(axis=(1, 2))`` does."""
    return p11 * p11 + p12 * p12 + p21 * p21 + p22 * p22


def _twice_sq_norms(p11, p12, p21, p22, t=None) -> np.ndarray:
    """t + sqrt(t^2 - 4 d^2) = 2 |P|^2 for the matrices with these entry arrays.

    |P| = sqrt(0.5 * that), and sqrt and the halving are monotone, so
    the batch's largest norm is sqrt(0.5 * the largest of these), exactly.
    ``t`` is ``_sq_sums`` of the same entries, if already at hand.  A batch
    of products P passes ``*P.reshape(-1, 4).T``;
    ``regions.classify_arrays`` passes its contiguous entry rows.
    """
    if t is None:
        t = _sq_sums(p11, p12, p21, p22)
    d = p11 * p22 - p12 * p21
    return t + np.sqrt(np.maximum(t * t - 4.0 * d * d, 0.0))


def _transposed(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries (p11, p12, p21, p22) = (t11, t21, t12, t22) of products P
    stored as the rows of P^T."""
    t11, t12, t21, t22 = rows.reshape(-1, 4).T
    return t11, t21, t12, t22


def _transposed_norms(rows: np.ndarray) -> np.ndarray:
    """2 |P|^2 for products P stored as the rows of P^T, summing the
    squares in P's entry order."""
    return _twice_sq_norms(*_transposed(rows))


def _twice_sq_norm_max(rows: np.ndarray) -> float:
    return float(_transposed_norms(rows).max())


def _frobenius_bounds(prods: np.ndarray) -> np.ndarray:
    """|P| <= sqrt(t), with t raised to _N_FLOOR / 2 (Pruning)."""
    return np.sqrt(np.maximum(_sq_sums(*prods.reshape(-1, 4).T), 0.5 * _N_FLOOR))


def _floored_norms(prods: np.ndarray) -> np.ndarray:
    """2 |P|^2 raised to _N_FLOOR: an upper bound to within 1e-7 (Pruning)."""
    return np.maximum(_twice_sq_norms(*prods.reshape(-1, 4).T), _N_FLOOR)


def _level_norm_maxima(rows: np.ndarray, t: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The largest 2 |P|^2 of each level of transposed products, levels
    starting at ``starts``, given their Frobenius sums ``t``.

    Only the rows that the screen leaves (Pruning) take the closed form;
    the maximum over them is the same float as over all rows.
    """
    t_max = np.maximum.reduceat(t, starts)
    floor = (t_max - _T_UNDERFLOW) * (0.5 * _SCREEN_SLACK)
    # ~(t < floor) keeps a NaN row, and every row of a NaN level
    keep = np.flatnonzero(~(t < np.repeat(floor, np.diff(starts, append=len(t)))))
    n = _twice_sq_norms(*_transposed(rows.reshape(-1, 4)[keep]), t=t[keep])
    return np.maximum.reduceat(n, np.searchsorted(keep, starts))


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


def _tie_words(codes: np.ndarray, k: int) -> list[str]:
    """The k-letter words of these codes, via a matrix of '0' and '1' bytes
    read as k-byte strings (codes are below 2^28, so their 32 bits
    big-endian end in the word)."""
    bits = np.unpackbits(codes.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
    words = (bits[:, 32 - k:] + np.uint8(ord("0"))).view(f"S{k}").ravel().tolist()
    return [w.decode() for w in words]


def scan_classes(a, b, max_len: int, tie_tol: float):
    """Per-length class scan over Lyndon words (see the module docstring)."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)
    shallow = min(max_len, _TREE_DEPTH)
    # Lyndon words of length 2 or more, and so the prefixes that deeper
    # words read, start with A; only the tails' levels are needed whole
    buffer, tree = _left_tree(a, b, shallow, max(1, max_len - _TREE_DEPTH))

    # every Lyndon word up to the tree depth in one gather and one _rhos
    # call, and each length's best, first best and runner-up in one
    # reduceat pass; roots per length, so that numpy's power keeps its
    # paths for a scalar exponent (0.5 is a sqrt)
    rows, short_codes, starts = _short_tables(shallow)
    ends = starts.tolist()
    short_roots = _rhos(buffer[rows])
    for k in range(1, shallow + 1):
        short_roots[ends[k - 1]:ends[k]] **= 1.0 / k
    top = np.maximum.reduceat(short_roots, starts[:-1])
    hits = np.flatnonzero(short_roots == np.repeat(top, np.diff(starts)))
    first = hits[np.searchsorted(hits, starts[:-1])]  # lex-least on ties
    rest = short_roots.copy()
    rest[first] = _NEG_INF
    best_root = [math.nan, *top.tolist()]
    best_word: list[str | None] = [None] + [
        format(code, f"0{k}b") for k, code in enumerate(short_codes[first].tolist(), 1)]
    second_root = [math.nan, *np.maximum.reduceat(rest, starts[:-1]).tolist()]

    deep: list[tuple[int, np.ndarray, np.ndarray]] = []
    if max_len > _TREE_DEPTH:
        heads = _frobenius_bounds(tree[_TREE_DEPTH][:1 << (_TREE_DEPTH - 1)])
        tails = [np.sqrt(0.5 * _floored_norms(level))
                 for level in tree[:max_len - _TREE_DEPTH + 1]]
    for k in range(_TREE_DEPTH + 1, max_len + 1):
        codes = _candidates(tree, heads, tails, lyndon_codes(k), k, a, b,
                            max(best_root[1:k]), tie_tol)
        roots = _word_rhos(tree, codes, k, a, b) ** (1.0 / k)
        i = int(np.argmax(roots))  # first occurrence = lex-least on ties
        best_root.append(float(roots[i]))
        best_word.append(format(int(codes[i]), f"0{k}b"))
        second_root.append(float(np.partition(roots, -2)[-2]) if len(roots) >= 2
                           else _NEG_INF)
        deep.append((k, codes, roots))

    # the ties, by length and then code, 2^16 words at a time to bound the
    # temporaries
    cut = max(best_root[1:]) - tie_tol
    hit = np.flatnonzero(short_roots >= cut)
    at = np.searchsorted(hit, starts).tolist()
    kept = [(k, short_codes, short_roots, hit[at[k - 1]:at[k]]) for k in range(1, shallow + 1)]
    kept += [(k, codes, roots, np.flatnonzero(roots >= cut)) for k, codes, roots in deep]
    ties = []
    for k, codes, roots, hit in kept:
        for lo in range(0, len(hit), 1 << 16):
            part = hit[lo:lo + (1 << 16)]
            ties.extend(zip(_tie_words(codes[part], k), roots[part].tolist()))
    return best_root, best_word, second_root, ties


def norm_profile(a, b, max_len: int):
    """Per-length max operator norm over all products (see the module docstring)."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)

    # right-associated: level k is [A @ level k-1, B @ level k-1], each
    # product P held as the rows of P^T, so that A @ P is the one GEMM
    # rows(P^T) @ A^T per level (see the module docstring).  One buffer
    # holds every level, level k from row 2^(k+1) - 4 on; one screened
    # norm pass covers them all.
    shallow = min(max_len, _TREE_DEPTH)
    at, bt = a.T.copy(), b.T.copy()
    tree = _buffer("right", ((4 << shallow) - 4) * 2).reshape(-1, 2)
    tree[:4] = np.concatenate([at, bt])
    for k in range(2, shallow + 1):
        shorter = tree[(1 << k) - 4:(2 << k) - 4]
        level = tree[(2 << k) - 4:(4 << k) - 4].reshape(2, -1, 2)
        np.matmul(shorter, at, out=level[0])
        np.matmul(shorter, bt, out=level[1])
    t = _sq_sums(*_transposed(tree))
    peaks = _level_norm_maxima(tree, t, (2 << np.arange(shallow)) - 2).tolist()
    out = [math.nan] + [math.sqrt(0.5 * m) ** (1.0 / k) for k, m in enumerate(peaks, 1)]
    if max_len <= _TREE_DEPTH:
        return out
    rows = tree[(2 << _TREE_DEPTH) - 4:]

    # deeper words: each left-associated prefix P times the top level.  Each
    # length starts from its largest prefix times the _SEED_WORDS rows of
    # largest bound; only the rows that some prefix can then still need (see
    # Pruning) are sorted by bound, so that those of P are the slice
    # srows[:2 hi].  P @ S is the GEMM rows(S^T) @ P^T
    n_rows = np.maximum(2.0 * t[(1 << _TREE_DEPTH) - 2:], _N_FLOOR)
    top = np.argpartition(n_rows, -_SEED_WORDS)[-_SEED_WORDS:]
    seeds = rows.reshape(-1, 2, 2)[top].reshape(-1, 2)
    _, prefixes = _left_tree(a, b, max_len - _TREE_DEPTH, slot="prefixes")
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
