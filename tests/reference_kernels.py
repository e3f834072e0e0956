"""Frozen reference: the numpy scan kernels as they were before the
product-tree rewrite, one Duval string per Lyndon word and one stacked
matmul per letter.  tests/test_kernels.py requires the current kernels to
give repr-identical output to these.  Do not edit to follow the library.
"""

from __future__ import annotations

import math

import numpy as np

from smplab.words import lyndon_words

_SUFFIX_MAX = 14

_NEG_INF = float("-inf")


def _rhos(prods: np.ndarray) -> np.ndarray:
    tr = prods[:, 0, 0] + prods[:, 1, 1]
    det = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = tr * tr - 4.0 * det
    real = disc >= 0.0
    out = np.empty(len(prods))
    out[real] = 0.5 * (np.abs(tr[real]) + np.sqrt(disc[real]))
    out[~real] = np.sqrt(det[~real])  # disc < 0 forces det > 0
    return out


def _norms(prods: np.ndarray) -> np.ndarray:
    t = (prods * prods).sum(axis=(1, 2))
    d = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = np.maximum(t * t - 4.0 * d * d, 0.0)
    return np.sqrt(0.5 * (t + np.sqrt(disc)))


def _batch_products(word_rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = word_rows.shape
    prods = np.broadcast_to(np.eye(2), (m, 2, 2)).copy()
    for i in range(k):
        is_b = (word_rows[:, i] == 1)[:, None, None]
        prods = np.where(is_b, prods @ b, prods @ a)
    return prods


def scan_classes(a, b, max_len: int, tie_tol: float):
    """See smplab.kernels: per-length class scan over Lyndon words."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)

    by_len: list[list[str]] = [[] for _ in range(max_len + 1)]
    for w in lyndon_words(max_len):
        by_len[len(w)].append(w)

    best_root = [math.nan] * (max_len + 1)
    best_word: list[str | None] = [None] * (max_len + 1)
    second_root = [math.nan] * (max_len + 1)
    kept: list[tuple[int, list[str], np.ndarray]] = []

    for k in range(1, max_len + 1):
        ws = by_len[k]
        rows = np.frombuffer("".join(ws).encode("ascii"), dtype=np.uint8)
        rows = rows.reshape(len(ws), k) - ord("0")
        roots = _rhos(_batch_products(rows, a, b)) ** (1.0 / k)
        i = int(np.argmax(roots))  # first occurrence = lex-least on ties
        best_root[k] = float(roots[i])
        best_word[k] = ws[i]
        if len(roots) >= 2:
            second_root[k] = float(np.partition(roots, -2)[-2])
        else:
            second_root[k] = _NEG_INF
        kept.append((k, ws, roots))

    gbest = max(best_root[1:])
    ties = []
    for k, ws, roots in kept:
        for i in np.flatnonzero(roots >= gbest - tie_tol):
            ties.append((ws[int(i)], float(roots[int(i)])))
    return best_root, best_word, second_root, ties


def norm_profile(a, b, max_len: int):
    """See smplab.kernels: per-length max operator norm over all products."""
    a = np.asarray(a, dtype=float).reshape(2, 2)
    b = np.asarray(b, dtype=float).reshape(2, 2)

    out = [math.nan] * (max_len + 1)
    levels: dict[int, np.ndarray] = {1: np.stack([a, b])}
    top = min(max_len, _SUFFIX_MAX)
    for k in range(2, top + 1):
        prev = levels[k - 1]
        levels[k] = np.concatenate([a @ prev, b @ prev])
    for k in range(1, top + 1):
        out[k] = float(_norms(levels[k]).max()) ** (1.0 / k)

    suffix = levels.get(top)
    for k in range(top + 1, max_len + 1):
        r = k - top
        mx = 0.0
        for idx in range(1 << r):
            prefix = np.eye(2)
            for shift in range(r - 1, -1, -1):
                prefix = prefix @ (b if (idx >> shift) & 1 else a)
            mx = max(mx, float(_norms(prefix @ suffix).max()))
        out[k] = mx ** (1.0 / k)
    return out
