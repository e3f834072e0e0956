"""Frozen reference: ``jsr.gelfand_scan`` as it was before the power scan
moved to plain floats, one ``Mat2`` per product and a norm at every step.
tests/test_jsr.py requires the library's scan to give repr-identical
``GelfandScan`` results to this one.  Do not edit to follow the library.
"""

from __future__ import annotations

import math

from smplab.jsr import GelfandScan
from smplab.linalg import (
    Mat2,
    MatrixPair,
    operator_norm_2,
    renormalized,
    spectral_radius,
)


def gelfand_scan(p: MatrixPair, direction: str = "A_pow_B",
                 cap: int = 10_000) -> GelfandScan:
    if direction == "A_pow_B":
        pm, qm = p.A, p.B
    elif direction == "B_pow_A":
        pm, qm = p.B, p.A
    else:
        raise ValueError(f"direction must be 'A_pow_B' or 'B_pow_A', got {direction!r}")
    if pm.is_zero():
        raise ValueError("powered matrix is zero")
    if qm.is_zero():
        raise ValueError("companion matrix is zero")

    s = max(operator_norm_2(pm), operator_norm_2(qm))  # > 0: both nonzero
    pm_s = pm.divided_by(s)
    qm_s = qm.divided_by(s)
    log_nq = math.log(operator_norm_2(qm_s))

    best = spectral_radius(pm_s)  # the pure-power member of the supremum
    best_n: int | None = None
    log_norms = [0.0]  # log |P^n| for n = 0, 1, ...
    cur = Mat2.identity()
    cur_log = 0.0
    terminated = False
    n = 0
    while n <= cap:
        prod = cur @ qm_s
        r = spectral_radius(prod)
        if r > 0.0:
            root = math.exp((math.log(r) + cur_log) / (n + 1))
            if root > best:
                best = root
                best_n = n
        # tail certificate (checked densely early, then throttled)
        if n >= 1 and best > 0.0 and (n <= 512 or n % 128 == 0):
            alpha_log = log_norms[n] / n
            if alpha_log < math.log(best):
                k_log = max(log_norms[m] - m * alpha_log for m in range(n))
                num = k_log + log_nq - alpha_log
                den = math.log(best) - alpha_log
                if num <= 0.0 or n >= num / den - 1.0:
                    terminated = True
                    break
        cur, cur_log = renormalized(cur @ pm_s, cur_log)
        n += 1
        if cur.is_zero():  # nilpotent power: every later product vanishes
            terminated = True
            break
        log_norms.append(math.log(operator_norm_2(cur)) + cur_log)

    return GelfandScan(direction=direction, n_star=best_n, value=best * s,
                       terminated=terminated, scanned=n)
