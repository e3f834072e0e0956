"""Time the numpy scan kernels, cold and warm, and region classification.

Usage: python benchmarks/bench_kernels.py [--max-len 18] [--repeats 3]

Times scan_classes (necklace spectral scan) and norm_profile (full
product-tree norm maxima) on a fixed random pair at several lengths and
prints a table.  "cold" is the first call at each length, which also
builds the cached Lyndon code table (``words.lyndon_codes``) for the
lengths that table lacks; "warm" is the best of --repeats further calls.
The last line times the classify layer on 10^4 seeded N(0,1) pairs: the
scalar ``regions.classify`` per pair (Mat2 building included) against
``regions.classify_arrays`` per row, best of --repeats.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from smplab import kernels, regions
from smplab.linalg import Mat2, MatrixPair


def _once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-len", type=int, default=18)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    e = rng.standard_normal(8)
    scale = 1.0 / max(1.0, float(np.abs(e).max()) * 2.0)
    a = tuple(scale * x for x in e[:4])
    b = tuple(scale * x for x in e[4:])

    lengths = [ln for ln in (10, 14, 16, 18, 20, 22) if ln <= args.max_len]
    print(f"{'kernel':<14} {'L':>3} {'cold':>10} {'warm':>10}")
    for name, fn in (
        ("scan_classes", lambda ln: kernels.scan_classes(a, b, ln, 1e-9)),
        ("norm_profile", lambda ln: kernels.norm_profile(a, b, ln)),
    ):
        for ln in lengths:
            t_cold = _once(lambda: fn(ln))
            t_warm = min(_once(lambda: fn(ln)) for _ in range(args.repeats))
            print(f"{name:<14} {ln:>3} {t_cold:>9.4f}s {t_warm:>9.4f}s")

    rows = np.random.default_rng(0).standard_normal((10_000, 8))
    t_scalar = min(_once(lambda: [regions.classify(MatrixPair(Mat2(*r[:4]), Mat2(*r[4:])))
                                  for r in rows.tolist()])
                   for _ in range(args.repeats))
    t_arrays = min(_once(lambda: regions.classify_arrays(rows)) for _ in range(args.repeats))
    n = len(rows)
    print(f"{'classify':<14} n={n}: scalar {t_scalar / n * 1e6:.2f} us/pair, "
          f"arrays {t_arrays / n * 1e6:.3f} us/row ({t_scalar / t_arrays:.0f}x)")


if __name__ == "__main__":
    main()
