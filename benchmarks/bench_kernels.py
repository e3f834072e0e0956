"""Benchmark the compiled scan kernels against the numpy fallback.

Usage: python benchmarks/bench_kernels.py [--max-len 18] [--repeats 3]

Times scan_classes (necklace spectral scan) and norm_profile (full
product-tree norm maxima) on a fixed random pair at several lengths and
prints a table with the speedup of the compiled extension.  The fallback
is timed twice: "cold" is its first call at each length, which also
builds the cached Lyndon code table (``words.lyndon_codes``) for the
lengths that table lacks; "warm" is the best of --repeats further calls.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from smplab.kernels import _fallback

try:
    from smplab.kernels import _ext
except ImportError:
    _ext = None


def _once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _time(fn, repeats: int) -> float:
    return min(_once(fn) for _ in range(repeats))


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
    print(f"{'kernel':<14} {'L':>3} {'py cold':>10} {'py warm':>10} "
          f"{'cython':>10} {'speedup':>8}")
    for name, pyfn, extfn in (
        ("scan_classes",
         lambda ln: _fallback.scan_classes(a, b, ln, 1e-9),
         (lambda ln: _ext.scan_classes(a, b, ln, 1e-9)) if _ext else None),
        ("norm_profile",
         lambda ln: _fallback.norm_profile(a, b, ln),
         (lambda ln: _ext.norm_profile(a, b, ln)) if _ext else None),
    ):
        for ln in lengths:
            t_cold = _once(lambda: pyfn(ln))
            t_py = _time(lambda: pyfn(ln), args.repeats)
            row = f"{name:<14} {ln:>3} {t_cold:>9.4f}s {t_py:>9.4f}s"
            if extfn is None:
                print(f"{row} {'n/a':>10} {'n/a':>8}")
                continue
            t_ext = _time(lambda: extfn(ln), args.repeats)
            print(f"{row} {t_ext:>9.4f}s {t_py / t_ext:>7.1f}x")
    if _ext is None:
        print("\ncompiled extension not built; only the fallback was timed")


if __name__ == "__main__":
    main()
