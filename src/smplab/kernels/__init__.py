"""Product-scan kernels: compiled core with a vectorized numpy fallback.

Two functions do the heavy lifting of the brute-force bounds:

``scan_classes(a, b, max_len, tie_tol)``
    Per-length best (and second-best) spectral-radius roots over one
    Lyndon representative per primitive cyclic class, plus every word
    whose root lies within ``tie_tol`` of the global best.

``norm_profile(a, b, max_len)``
    Per-length maximum of the Euclidean operator norm over all 2^k
    products, reported as k-th roots.

Matrices are passed as flat (a11, a12, a21, a22) tuples known to be
pre-scaled by the caller.  The compiled extension is used when
importable; set SMPLAB_PURE_PYTHON=1 to force the fallback.

Cost of the numpy fallback (``_fallback``), in 2x2 products for
L = max_len and T = min(L, 14):

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

import os

from . import _fallback

if os.environ.get("SMPLAB_PURE_PYTHON"):
    _impl = _fallback
else:
    try:
        from . import _ext as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _fallback

BACKEND: str = _impl.BACKEND
scan_classes = _impl.scan_classes
norm_profile = _impl.norm_profile

__all__ = ["BACKEND", "scan_classes", "norm_profile"]
