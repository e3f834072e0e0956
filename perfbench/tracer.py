"""Spans and counters around smplab's layer boundaries, for the traced run.

``Tracer`` rebinds each measured function in every smplab module namespace
that holds it, which is where the library's own call sites look it up
(``jsr`` calls ``kernels.scan_classes``, ``sturmian`` calls its imported
``christoffel``, and so on); leaving the ``with`` block restores them.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.

``words.lyndon_words`` is a generator: its wrapper drains it into a list
inside the span, so the span covers exactly the time spent generating.
``linalg.spectral_radius`` and ``Mat2 @ Mat2`` are counted, not spanned:
they are called millions of times, and a span each would cost more than
the call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from functools import lru_cache, wraps

from smplab import jsr, kernels, linalg, regions, sturmian, words
from smplab.linalg import Mat2

ROUTES = {
    "reducible-triangularizable": "reducible",
    "crossing-single-letter": "crossing",
    "negative-determinants-short-list": "negative",
    "negative-determinants-reflection-degenerate": "negative-degenerate",
    "mixed-determinants-power-scan": "mixed",
    "mixed-determinants-power-scan-unterminated": "mixed-unterminated",
    "co-parallel-sturmian-candidate": "copar",
    "brute-force-only": "brute-force-only",
}
OTHER_ROUTE = "other"


@lru_cache(maxsize=None)
def lyndon_count(max_len: int) -> int:
    """Binary Lyndon words of length <= max_len, by Moebius inversion."""
    def mobius(n: int) -> int:
        out, d = 1, 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if n > 1 else out

    return sum(sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
               for n in range(1, max_len + 1))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _gelfand(c, args, kwargs, out):
    c["iterations"] += out.scanned
    c["terminated"] += out.terminated


def _scan_classes(c, args, kwargs, out):
    c["words"] += lyndon_count(_arg(args, kwargs, 2, "max_len"))


def _norm_profile(c, args, kwargs, out):
    c["products"] += 2 ** (_arg(args, kwargs, 2, "max_len") + 1) - 2


def _christoffel(c, args, kwargs, out):
    c["letters"] += _arg(args, kwargs, 1, "q")


def _maximize(c, args, kwargs, out):
    n = len(out.grid)
    c["samples"] += n
    c["audit_pairs"] += n * (n - 1) // 2
    c[f"samples={n}"] += 1


def _eager(gen_fn):
    @wraps(gen_fn)
    def drained(*args, **kwargs):
        return iter(list(gen_fn(*args, **kwargs)))
    return drained


# layer name -> (function as the library binds it, counter hook or None)
SPANNED = {
    "jsr.certify": (jsr.certify, None),
    "jsr.brute_force": (jsr.brute_force, None),
    "jsr.gelfand_scan": (jsr.gelfand_scan, _gelfand),
    "kernels.scan_classes": (kernels.scan_classes, _scan_classes),
    "kernels.norm_profile": (kernels.norm_profile, _norm_profile),
    "words.lyndon_words": (words.lyndon_words, None),
    "words.christoffel": (words.christoffel, _christoffel),
    "sturmian.maximize_sturmian": (sturmian.maximize_sturmian, _maximize),
    "sturmian.lyapunov_rational": (sturmian.lyapunov_rational, None),
    "linalg.scaled_word_product": (linalg.scaled_word_product, None),
    "regions.classify": (regions.classify, None),
    "regions.monte_carlo_regions": (regions.monte_carlo_regions, None),
}
COUNTED = {"linalg.spectral_radius": linalg.spectral_radius}


def _per_layer() -> dict[str, str]:
    names = {}
    for name in SPANNED:
        names[f"{name}.calls"] = "count"
        names[f"{name}.self_s"] = "s"
    for name in ("jsr.gelfand_scan.iterations", "kernels.scan_classes.words",
                 "kernels.norm_profile.products", "words.christoffel.letters",
                 "sturmian.maximize_sturmian.samples",
                 "sturmian.maximize_sturmian.audit_pairs",
                 "linalg.spectral_radius.calls", "linalg.mat2_matmul.calls"):
        names[name] = "count"
    names["jsr.gelfand_scan.terminated_ratio"] = "ratio"
    for route in [*ROUTES.values(), OTHER_ROUTE]:
        for key, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
            names[f"jsr.certify.route.{route}.{key}"] = unit
    names.update({"trace.top_level_s": "s", "trace.layers_self_s": "s",
                  "trace.overhead_ratio": "ratio", "failed_ratio": "ratio",
                  "known_defect.failed_ratio": "ratio"})
    return names


# every per-layer metric a traced run reports, with its unit
PER_LAYER = _per_layer()


class Tracer:
    """Context manager: installs the wrappers, collects spans and counts."""

    def __init__(self) -> None:
        # (id, parent, request, name, start, end)
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.routes: dict[int, str] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, hook):
        counters = self.counters[name]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            if parent is None:
                self._request += 1
            sid = self._next_id
            self._next_id += 1
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, self._request, name, start, end))
            if hook is not None:
                hook(counters, args, kwargs, out)
            if name == "jsr.certify":
                self.routes[sid] = ROUTES.get(out.certificate, OTHER_ROUTE)
            return out
        return wrapper

    def _count(self, name: str, fn):
        counters = self.counters[name]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counters["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "smplab" or mod_name.startswith("smplab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        for name, (fn, hook) in SPANNED.items():
            target = _eager(fn) if name == "words.lyndon_words" else fn
            self._rebind(fn, self._span(name, target, hook))
        for name, fn in COUNTED.items():
            self._rebind(fn, self._count(name, fn))
        matmul = Mat2.__matmul__
        self._patched.append((Mat2, "__matmul__", matmul))
        Mat2.__matmul__ = self._count("linalg.mat2_matmul", matmul)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self seconds and work counters."""
        selfs = self.self_times()
        m: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for sid, parent, _, name, start, end in self.spans:
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += selfs[sid]
            if parent is None:
                top_level += end - start
            if name == "jsr.certify":
                route = self.routes.get(sid, OTHER_ROUTE)
                m[f"jsr.certify.route.{route}.calls"] += 1
                m[f"jsr.certify.route.{route}.self_s"] += selfs[sid]
                m[f"jsr.certify.route.{route}.total_s"] += end - start
        for name, counts in self.counters.items():
            for key, value in counts.items():
                if not key.startswith("samples="):
                    m[f"{name}.{key}"] += value
        g = self.counters["jsr.gelfand_scan"]
        calls = m["jsr.gelfand_scan.calls"]
        m["jsr.gelfand_scan.terminated_ratio"] = g["terminated"] / calls if calls else 0.0
        m.pop("jsr.gelfand_scan.terminated", None)
        m["trace.top_level_s"] = top_level
        m["trace.layers_self_s"] = sum(selfs.values())
        return dict(m)

    def sample_counts(self) -> dict[int, int]:
        """maximize_sturmian calls by the number of samples they took."""
        counts = self.counters["sturmian.maximize_sturmian"]
        return {int(k.split("=")[1]): v for k, v in sorted(counts.items())
                if k.startswith("samples=")}

    def write_spans(self, path, header: dict) -> None:
        """One JSON object per line: a header, then every span in end order."""
        selfs = self.self_times()
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request, "name": name,
                    "start": start - t0, "end": end - t0, "self": selfs[sid],
                }) + "\n")
