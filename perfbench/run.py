"""smplab's benchmark: one closed-loop client driving the public functions.

    python3 perfbench/run.py --workload certify-stream --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): certify-stream, copar-sturmian, bounds-deep,
montecarlo.  Each call starts when the previous one returns, in this one
process; nothing runs in parallel.  Inputs come from --seed alone.

--trace 0 prints the end-to-end metrics: items_per_s, latency_p50_ms,
latency_tail_ms (a fixed per-workload percentile, named in the report),
setup_s (median over fresh processes, each timed from ``import smplab``
to the end of the warm-up calls) and peak_rss_mb.  --trace 1 runs the
same loop untraced for half the time, then replays those inputs traced
for the other half, and prints the per-layer metrics; spans go to
.perfbench-out/ as JSON lines.

Reference-speed times.  On a shared host the interpreter's speed drifts
by up to 2x within seconds to minutes (other load on the host), which swamps
any change worth measuring.  So the loop times a fixed power scan written
like smplab's own loops (``calibrate``) every CAL_EVERY_S, and each
call's wall time is scaled by CAL_REFERENCE_S over the mean of the two
calibrations around it: end-to-end times read as on a host where that
scan takes 6 ms.  setup_s is scaled likewise; its import part by a
reference process that imports numpy instead (see setup_seconds).  The
report line also gives the raw wall-clock values and the median scale.

Every result is checked as its call returns, outside the timed region.
A call that raises or fails its check counts in ``failed``.  ``correct``
is false when a check fails on an input outside the workload's
documented known-defect class.  Inputs that fail today because of a
known defect are kept out of the timed stream; a workload's probe checks
a seeded set of them once, untimed, and the report gives that count as
``known_defect_probe`` (--trace 1: ``known_defect.failed_ratio``).
The last stdout line is the result object; the line before it is a
report with the stamp (source revision, kernel backend, versions, CPUs,
seed), the tail percentile, failed_ratio, the known-defect probe and the
share of each stratum or certify route.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
# what smplab's import pulls in beyond the modules run.py already holds
SETUP_REFERENCE_MODULES = ("numpy", "concurrent.futures")
SETUP_REFERENCE_S = 0.1
SPOT_CHECK_EVERY = 10
CAL_ITERATIONS = 700
CAL_REFERENCE_S = 0.006
CAL_EVERY_S = 0.25


@dataclass(frozen=True, slots=True)
class _Cal2x2:
    """A validated 2x2 matrix shaped like smplab's Mat2, but owned here so
    that no change to the library can move the calibration."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(name)
            object.__setattr__(self, name, v)

    def __matmul__(self, o: "_Cal2x2") -> "_Cal2x2":
        return _Cal2x2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                       self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)


def calibrate() -> float:
    """Seconds for a fixed power scan in the style of smplab's hot loops:
    dataclass products, closed-form spectral radius, logs, renormalizing."""
    p = _Cal2x2(0.6, 0.3, -0.2, 0.9)
    m = _Cal2x2(1.0, 0.0, 0.0, 1.0)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(CAL_ITERATIONS):
        m = m @ p
        t = m.a + m.d
        det = m.a * m.d - m.b * m.c
        disc = t * t - 4.0 * det
        acc += math.log(0.5 * (abs(t) + math.sqrt(disc)) if disc >= 0.0 else math.sqrt(det))
        s = max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
        m = _Cal2x2(m.a / s, m.b / s, m.c / s, m.d / s)
    return time.perf_counter() - start


class Call(NamedTuple):
    item: Any
    route: str | None   # the certify certificate, when the call returns one
    why: str | None     # why the call failed (raised or failed its check)
    seconds: float      # wall time
    scale: float        # reference speed / speed around this call

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def _import_smplab():
    """Import the checkout's smplab, never an installed copy."""
    if not (SRC / "smplab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no smplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smplab
    if Path(smplab.__file__).resolve().parent != (SRC / "smplab").resolve():
        sys.exit(f"perfbench: imported smplab from {smplab.__file__}, not {SRC}")
    return smplab


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """Identifies the measured sources where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "smplab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(workload: str, seed: int, seconds: float) -> dict:
    import numpy
    import smplab.kernels
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "backend": smplab.kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def verdict(wl, out, item, spot_check: bool) -> str | None:
    """Why a call's outcome fails the workload's check, or None."""
    if isinstance(out, Exception):
        return f"raised {out!r}"
    why = wl.check(item, out)
    if why is None and spot_check and wl.spot_check is not None:
        why = wl.spot_check(item, out)
    return why


def timed_loop(wl, stream, seconds: float, spot_checks: bool = True) -> list[Call]:
    """Call until the calls' wall time reaches ``seconds``.

    Each result is checked as soon as the call returns and then dropped,
    so peak memory is the library's, not a pile of kept results.  Input
    generation, checks and calibration happen between calls and are not
    counted.  Spot checks call the library, so a traced run turns them off.
    """
    cals = [calibrate()]
    last_cal = time.perf_counter()
    raw = []
    busy = 0.0
    for i, item in enumerate(stream):
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            cals.append(calibrate())
            last_cal = time.perf_counter()
        start = time.perf_counter()
        try:
            out = wl.call(item)
        except Exception as exc:  # a failed call is a result, not the end of the run
            out = exc
        elapsed = time.perf_counter() - start
        why = verdict(wl, out, item, spot_checks and i % SPOT_CHECK_EVERY == 0)
        raw.append((item, getattr(out, "certificate", None), why, elapsed, len(cals) - 1))
        del out
        busy += elapsed
        if busy >= seconds:
            break
    cals.append(calibrate())
    return [Call(item, route, why, elapsed, 2.0 * CAL_REFERENCE_S / (cals[k] + cals[k + 1]))
            for item, route, why, elapsed, k in raw]


def check_results(wl, calls: list[Call]) -> tuple[int, bool, list[str]]:
    """(failed calls, no failure outside the known-defect class, reasons)."""
    failed = 0
    unexpected = False
    reasons = []
    for c in calls:
        if c.why is None:
            continue
        failed += 1
        known = wl.known_defect is not None and wl.known_defect(c.item)
        unexpected |= not known
        if len(reasons) < 5:
            reasons.append(("known defect: " if known else "") + c.why)
    return failed, not unexpected, reasons


def probe_known_defect(wl, seed: int) -> dict | None:
    """Check the workload's known-defect inputs once, untimed and untraced."""
    if wl.probe is None:
        return None
    items = wl.probe(seed)
    reasons = []
    for item in items:
        try:
            out = wl.call(item)
        except Exception as exc:
            out = exc
        why = verdict(wl, out, item, spot_check=False)
        if why is not None:
            reasons.append(why)
    return {"attempted": len(items), "failed": len(reasons), "failures": reasons[:3]}


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def shares(wl, calls: list[Call]) -> dict:
    """Share of calls per input stratum, per certify route, per defect class."""
    counts = Counter(f"stratum:{c.item.label}" for c in calls)
    for c in calls:
        if c.route is not None:
            counts[f"route:{c.route}"] += 1
        if wl.known_defect is not None and wl.known_defect(c.item):
            counts["known-defect-class"] += 1
    return {k: round(v / len(calls), 6) for k, v in sorted(counts.items())}


def _probe(payload: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        input=payload, capture_output=True, text=True, timeout=170, check=True)
    imported, warmed = proc.stdout.split()
    return float(imported), float(warmed)


def setup_seconds(warm_up: list, workload: str) -> float:
    """Median over fresh processes of import smplab + the warm-up calls.

    Imports slow down differently from loops when the host is contended,
    so each part is scaled by its own reference: the import by
    SETUP_REFERENCE_S over the mean of two fresh processes around it that
    import SETUP_REFERENCE_MODULES, the warm-up calls like timed calls.
    """
    payload = json.dumps({"workload": workload, "items": warm_up})
    refs = [_probe("null")[0]]
    scaled = []
    for _ in range(SETUP_PROBES):
        imported, warmed = _probe(payload)
        refs.append(_probe("null")[0])
        scaled.append(imported * 2.0 * SETUP_REFERENCE_S / (refs[-2] + refs[-1]) + warmed)
    return statistics.median(scaled)


def setup_probe() -> int:
    """Child side of setup_seconds: inputs arrive as numbers on stdin;
    ``null`` asks for the reference imports instead.  Prints the import
    seconds and the warm-up seconds at reference speed."""
    spec = json.loads(sys.stdin.read())
    start = time.perf_counter()
    if spec is None:
        for name in SETUP_REFERENCE_MODULES:
            importlib.import_module(name)
        print(time.perf_counter() - start, 0.0)
        return 0
    _import_smplab()
    import workloads
    imported = time.perf_counter() - start
    wl = workloads.WORKLOADS[spec["workload"]]
    before = calibrate()
    start = time.perf_counter()
    for args, label in spec["items"]:
        wl.call(workloads.Item(tuple(args), label))
    warmed = time.perf_counter() - start
    print(imported, warmed * 2.0 * CAL_REFERENCE_S / (before + calibrate()))
    return 0


def items_per_s(wl, calls: list[Call], scaled: bool = True) -> float:
    busy = sum(c.ref_seconds if scaled else c.seconds for c in calls)
    return wl.items_per_call * len(calls) / busy


def end_to_end(wl, calls: list[Call], setup_s: float) -> tuple[dict, dict]:
    lat = sorted(c.ref_seconds for c in calls)
    tail, beyond = percentile(lat, wl.tail_percentile)
    metrics = {
        "items_per_s": (items_per_s(wl, calls), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = sorted(c.seconds for c in calls)
    info = {
        "tail": {"percentile": wl.tail_percentile, "calls": len(lat), "beyond": beyond},
        "wall_clock": {"items_per_s": items_per_s(wl, calls, scaled=False),
                       "latency_p50_ms": 1e3 * statistics.median(raw),
                       "latency_tail_ms": 1e3 * percentile(raw, wl.tail_percentile)[0]},
        "median_scale": statistics.median(c.scale for c in calls),
    }
    return metrics, info


def layer_metrics(wl, tracer, untraced: list[Call], traced: list[Call],
                  failed_ratio: float, probe: dict | None) -> dict:
    """Every per-layer metric, zero where the workload never reached it.

    Self times are wall-clock seconds of the traced half; the overhead
    ratio compares the two halves at reference speed.
    """
    from tracer import PER_LAYER
    measured = tracer.layer_metrics()
    measured["trace.overhead_ratio"] = items_per_s(wl, untraced) / items_per_s(wl, traced)
    measured["failed_ratio"] = failed_ratio
    if probe is not None:
        measured["known_defect.failed_ratio"] = probe["failed"] / probe["attempted"]
    return {name: (measured.get(name, 0), unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        return setup_probe()
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")

    _import_smplab()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    warm_up = wl.warm_up(args.seed)
    for item in warm_up:
        wl.call(item)
    if args.trace == 0:
        setup_s = setup_seconds([list(item) for item in warm_up], wl.name)

    report = {"stamp": stamp(wl.name, args.seed, args.seconds)}
    if args.trace == 0:
        calls = timed_loop(wl, wl.stream(args.seed), args.seconds)
    else:
        from tracer import Tracer
        half = args.seconds / 2.0
        untraced = timed_loop(wl, wl.stream(args.seed), half)
        # the same inputs again, so the stream's own library calls stay untraced
        replay = itertools.cycle([c.item for c in untraced])
        with Tracer() as tracer:
            traced = timed_loop(wl, replay, half, spot_checks=False)
        calls = untraced + traced

    failed, correct, reasons = check_results(wl, calls)
    probe = probe_known_defect(wl, args.seed)
    report["failed_ratio"] = failed / len(calls)
    report["failures"] = reasons
    report["known_defect_probe"] = probe
    report["shares"] = shares(wl, calls)
    if args.trace == 0:
        metrics, info = end_to_end(wl, calls, setup_s)
        report.update(info)
    else:
        metrics = layer_metrics(wl, tracer, untraced, traced, report["failed_ratio"], probe)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, {"stamp": report["stamp"]})
        report["spans"] = spans_path.relative_to(ROOT).as_posix()
        report["samples_per_pair"] = tracer.sample_counts()

    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
