"""Seeded inputs, the public call and the output check of each workload.

Every workload is an endless stream of items made from the seed alone;
the library only ever sees the generated matrix entries (or, for Monte
Carlo, the generated seed).  Costs differ by orders of magnitude between
kinds of input (an unterminated power scan costs ~1000x a crossing pair),
so the two pair streams are stratified: items come in shuffled blocks
that hold every stratum at its natural share, measured once on a large
draw.  Any prefix of a stream then has the natural mix to within one
block, which is what keeps a run's throughput steady across seeds.
Strata are input properties the benchmark computes itself; no stratum
is left out.  Inputs in a documented known-defect class, on which the
library fails its check today, are not in the timed stream, where every
call must pass; a workload's ``probe`` checks a seeded set of them once
per run, and the runner reports those failures apart, so the defect
stays in view until it is fixed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

import smplab
from smplab import constructions, jsr, regions
from smplab.linalg import FiveTuple, Mat2, MatrixPair

# Natural shares per 200 iid N(0,1) pairs once co-parallel pairs are set
# aside (they are their own workload); measured on 102 400 pairs.
# "mixed-power-dominated" are mixed pairs whose pure power rho(P) beats
# every rho(P^n Q)^(1/(n+1)): today gelfand_scan cannot terminate on
# them (ROADMAP 3b) and scans to its cap.
STREAM_BLOCK = (("crossing", 59), ("negative", 18), ("mixed", 64),
                ("mixed-power-dominated", 15), ("other", 44))

# Co-parallel pairs split by where the Sturmian maximizer lies, which
# sets the number of mediant-descent samples (at 1/64: ~67 when it is
# gamma = 0 or interior, ~131 when it is gamma = 1).  Shares per 30
# pairs, measured on 5009 rejection-drawn co-parallel pairs.
COPAR_BLOCK = (("argmax-0", 10), ("argmax-1", 10), ("interior", 10))

# certify's default resolution 1/1024 costs 6-28 s per co-parallel pair,
# so a run would hold one or two pairs and could not be steady.  1/64
# runs the same per-sample Christoffel products and O(n^2) Fraction
# audit on ~16x fewer samples.
COPAR_RESOLUTION = Fraction(1, 64)
COPAR_FIRST_TUPLE = (3.0, 3.0, 8.0, 1.0, 1.0)

BOUNDS_LEN = 18
# At BOUNDS_LEN, products of small pairs underflow in brute_force's
# norms and give upper < lower (ROADMAP 3(a)).  In 8 pairs per scale, all
# failed at 1e-7 and at 1e-10 and below, and about half at 1e-9..1e-5; in
# 150 pairs at each of 1e-4, 1e-3 and 1e-2, none did.  The timed stream
# keeps to scales where no call fails; the probe covers the rest.
BOUNDS_EXPONENTS = tuple(range(-2, 13))
KNOWN_DEFECT_EXPONENTS = tuple(range(-12, -2))
MC_SAMPLES = 10_000
MC_DISTRIBUTIONS = ("normal", "uniform01")

POWER_HORIZON = 1000
REL_TOL = 1e-9


class Item(NamedTuple):
    """One call's input: plain numbers, and the stratum it was drawn for."""

    args: tuple
    label: str


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int], Iterator[Item]]
    call: Callable[[Item], Any]
    check: Callable[[Item, Any], str | None]
    warm_up: Callable[[int], list[Item]]
    items_per_call: int = 1
    # fixed per workload so runs and commits compare the same percentile;
    # each leaves at least ten calls beyond it in a 25 s run at the seed
    # commit (certify-stream ~80, copar-sturmian ~40, bounds-deep ~13,
    # montecarlo ~14)
    tail_percentile: float = 99.0
    spot_check: Callable[[Item, Any], str | None] | None = None
    known_defect: Callable[[Item], bool] | None = None
    # seeded inputs in the known-defect class, checked once per run
    probe: Callable[[int], list[Item]] | None = None


def make_pair(entries) -> MatrixPair:
    return MatrixPair(Mat2(*entries[:4]), Mat2(*entries[4:]))


# -- input properties ------------------------------------------------------

def _rho(m: np.ndarray) -> np.ndarray:
    tr = m[:, 0, 0] + m[:, 1, 1]
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    disc = tr * tr - 4.0 * det
    out = np.sqrt(np.abs(det))
    real = disc >= 0.0
    out[real] = 0.5 * (np.abs(tr[real]) + np.sqrt(disc[real]))
    return out


def power_dominated(p: np.ndarray, q: np.ndarray,
                    horizon: int = POWER_HORIZON) -> np.ndarray:
    """rho(P^n Q)^(1/(n+1)) <= rho(P) for every n <= horizon, per row.

    p and q are (k, 2, 2) stacks; powers are renormalized every step.
    """
    log_rp = np.log(_rho(p))
    cur = np.broadcast_to(np.eye(2), p.shape).copy()
    cur_log = np.zeros(len(p))
    best = np.full(len(p), -np.inf)
    with np.errstate(divide="ignore"):
        for n in range(horizon + 1):
            best = np.maximum(best, (np.log(_rho(cur @ q)) + cur_log) / (n + 1))
            cur = cur @ p
            s = np.abs(cur).max(axis=(1, 2))
            s[s == 0.0] = 1.0
            cur /= s[:, None, None]
            cur_log += np.log(s)
    return best <= log_rp


def _split(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return rows[:, :4].reshape(-1, 2, 2), rows[:, 4:].reshape(-1, 2, 2)


def stream_strata(rows: np.ndarray) -> list[str]:
    """certify's routing order, with mixed pairs split by power dominance."""
    labels = []
    for e in rows:
        f = smplab.classify(make_pair(e))
        if f.reducible is True:
            labels.append("other")
        elif f.in_cross is True:
            labels.append("crossing")
        elif f.in_neg is True:
            labels.append("negative")
        elif f.in_mix is True:
            labels.append("mixed")
        elif f.in_copar is True:
            labels.append("copar")
        else:
            labels.append("other")
    mixed = [i for i, s in enumerate(labels) if s == "mixed"]
    if mixed:
        a, b = _split(rows[mixed])
        det_a = np.linalg.det(a)
        det_b = np.linalg.det(b)
        a_powered = (det_a > 0.0)[:, None, None]
        oriented = (det_a * det_b) != 0.0  # a zero determinant scans both ways
        dom = power_dominated(np.where(a_powered, a, b), np.where(a_powered, b, a))
        for i, d, o in zip(mixed, dom, oriented):
            if d and o:
                labels[i] = "mixed-power-dominated"
    return labels


def copar_strata(rows: np.ndarray) -> list[str]:
    """Where the Sturmian maximizer lies: gamma = 0, gamma = 1, or inside."""
    a, b = _split(rows)
    at0 = power_dominated(a, b)
    at1 = power_dominated(b, a)
    return ["argmax-0" if z else "argmax-1" if o else "interior"
            for z, o in zip(at0, at1)]


def _copar_candidates(rows: np.ndarray) -> np.ndarray:
    """Loose numpy prefilter for the co-parallel sign conditions."""
    a, b = _split(rows)
    a = a / np.linalg.norm(a, 2, axis=(1, 2))[:, None, None]
    b = b / np.linalg.norm(b, 2, axis=(1, 2))[:, None, None]
    x = np.trace(a, axis1=1, axis2=2)
    y = np.trace(b, axis1=1, axis2=2)
    z = np.trace(a @ b, axis1=1, axis2=2)
    u = np.linalg.det(a)
    v = np.linalg.det(b)
    comm = np.linalg.det(a @ b - b @ a)
    slack = -1e-6
    return ((u > slack) & (v > slack) & (x * x - 4 * u > slack)
            & (y * y - 4 * v > slack) & (-comm > slack)
            & (np.abs(z) - 0.5 * np.abs(x * y) > slack) & (z * x * y > slack))


def _stratified(rng: np.random.Generator, block: tuple[tuple[str, int], ...],
                draw: Callable[[np.random.Generator], tuple[np.ndarray, list[str]]]
                ) -> Iterator[Item]:
    queues: dict[str, deque] = {s: deque() for s, _ in block}
    while True:
        while any(len(queues[s]) < n for s, n in block):
            rows, labels = draw(rng)
            for e, s in zip(rows, labels):
                if s in queues:
                    queues[s].append(tuple(float(x) for x in e))
        items = [Item(queues[s].popleft(), s) for s, n in block for _ in range(n)]
        for j in rng.permutation(len(items)):
            yield items[int(j)]


# -- certify-stream ---------------------------------------------------------

def _draw_stream(rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    rows = rng.standard_normal((512, 8))
    return rows, stream_strata(rows)


def certify_stream(seed: int) -> Iterator[Item]:
    return _stratified(np.random.default_rng(seed), STREAM_BLOCK, _draw_stream)


def _first_of_each(stream: Iterator[Item], labels) -> list[Item]:
    found: dict[str, Item] = {}
    for item in stream:
        found.setdefault(item.label, item)
        if len(found) == len(labels):
            return [found[s] for s in labels]
    raise AssertionError("unreachable: streams are endless")


def _np_bracket(entries) -> tuple[float, float]:
    """[max(rho(A), rho(B)), max(|A|, |B|)], computed with numpy alone."""
    a, b = _split(np.asarray([entries], dtype=float))
    rho = float(_rho(np.concatenate([a, b])).max())
    norm = float(np.linalg.norm(np.concatenate([a, b]), 2, axis=(1, 2)).max())
    return rho, norm


def _le(x: float, y: float) -> bool:
    """x <= y up to a relative rounding slack; no absolute floor, since
    bounds-deep compares values as small as 1e-12."""
    return x <= y + REL_TOL * max(abs(x), abs(y))


def check_certify(item: Item, out) -> str | None:
    if out.lower is not None and out.upper is not None:
        if not _le(out.lower, out.upper):
            return f"lower {out.lower!r} > upper {out.upper!r}"
        if not _le(out.value, out.upper):
            return f"value {out.value!r} > upper {out.upper!r}"
    if out.certified:
        if out.jsr is None:
            return "certified without a jsr"
        lo, hi = _np_bracket(item.args)
        if not (_le(lo, out.jsr) and _le(out.jsr, hi)):
            return f"certified jsr {out.jsr!r} outside [{lo!r}, {hi!r}]"
    return None


def spot_check_certify(item: Item, out) -> str | None:
    """A certified jsr must lie in brute_force(p, 8)'s bracket (costly, so
    the runner applies it to every tenth call only)."""
    if not out.certified:
        return None
    br = jsr.brute_force(make_pair(item.args), 8)
    if not (_le(br.lower, out.jsr) and _le(out.jsr, br.upper)):
        return f"certified jsr {out.jsr!r} outside brute_force(8) [{br.lower!r}, {br.upper!r}]"
    return None


# -- copar-sturmian ----------------------------------------------------------

def _draw_copar(rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    rows = rng.standard_normal((4096, 8))
    rows = rows[_copar_candidates(rows)]
    rows = rows[[smplab.classify(make_pair(e)).in_copar is True for e in rows]]
    return rows, copar_strata(rows)


def copar_stream(seed: int) -> Iterator[Item]:
    first = constructions.realize_from_tuple(FiveTuple(*COPAR_FIRST_TUPLE))
    yield Item(first.A.entries() + first.B.entries(), "tuple-3,3,8,1,1")
    yield from _stratified(np.random.default_rng(seed), COPAR_BLOCK, _draw_copar)


def check_copar(item: Item, out) -> str | None:
    if not _le(out.value, out.upper):
        return f"candidate value {out.value!r} > upper {out.upper!r}"
    return None


# -- bounds-deep --------------------------------------------------------------

def _scaled(rng: np.random.Generator, k: int) -> Item:
    e = rng.standard_normal(8) * 10.0 ** k
    return Item(tuple(float(x) for x in e), f"1e{k}")


def bounds_stream(seed: int) -> Iterator[Item]:
    """N(0,1) pairs scaled by 10^k; each block has every k once."""
    rng = np.random.default_rng(seed)
    while True:
        for k in rng.permutation(BOUNDS_EXPONENTS):
            yield _scaled(rng, int(k))


def bounds_probe(seed: int) -> list[Item]:
    """One N(0,1) pair at each scale of ROADMAP 3(a), from its own stream."""
    rng = np.random.default_rng([seed, 1])
    return [_scaled(rng, k) for k in KNOWN_DEFECT_EXPONENTS]


def check_bounds(item: Item, out) -> str | None:
    if not _le(out.lower, out.upper):
        return f"lower {out.lower!r} > upper {out.upper!r} at scale {item.label}"
    return None


def below_unit_norm(item: Item) -> bool:
    """ROADMAP 3(a): brute_force never scales up, so products underflow."""
    return _np_bracket(item.args)[1] < 1.0


# -- montecarlo ----------------------------------------------------------------

def mc_stream(seed: int) -> Iterator[Item]:
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        dist = MC_DISTRIBUTIONS[i % len(MC_DISTRIBUTIONS)]
        yield Item((int(rng.integers(2**63)), dist), dist)
        i += 1


def check_mc(item: Item, out) -> str | None:
    if set(out) != set(regions.MC_KEYS):
        return f"keys {sorted(out)}"
    if out["total"] != MC_SAMPLES:
        return f"total {out['total']} != {MC_SAMPLES}"
    if any(not 0 <= v <= MC_SAMPLES for v in out.values()):
        return "a count outside [0, total]"
    four = [out[k] for k in ("cross", "mix", "neg", "copar")]
    if not max(four) <= out["union4"] <= sum(four):
        return f"union4 {out['union4']} inconsistent with {four}"
    for both, one, two in (("cross&mix", "cross", "mix"), ("cross&neg", "cross", "neg")):
        if out[both] > min(out[one], out[two]):
            return f"{both} {out[both]} exceeds its parts"
    if out["copar&cross"] != 0:
        return f"copar&cross = {out['copar&cross']}"
    return None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="certify-stream",
            stream=certify_stream,
            call=lambda it: smplab.jsr.certify(make_pair(it.args)),
            check=check_certify,
            spot_check=spot_check_certify,
            warm_up=lambda seed: _first_of_each(certify_stream(seed),
                                                [s for s, _ in STREAM_BLOCK]),
            # p99 holds only the ~25 noisiest of the unterminated scans
            tail_percentile=97.0,
        ),
        Workload(
            name="copar-sturmian",
            stream=copar_stream,
            call=lambda it: smplab.jsr.certify(make_pair(it.args),
                                               resolution=COPAR_RESOLUTION),
            check=check_copar,
            warm_up=lambda seed: [next(copar_stream(seed))],
            tail_percentile=90.0,
        ),
        Workload(
            name="bounds-deep",
            stream=bounds_stream,
            call=lambda it: smplab.jsr.brute_force(make_pair(it.args), BOUNDS_LEN),
            check=check_bounds,
            known_defect=below_unit_norm,
            probe=bounds_probe,
            warm_up=lambda seed: [next(bounds_stream(seed))],
            tail_percentile=90.0,
        ),
        Workload(
            name="montecarlo",
            stream=mc_stream,
            call=lambda it: smplab.regions.monte_carlo_regions(
                it.args[0], MC_SAMPLES, it.args[1], threads=1),
            check=check_mc,
            warm_up=lambda seed: [next(mc_stream(seed))],
            items_per_call=MC_SAMPLES,
            tail_percentile=75.0,
        ),
    )
}
