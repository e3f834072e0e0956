"""Tests of the benchmark itself: inputs, checks, tracing and the result line.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from smplab import jsr, words  # noqa: E402
from smplab.linalg import Mat2, MatrixPair  # noqa: E402
from smplab.sturmian import ConcavityViolation  # noqa: E402

ROADMAP_3A = (1.0, 2.0, 3.0, -1.0, 2.0, 0.0, 1.0, 1.0)  # fails at scale 1e-20


def _first(stream, n):
    return list(itertools.islice(stream, n))


def _pair_item(entries, label="test"):
    return W.Item(tuple(float(x) for x in entries), label)


# -- inputs -----------------------------------------------------------------------

@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_streams_are_seeded(name):
    stream = W.WORKLOADS[name].stream
    n = 3 if name == "montecarlo" else 12
    assert _first(stream(7), n) == _first(stream(7), n)
    assert _first(stream(7), n) != _first(stream(8), n)


def test_certify_stream_blocks_hold_the_natural_mix():
    block = sum(n for _, n in W.STREAM_BLOCK)
    items = _first(W.certify_stream(3), 2 * block)
    for part in (items[:block], items[block:]):
        assert Counter(it.label for it in part) == dict(W.STREAM_BLOCK)


def test_copar_stream_starts_with_the_tuple_and_is_co_parallel():
    items = _first(W.copar_stream(0), 31)
    assert items[0].label == "tuple-3,3,8,1,1"
    assert Counter(it.label for it in items[1:]) == dict(W.COPAR_BLOCK)
    from smplab import classify
    assert all(classify(W.make_pair(it.args)).in_copar is True for it in items)


def test_bounds_blocks_cover_every_scale_once():
    items = _first(W.bounds_stream(0), len(W.BOUNDS_EXPONENTS))
    assert sorted(int(it.label[2:]) for it in items) == sorted(W.BOUNDS_EXPONENTS)


def test_power_dominance_predicts_unterminated_scans():
    items = [it for it in _first(W.certify_stream(1), 400)
             if it.label in ("mixed", "mixed-power-dominated")][:60]
    assert {it.label for it in items} == {"mixed", "mixed-power-dominated"}
    for it in items:
        out = jsr.certify(W.make_pair(it.args))
        unterminated = out.certificate.endswith("-unterminated")
        assert unterminated == (it.label == "mixed-power-dominated")


# -- checks fire on corrupted results -------------------------------------------------

def _certify_item(route):
    for it in W.certify_stream(0):
        out = jsr.certify(W.make_pair(it.args))
        if out.certificate == route:
            return it, out
    raise AssertionError("unreachable")


def test_certify_checks_accept_real_results_and_fire_on_corruption():
    item, out = _certify_item("crossing-single-letter")
    assert W.check_certify(item, out) is None
    assert W.spot_check_certify(item, out) is None
    assert W.check_certify(item, dataclasses.replace(out, jsr=out.jsr * 2.0))
    assert W.check_certify(item, dataclasses.replace(out, jsr=None))
    assert W.spot_check_certify(item, dataclasses.replace(out, jsr=out.jsr * 0.999))

    item, out = _certify_item("brute-force-only")
    assert W.check_certify(item, out) is None
    assert W.check_certify(item, dataclasses.replace(out, lower=out.upper * 1.01))
    assert W.check_certify(item, dataclasses.replace(out, value=out.upper * 1.01))


def test_copar_check_fires_on_a_value_above_upper():
    item = next(W.copar_stream(0))
    out = W.WORKLOADS["copar-sturmian"].call(item)
    assert W.check_copar(item, out) is None
    assert W.check_copar(item, dataclasses.replace(out, value=out.upper * 1.01))


def test_bounds_check_fires_and_small_scales_are_the_known_defect():
    item = _pair_item(ROADMAP_3A)
    out = jsr.brute_force(W.make_pair(item.args), 10)
    assert W.check_bounds(item, out) is None
    assert W.check_bounds(item, dataclasses.replace(out, upper=out.lower * 0.99))
    assert not W.below_unit_norm(item)
    assert W.below_unit_norm(_pair_item(np.array(ROADMAP_3A) * 1e-20))


def test_mc_check_fires_on_inconsistent_tallies():
    item = next(W.mc_stream(0))
    wl = W.WORKLOADS["montecarlo"]
    out = wl.call(item)
    assert W.check_mc(item, out) is None
    for key, value in (("copar&cross", 1), ("total", W.MC_SAMPLES - 1),
                       ("union4", W.MC_SAMPLES + 1), ("cross&mix", out["cross"] + 1)):
        assert W.check_mc(item, {**out, key: value}), key


def test_known_bad_pair_counts_as_failure_without_stopping_the_run():
    wl = dataclasses.replace(W.WORKLOADS["bounds-deep"],
                             call=lambda it: jsr.brute_force(W.make_pair(it.args), 10))
    good = _pair_item(ROADMAP_3A)
    bad = _pair_item(np.array(ROADMAP_3A) * 1e-20, "1e-20")
    results = run.timed_loop(wl, itertools.cycle([good, bad]), 0.05)
    failed, correct, reasons = run.check_results(wl, results)
    assert failed == sum(c.item is bad for c in results) >= 1
    assert correct  # inside the documented known-defect class
    assert reasons[0].startswith("known defect")


def test_known_defect_scales_are_probed_apart_from_the_timed_stream():
    assert not set(W.BOUNDS_EXPONENTS) & set(W.KNOWN_DEFECT_EXPONENTS)
    items = W.bounds_probe(0)
    assert [it.label for it in items] == [f"1e{k}" for k in W.KNOWN_DEFECT_EXPONENTS]
    assert items == W.bounds_probe(0) != W.bounds_probe(1)

    def call(it):
        out = jsr.brute_force(W.make_pair(it.args), 6)
        if it.label == "1e-11":
            raise FloatingPointError("underflow")
        return dataclasses.replace(out, upper=out.lower * 0.5) if it.label == "1e-12" else out

    wl = dataclasses.replace(W.WORKLOADS["bounds-deep"], call=call)
    probe = run.probe_known_defect(wl, 0)
    assert (probe["attempted"], probe["failed"]) == (len(items), 2)
    assert run.probe_known_defect(W.WORKLOADS["certify-stream"], 0) is None


def test_a_raising_call_is_a_failure_and_an_unexpected_one():
    def raises(it):
        raise ConcavityViolation([(None, None, 1.0)])

    wl = dataclasses.replace(W.WORKLOADS["copar-sturmian"], call=raises)
    results = run.timed_loop(wl, itertools.repeat(next(W.copar_stream(0))), 0.0)
    failed, correct, _ = run.check_results(wl, results)
    assert (len(results), failed, correct) == (1, 1, False)


# -- metrics and tracing ----------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 90.0) == (90.0, 10)
    assert run.percentile(values, 99.0) == (99.0, 1)
    assert run.percentile([5.0], 99.0) == (5.0, 0)


def test_lyndon_count_matches_the_generator():
    for n in range(1, 13):
        assert tracer.lyndon_count(n) == sum(1 for _ in words.lyndon_words(n))


def test_self_time_subtracts_child_coverage():
    t = tracer.Tracer()
    t.spans = [(0, None, 0, "a", 0.0, 10.0), (1, 0, 0, "b", 1.0, 4.0),
               (2, 0, 0, "c", 3.0, 6.0), (3, 1, 0, "d", 2.0, 3.0)]
    assert t.self_times() == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_tracer_spans_nest_and_unpatch():
    from smplab import jsr as jsr_mod, kernels
    original = (jsr_mod.brute_force, kernels.scan_classes, Mat2.__matmul__)
    pair = MatrixPair(Mat2(1.0, 2.0, 3.0, -1.0), Mat2(2.0, 0.0, 1.0, 1.0))
    with tracer.Tracer() as t:
        jsr_mod.certify(pair)
        jsr_mod.brute_force(pair, 6)
    assert (jsr_mod.brute_force, kernels.scan_classes, Mat2.__matmul__) == original
    names = {sid: name for sid, _, _, name, _, _ in t.spans}
    parents = {names[sid]: names.get(parent) for sid, parent, _, _, _, _ in t.spans}
    assert parents["kernels.scan_classes"] == "jsr.brute_force"
    assert parents["words.lyndon_words"] == "kernels.scan_classes"
    assert {req for _, _, req, _, _, _ in t.spans} == {0, 1}
    m = t.layer_metrics()
    assert m["kernels.scan_classes.words"] == tracer.lyndon_count(6)
    assert m["kernels.norm_profile.products"] == 2 ** 7 - 2
    assert m["linalg.mat2_matmul.calls"] > 0
    assert m["trace.layers_self_s"] == pytest.approx(m["trace.top_level_s"])
    assert set(m) <= set(tracer.PER_LAYER)


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    wl = W.WORKLOADS["certify-stream"]
    results = [run.Call(None, None, None, 0.01 * i, 1.0) for i in range(1, 30)]
    metrics, _ = run.end_to_end(wl, results, setup_s=1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in metrics.items()}


# -- the command -------------------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_result_line_last():
    proc = _run(ROOT, "--workload", "copar-sturmian", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert report["stamp"]["backend"] and report["stamp"]["seed"] == 1


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify-stream", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
