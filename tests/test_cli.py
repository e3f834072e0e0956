import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smplab.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_tuple(capsys):
    code, out, _ = run_cli(capsys, "classify", "--tuple", "3,3,8,1,1")
    assert code == 0
    flags = json.loads(out)
    assert flags["copar"] is True
    assert flags["cross"] is False


def test_classify_pair_file(tmp_path, capsys):
    pair = {"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(pair))
    code, out, _ = run_cli(capsys, "classify", "--pair", str(f))
    assert code == 0
    flags = json.loads(out)
    assert flags["cross"] is True and flags["mix"] is True


def test_classify_pair_through_tuple_flag(tmp_path, capsys):
    pair = {"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(pair))
    code, out, _ = run_cli(capsys, "classify", "--pair", str(f), "--tuple")
    assert code == 0
    assert json.loads(out)["cross"] is True


def test_realize_round_trips_into_classify(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "realize", "--tuple", "3,3,8,1,1")
    assert code == 0
    f = tmp_path / "pair.json"
    f.write_text(out)
    code, out2, _ = run_cli(capsys, "classify", "--pair", str(f))
    assert code == 0
    assert json.loads(out2)["copar"] is True


def test_smp_on_crossing_pair(tmp_path, capsys):
    pair = {"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(pair))
    code, out, _ = run_cli(capsys, "smp", "--pair", str(f))
    assert code == 0
    cand = json.loads(out)
    assert cand["certified"] is True and cand["jsr"] == 2.0


def test_jsr_report(tmp_path, capsys):
    pair = {"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(pair))
    code, out, _ = run_cli(capsys, "jsr", "--pair", str(f), "--max-len", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["lower"] == 2.0 and rep["upper"] == 2.0
    assert rep["per_length"]["3"]["norm_root"] >= rep["lower"]


def test_batch_classify(tmp_path, capsys):
    lines = [
        json.dumps({"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}),
        json.dumps({"A": [[1, 0], [0, 1]], "B": [[1, 2], [3, 4]]}),
    ]
    f = tmp_path / "pairs.ndjson"
    f.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "classify", "--batch", str(f))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0]["cross"] is True
    assert rows[1]["reducible"] is True


def test_fricke_word_and_evaluation(capsys):
    code, out, _ = run_cli(capsys, "fricke", "--word", "01")
    assert code == 0 and out.strip() == "z"
    code, out, _ = run_cli(capsys, "fricke", "--word", "0011", "--at", "3,3,8,1,1")
    assert code == 0 and float(out) == 56.0


def test_christoffel_and_signature(capsys):
    code, out, _ = run_cli(capsys, "christoffel", "--slope", "2/5")
    assert code == 0 and out.strip() == "00101"
    code, out, _ = run_cli(capsys, "christoffel", "--tree", "1")
    assert code == 0
    nodes = json.loads(out)
    assert nodes[0] == {"u": "0", "v": "1", "depth": 0} and len(nodes) == 3
    code, out, _ = run_cli(capsys, "signature", "--word", "00101")
    assert code == 0 and out.strip() == "3,2,2"


def test_lyap_rational(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "realize", "--tuple", "3,3,8,1,1")
    f = tmp_path / "pair.json"
    f.write_text(out)
    code, out, _ = run_cli(capsys, "lyap", "--pair", str(f), "--gamma", "1/2")
    assert code == 0
    assert abs(float(out) - 1.0317185) < 1e-6


def test_symmetrize_command(tmp_path, capsys):
    pair = {"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(pair))
    code, out, _ = run_cli(capsys, "symmetrize", "--pair", str(f))
    assert code == 0
    sym = json.loads(out)
    assert sym["B"][0][1] == sym["B"][1][0]


def test_example_command(capsys):
    code, out, _ = run_cli(capsys, "example", "--n", "2", "--verify", "--max-len", "8")
    assert code == 0
    obj = json.loads(out)
    assert 0.278 < obj["c"] < 0.279
    assert len(obj["polygon_half_vertices"]) == 3
    assert obj["verification"]["ok"] is True
    assert obj["verification"]["best_word"] == "001"


def test_example_verify_default_length_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "example", "--n", "20", "--verify")
    assert code == 0 and json.loads(out)["verification"]["ok"] is True
    code, _, err = run_cli(capsys, "example", "--n", "24", "--verify")
    assert code == 1 and "at least n + 1" in err


def test_montecarlo_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "montecarlo", "--seed", "3", "--samples", "2000")
    assert code == 0
    code, out2, _ = run_cli(capsys, "montecarlo", "--seed", "3", "--samples", "2000")
    assert out1 == out2
    assert out1.splitlines()[0] == "region,count"


def test_montecarlo_ignores_smplab_threads(capsys, monkeypatch):
    # the thread knobs are gone: a value int() cannot parse used to exit 1
    args = ("montecarlo", "--samples", "10")
    plain = run_cli(capsys, *args)
    monkeypatch.setenv("SMPLAB_THREADS", "abc")
    code, out, _ = run_cli(capsys, *args)
    assert (code, out) == plain[:2]
    assert code == 0


def test_reproduce_list(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) == 12
    assert names[0] == "01-identity-suite"


def test_reproduce_only_unknown_name_is_a_usage_error(capsys, monkeypatch):
    # a misspelled name once ran nothing, printed nothing and exited 0
    import smplab.cli

    monkeypatch.setattr(smplab.cli, "reproduce_all",
                        lambda *a: pytest.fail("no criterion may run"))
    code, out, err = run_cli(capsys, "reproduce", "--only", "01-identity-suite",
                             "02-classifier", "zz")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown criterion name(s) 02-classifier, zz;")
    assert "01-identity-suite, 02-classifier-oracle" in err


def test_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", "--pair", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run_cli(capsys, "realize", "--tuple", "0,0,0,1,1")
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "classify", "--pair", str(bad))
    assert code == 2


def test_batch_bad_line_gets_an_error_record_and_the_stream_goes_on(tmp_path, capsys):
    good = json.dumps({"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]})
    f = tmp_path / "pairs.ndjson"
    f.write_text("\n".join([good, "{not json", "", good, '{"A": [[1, 2]]}']) + "\n")
    for command in ("classify", "jsr", "smp"):
        code, out, _ = run_cli(capsys, command, "--batch", str(f))
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 2, command
        assert len(rows) == 4 and rows[0] == rows[2], command
        assert rows[1]["line"] == 2 and "malformed" in rows[1]["error"]
        assert rows[3]["line"] == 5 and "error" in rows[3]


def test_version_names_the_kernel_backend(capsys):
    from smplab import __version__, kernels

    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == \
        f"smplab {__version__} (kernels: {kernels.BACKEND})"


GOLDEN = Path(__file__).parent / "golden"
CORPUS = str(GOLDEN / "pairs.ndjson")
COPAR = str(GOLDEN / "realize_3_3_8_1_1.json")  # the pair realize prints
CROSSING = str(GOLDEN / "crossing_pair.json")  # the first crossing N(0,1) pair
# realize --tuple 2.2,8,13,1,1: rho(B) dominates, so the Sturmian argmax runs
# to gamma -> 1, the longest descent (2051 samples at 1/1024)
COPAR_GAMMA1 = str(GOLDEN / "copar_gamma1_pair.json")

# (argv, file holding its expected stdout); every subcommand has a case
GOLDEN_CASES = [
    (["jsr", "--max-len", "12", "--batch", CORPUS], "jsr_max_len_12.ndjson"),
    (["jsr", "--max-len", "18", "--batch", CORPUS], "jsr_max_len_18.ndjson"),
    (["smp", "--batch", CORPUS], "smp.ndjson"),
    (["classify", "--pair", CROSSING], "classify_crossing_pair.json"),
    (["sturmian", "--pair", COPAR, "--resolution", "1/64"], "sturmian_3_3_8_1_1_res64.json"),
    (["lyap", "--pair", COPAR, "--gamma", "2/5"], "lyap_3_3_8_1_1_gamma_2_5.txt"),
    (["lyap", "--pair", COPAR, "--gamma", "0.381966"], "lyap_3_3_8_1_1_gamma_0.381966.txt"),
    (["fricke", "--word", "0011"], "fricke_0011.txt"),
    (["fricke", "--word", "0011", "--at", "3,3,8,1,1"], "fricke_0011_at_3_3_8_1_1.txt"),
    (["christoffel", "--slope", "2/5"], "christoffel_slope_2_5.txt"),
    (["christoffel", "--tree", "3"], "christoffel_tree_3.json"),
    (["signature", "--word", "00101"], "signature_00101.txt"),
    (["example", "--n", "3", "--verify"], "example_n3_verify.json"),
    (["realize", "--tuple", "3,3,8,1,1"], "realize_3_3_8_1_1.json"),
    (["symmetrize", "--pair", CROSSING], "symmetrize_crossing_pair.json"),
    (["montecarlo", "--seed", "5", "--samples", "1000", "--dist", "uniform01"],
     "montecarlo_seed5_uniform01_1000.csv"),
    # criterion detail lines: golden/reproduce_seed0.txt in test_acceptance
    (["reproduce", "--list"], "reproduce_list.txt"),
    (["sturmian", "--pair", COPAR_GAMMA1, "--resolution", "1/1024"],
     "sturmian_copar_gamma1_res1024.json"),
    (["smp", "--pair", COPAR_GAMMA1], "smp_copar_gamma1.json"),
]


@pytest.mark.parametrize("args, expected", GOLDEN_CASES)
def test_golden_corpus_stdout_is_byte_identical(capsys, args, expected):
    # golden/pairs.ndjson: 14 pairs with max norm >= 1 across the certify
    # routes; the jsr and smp files were printed by the letter-by-letter
    # numpy kernels that the product-tree kernels replaced, the gamma -> 1
    # sturmian and smp files by the all-pairs concavity audit that the hull
    # certificate replaced, the other commands' files by the code before
    # the acceptance suite used classify_arrays.
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / expected).read_text()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("dist", ["normal", "uniform01"])
def test_montecarlo_csv_is_byte_identical_to_the_per_pair_classifier(capsys, seed, dist):
    # golden/montecarlo_*.csv were printed by the per-pair scalar classify
    # loop that classify_arrays replaced
    code, out, _ = run_cli(capsys, "montecarlo", "--seed", str(seed),
                           "--samples", "100000", "--dist", dist)
    assert code == 0
    assert out.encode() == (GOLDEN / f"montecarlo_seed{seed}_{dist}.csv").read_bytes()


CLASSIFY_TUPLES = ("3,3,8,1,1", "3,3,4,1,1", "3,3,1,1,1",
                   "-3.76601,-0.49459,-8.13153,3.52510,8.71249")


@pytest.mark.parametrize("runs, expected", [
    ([("--batch", GOLDEN / "pairs.ndjson")], "classify.ndjson"),
    ([("--batch", GOLDEN / "edge_pairs.ndjson")], "classify_edge.ndjson"),
    ([(f"--tuple={t}",) for t in CLASSIFY_TUPLES], "classify_tuple.ndjson"),
], ids=["corpus", "edge", "tuple"])
def test_golden_classify_stdout_is_byte_identical(capsys, runs, expected):
    # golden/classify*.ndjson were printed by classify and classify_tuple
    # before they shared their margin and flag code with classify_arrays.
    # golden/edge_pairs.ndjson: a zero matrix, det = 0, margins inside tol,
    # rows scaled by 1e-310 and 1e200, and A tiny with B huge.
    out = ""
    for args in runs:
        code, text, _ = run_cli(capsys, "classify", *map(str, args))
        assert code == 0
        out += text
    assert out == (GOLDEN / expected).read_text()


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_negative_or_nan_tol_exits_1_with_an_error_line(tmp_path, capsys, tol):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]}))
    for args in (["smp", "--pair", str(f)], ["symmetrize", "--pair", str(f)],
                 ["classify", "--pair", str(f)], ["classify", "--tuple", "3,3,8,1,1"],
                 ["classify", "--batch", str(GOLDEN / "pairs.ndjson")]):
        code, out, err = run_cli(capsys, *args, "--tol", tol)
        assert (code, out) == (1, ""), args
        assert err.startswith("error: tol must be >= 0"), args


def test_smp_overflow_exits_1_with_an_error_line_and_no_traceback(tmp_path):
    # the JSR of this pair is above the largest double: certify's exact
    # scale-back raises OverflowError, which once escaped main
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"A": [[1e308, 1e308], [1e308, 1e308]],
                             "B": [[1e308, 0.0], [0.0, 1e307]]}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "smplab.cli", "smp", "--pair", str(f)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("literal, shown", [
    pytest.param("NaN", "not finite: nan", id="NaN-nan"),
    pytest.param("Infinity", "not finite: inf", id="Infinity-inf"),
    pytest.param("1e999", "not finite: inf", id="1e999-inf"),
    pytest.param("-Infinity", "not finite: -inf", id="-Infinity--inf"),
    pytest.param("null", "not a number: None", id="null-None"),
    pytest.param("[1, 2]", "not a number: [1, 2]", id="list-[1, 2]"),
    pytest.param('"2"', "not a number: '2'", id="string-2"),
    pytest.param('" 1 "', "not a number: ' 1 '", id="string-spaced-1"),
    pytest.param("true", "not a number: True", id="true-True")])
def test_non_finite_pair_entry_exits_1_and_fails_only_its_batch_line(
        tmp_path, capsys, literal, shown):
    # json.loads reads NaN, Infinity and 1e999 (as inf) without complaint;
    # null and a nested list reach float() as None and a list, and float()
    # would take a string or a boolean
    good = json.dumps({"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, 1]]})
    bad = '{"A": [[2, 0], [0, 0.5]], "B": [[1, 1], [1, %s]]}' % literal
    message = f"matrix entry a22 is {shown}"
    f = tmp_path / "pair.json"
    f.write_text(bad)
    code, out, err = run_cli(capsys, "smp", "--pair", str(f))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    f.write_text("\n".join([good, bad, good]) + "\n")
    code, out, _ = run_cli(capsys, "jsr", "--batch", str(f))
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 2
    assert len(rows) == 3 and rows[0] == rows[2] and "lower" in rows[0]
    assert rows[1] == {"line": 2, "error": f"malformed pair: ValueError({message!r})"}


@pytest.mark.parametrize("argv", [["montecarlo", "--samples", "10", "--seed", "-1"],
                                  ["reproduce", "--seed", "-1"],
                                  ["reproduce", "--seed", "x"]])
def test_a_seed_that_is_not_a_non_negative_int_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed:" in captured.err
