import json
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


@pytest.mark.parametrize("args, expected", [
    (["jsr", "--max-len", "12"], "jsr_max_len_12.ndjson"),
    (["jsr", "--max-len", "18"], "jsr_max_len_18.ndjson"),
    (["smp"], "smp.ndjson"),
])
def test_golden_corpus_stdout_is_byte_identical(capsys, args, expected):
    # golden/pairs.ndjson: 14 pairs with max norm >= 1 across the certify
    # routes; the expected files were printed by the letter-by-letter numpy
    # kernels that the product-tree kernels replaced.
    code, out, _ = run_cli(capsys, *args, "--batch", str(GOLDEN / "pairs.ndjson"))
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
