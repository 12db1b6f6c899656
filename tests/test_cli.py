"""Command-line round trips and exit codes."""
from __future__ import annotations

import json

import pytest

from stoclang import (
    Alphabet, FLOAT, MultiplicityAutomaton, RATIONAL, equal_ma, fixture,
    load_ma, load_sample, save_ma,
)
from stoclang.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- fixture ----------------------------------------------------------------------

def test_fixture_list(capsys):
    code, out, _ = run(capsys, "fixture", "--list")
    assert code == 0
    names = out.split()
    assert {"dirac", "half_loop", "two_state_pda"} <= set(names)
    assert any(n.startswith("a_alpha(") for n in names)


def test_fixture_writes_rational_automaton(tmp_path, capsys):
    out = tmp_path / "pda.json"
    code, _, _ = run(capsys, "fixture", "--name", "two_state_pda", "--out", str(out))
    assert code == 0
    got = load_ma(str(out))
    assert got.mode == RATIONAL
    assert equal_ma(got, fixture("two_state_pda"))


def test_fixture_honours_mode_flag(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, _ = run(capsys, "--mode", "float", "fixture", "--name", "half_loop",
                     "--out", str(out))
    assert code == 0
    assert load_ma(str(out)).mode == FLOAT


def test_fixture_without_name_fails(capsys):
    code, _, err = run(capsys, "fixture")
    assert code == 2 and "name" in err


def test_fixture_angle_string(tmp_path, capsys):
    out = tmp_path / "rot.json"
    code, _, _ = run(capsys, "fixture", "--name", "a_alpha(pi/6;1,0,1)",
                     "--out", str(out))
    assert code == 0
    assert load_ma(str(out)).n == 3


def test_fixture_prints_to_stdout_without_out(capsys):
    code, out, _ = run(capsys, "fixture", "--name", "dirac")
    assert code == 0
    assert json.loads(out)["n"] == 1


# -- sample / learn / eval ----------------------------------------------------------

@pytest.fixture()
def workdir(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    model = tmp_path / "m.json"
    trace = tmp_path / "t.jsonl"
    assert main(["sample", "--target", "half_loop", "--n", "200",
                 "--seed", "5", "--out", str(sample)]) == 0
    assert main(["learn", "--sample", str(sample), "--out", str(model),
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    return tmp_path, sample, model, trace


def test_sampling_is_seed_reproducible(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("one.txt", "two.txt", "three.txt"))
    run(capsys, "sample", "--target", "half_loop", "--n", "60", "--seed", "9",
        "--out", str(a))
    run(capsys, "sample", "--target", "half_loop", "--n", "60", "--seed", "9",
        "--out", str(b))
    # the seed may also be given before the subcommand
    run(capsys, "--seed", "9", "sample", "--target", "half_loop", "--n", "60",
        "--out", str(c))
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_learn_writes_model_and_trace(workdir):
    _, sample, model, trace = workdir
    learned = load_ma(str(model))
    assert learned.n >= 1 and learned.labels is not None
    lines = trace.read_text().splitlines()
    assert all({"step", "v", "decision"} <= set(json.loads(l)) for l in lines)
    assert load_sample(str(sample)).size == 200


def test_eval_prints_one_weight_per_word(workdir, capsys):
    tmp_path, _, model, _ = workdir
    words = tmp_path / "w.txt"
    words.write_text("#alphabet: a\n\na\na a\n")
    code, out, _ = run(capsys, "eval", "--in", str(model), "--words", str(words))
    assert code == 0
    vals = [float(v) for v in out.split()]
    assert len(vals) == 3
    code, out, _ = run(capsys, "eval", "--in", str(model), "--words", str(words),
                       "--prefix")
    prefixes = [float(v) for v in out.split()]
    assert prefixes[0] == pytest.approx(1.0, abs=1e-9)
    assert all(p >= v - 1e-9 for p, v in zip(prefixes, vals))


def test_exactify_writes_report(workdir, capsys):
    tmp_path, _, model, _ = workdir
    exact = tmp_path / "e.json"
    report = tmp_path / "r.jsonl"
    code, _, _ = run(capsys, "exactify", "--in", str(model), "--n", "200",
                     "--out", str(exact), "--report", str(report))
    assert code == 0
    lines = report.read_text().splitlines()
    head = json.loads(lines[0])
    assert set(head) == {"eps", "complete"}
    assert head["eps"] == pytest.approx(200.0 ** -0.25)
    for line in lines[1:]:
        rec = json.loads(line)
        assert set(rec) == {"location", "value", "rational"}


# -- normalize ----------------------------------------------------------------------

def chain_file(tmp_path) -> str:
    chain = MultiplicityAutomaton(
        Alphabet(("a",)), [1.0, 0.0, 0.0], [0.6, -0.1, 0.5],
        {"a": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]})
    path = tmp_path / "chain.json"
    save_ma(chain, str(path))
    return str(path)


def test_normalize_eval_prints_corrected_values(tmp_path, capsys):
    words = tmp_path / "w.txt"
    words.write_text("#alphabet: a\n\na\na a\n")
    code, out, _ = run(capsys, "normalize", "--in", chain_file(tmp_path),
                       "--eval", str(words))
    assert code == 0
    assert [float(v) for v in out.split()] == [0.6, 0.0, 0.4]


def test_normalize_sample_writes_words(tmp_path, capsys):
    out_file = tmp_path / "drawn.txt"
    code, _, _ = run(capsys, "normalize", "--in", chain_file(tmp_path),
                     "--sample", "25", "--seed", "4", "--out", str(out_file))
    assert code == 0
    drawn = load_sample(str(out_file))
    assert drawn.size == 25
    assert set(drawn.words) <= {(), ("a", "a")}


def test_normalize_sample_requires_out(tmp_path, capsys):
    code, _, err = run(capsys, "normalize", "--in", chain_file(tmp_path),
                       "--sample", "5")
    assert code == 2 and "--out" in err


def test_normalize_refuses_uncertified_input(tmp_path, capsys):
    runaway = MultiplicityAutomaton(Alphabet(("a",)), [1.0], [0.5], {"a": [[1.1]]})
    path = tmp_path / "runaway.json"
    save_ma(runaway, str(path))
    words = tmp_path / "w.txt"
    words.write_text("#alphabet: a\n\n")
    code, _, err = run(capsys, "normalize", "--in", str(path), "--eval", str(words))
    assert code == 3 and "certif" in err.lower()


# -- experiment ----------------------------------------------------------------------

def test_experiment_end_to_end(tmp_path, capsys):
    base = tmp_path / "run"
    code, out, _ = run(capsys, "experiment", "--target", "half_loop",
                       "--sizes", "60,120", "--seeds", "0:2",
                       "--metrics", "state_count,l1_ball", "--out", str(base))
    assert code == 0
    assert "target=half_loop" in out
    rows = [json.loads(l) for l in (tmp_path / "run.jsonl").read_text().splitlines()]
    assert [(r["n"], r["seed"]) for r in rows] == [(60, 0), (60, 1), (120, 0), (120, 1)]
    assert (tmp_path / "run.csv").read_text().startswith("metric,n,count,median")


def test_experiment_quiet_suppresses_summary(tmp_path, capsys):
    base = tmp_path / "quiet_run"
    code, out, _ = run(capsys, "--quiet", "experiment", "--target", "dirac",
                       "--sizes", "30", "--seeds", "1,2",
                       "--metrics", "state_count", "--out", str(base))
    assert code == 0 and out == ""


# -- failure modes -----------------------------------------------------------------

def test_unknown_target_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "sample", "--target", "mystery", "--n", "5",
                       "--out", str(tmp_path / "x.txt"))
    assert code == 2 and "mystery" in err


def test_missing_model_file_exits_2(tmp_path, capsys):
    words = tmp_path / "w.txt"
    words.write_text("#alphabet: a\n\n")
    code, _, _ = run(capsys, "eval", "--in", str(tmp_path / "absent.json"),
                     "--words", str(words))
    assert code == 2


@pytest.mark.parametrize("mode, tau", [("rational", "1/0"), ("float", True)])
def test_eval_rejects_bad_weight_with_exit_2(tmp_path, capsys, mode, tau):
    # a zero denominator or a JSON boolean weight is malformed input
    one = "1/1" if mode == "rational" else 1.0
    half = "1/2" if mode == "rational" else 0.5
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"alphabet": ["a"], "mode": mode, "n": 1, "iota": [one],
                                 "tau": [tau], "matrices": {"a": [[half]]}}))
    words = tmp_path / "w.txt"
    words.write_text("#alphabet: a\n\na\n")
    code, out, err = run(capsys, "eval", "--in", str(model), "--words", str(words))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])
