import csv
import itertools
import json
import os
import time

import numpy as np
import pytest

from scacopf import cli
from scacopf import orchestrator as orch
from scacopf.case_model import load_case, validate, write_case
from scacopf.cli import generate_case, main
from scacopf.orchestrator import flat_start, solve_base, write_base_solution


def run_cli(argv):
    return main(argv)


# --- gen-case -----------------------------------------------------------------

def test_generate_case_structure():
    net = generate_case(10, seed=1)
    assert len(net.buses) == 10
    assert len(net.generators) >= 2
    assert validate(net) == []
    # connected: union-find over branches spans all buses
    parent = {b.id: b.id for b in net.buses}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for br in net.branches:
        parent[find(br.origin)] = find(br.destination)
    assert len({find(b.id) for b in net.buses}) == 1


def test_generate_case_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run_cli(["gen-case", "--n-bus", "6", "--seed", "9",
                    "--output", a]) == 0
    assert run_cli(["gen-case", "--n-bus", "6", "--seed", "9",
                    "--output", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_generate_case_seed_changes_output():
    a = generate_case(6, seed=1)
    b = generate_case(6, seed=2)
    assert a != b


def test_generate_case_rejects_tiny():
    with pytest.raises(ValueError):
        generate_case(1, seed=0)


def test_generate_case_contingency_cap():
    net = generate_case(12, seed=4, n_contingencies=2)
    assert len(net.contingencies) == 2


# --- exit codes ---------------------------------------------------------------

def test_code1_missing_case(tmp_path, capsys):
    rc = run_cli(["code1", "--case", str(tmp_path / "nope.json"),
                  "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_code2_corrupted_base(tmp_path, capsys):
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=2), case)
    bad = str(tmp_path / "base.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    rc = run_cli(["code2", "--case", case, "--base", bad,
                  "--output-dir", str(tmp_path)])
    assert rc == 1


def exit_code(argv):
    """Exit code of one CLI call, whether returned or raised by argparse."""
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flags", [
    [],
    ["--case", "CASE", "--time-limit", "abc"],
    ["--case", "CASE", "--deterministic", "--time-limit", "1",
     "--threads", "2"],
], ids=["no-case", "bad-time-limit", "threads"])
def test_usage_errors_exit_1(tmp_path, capsys, flags):
    # exit code 2 is reserved for solve failure, so usage errors are input
    # errors; any case file given is valid, only the command line is wrong
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=2), case)
    argv = ["code1", "--output-dir", str(tmp_path)] + [
        case if f == "CASE" else f for f in flags]
    assert exit_code(argv) == 1
    assert "error" in capsys.readouterr().err


def test_code1_code2_score_pipeline(tmp_path, capsys):
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11), case)
    out1 = str(tmp_path / "o1")
    rc = run_cli(["code1", "--case", case, "--time-limit", "30",
                  "--output-dir", out1])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert os.path.exists(summary["solution"])

    out2 = str(tmp_path / "o2")
    rc = run_cli(["code2", "--case", case,
                  "--base", os.path.join(out1, "base_solution.json"),
                  "--factor", "1", "--output-dir", out2])
    assert rc == 0
    capsys.readouterr()

    score_file = str(tmp_path / "score.json")
    rc = run_cli(["score", "--case", case,
                  "--base", os.path.join(out1, "base_solution.json"),
                  "--solutions", out2, "--output", score_file])
    assert rc == 0
    report = json.loads(open(score_file).read())
    assert set(report) == {"generation_cost", "base_penalty",
                           "mean_contingency_penalty", "total"}
    assert np.isfinite(report["total"])


def test_score_missing_contingency_file(tmp_path, capsys):
    case = str(tmp_path / "c.json")
    net = generate_case(5, seed=11)
    write_case(net, case)
    base_path = str(tmp_path / "base.json")
    write_base_solution(base_path, net, flat_start(net), 1, 0.0, 0.0)
    rc = run_cli(["score", "--case", case, "--base", base_path,
                  "--solutions", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "contingency_" in err  # names the missing file


def test_score_corrupt_contingency_file(tmp_path, capsys):
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11), case)
    net = load_case(case)
    base_path = str(tmp_path / "base.json")
    write_base_solution(base_path, net, flat_start(net), 1, 0.0, 0.0)
    out = str(tmp_path / "o")
    rc = run_cli(["code2", "--case", case, "--base", base_path,
                  "--deterministic", "--factor", "0.1", "--output-dir", out])
    assert rc == 0
    bad = os.path.join(out, f"contingency_{net.contingencies[-1].id}.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    capsys.readouterr()
    rc = run_cli(["score", "--case", case, "--base", base_path,
                  "--solutions", out])
    assert rc == 1
    assert f"error: {bad}: " in capsys.readouterr().err


def test_score_contingency_file_under_another_name(tmp_path, capsys):
    # a file copied over another's name is priced under neither outage
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11), case)
    net = load_case(case)
    base_path = str(tmp_path / "base.json")
    write_base_solution(base_path, net, flat_start(net), 1, 0.0, 0.0)
    out = str(tmp_path / "o")
    rc = run_cli(["code2", "--case", case, "--base", base_path,
                  "--deterministic", "--factor", "0.1", "--output-dir", out])
    assert rc == 0
    first, last = net.contingencies[0].id, net.contingencies[-1].id
    assert first != last
    bad = os.path.join(out, f"contingency_{last}.json")
    with open(os.path.join(out, f"contingency_{first}.json")) as src, \
            open(bad, "w") as dst:
        dst.write(src.read())
    capsys.readouterr()
    rc = run_cli(["score", "--case", case, "--base", base_path,
                  "--solutions", out])
    assert rc == 1
    assert (f"error: {bad}: holds contingency {first}, expected {last}"
            in capsys.readouterr().err)


def test_score_recomputes_not_trusts(tmp_path, capsys, caplog):
    # tamper with the stored base penalty: the recomputed value must win
    case = str(tmp_path / "c.json")
    net = generate_case(5, seed=11)
    write_case(net, case)
    net = load_case(case)
    out1 = str(tmp_path / "o1")
    run_cli(["code1", "--case", case, "--time-limit", "30",
             "--output-dir", out1])
    out2 = str(tmp_path / "o2")
    run_cli(["code2", "--case", case,
             "--base", os.path.join(out1, "base_solution.json"),
             "--factor", "1", "--output-dir", out2])
    capsys.readouterr()
    base_file = os.path.join(out1, "base_solution.json")
    data = json.load(open(base_file))
    true_pen = data["penalty"]
    data["penalty"] = 1e9
    json.dump(data, open(base_file, "w"))
    with caplog.at_level("WARNING", logger="scacopf"):
        rc = run_cli(["score", "--case", case, "--base", base_file,
                      "--solutions", out2])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["base_penalty"] == pytest.approx(true_pen, abs=1e-9)
    assert any("differs" in r.message for r in caplog.records)


# --- harness ------------------------------------------------------------------

def small_case(tmp_path):
    path = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11, n_contingencies=2), path)
    return path


@pytest.mark.parametrize("mode", cli.HARNESS_MODES)
def test_harness_headers(tmp_path, capsys, mode):
    case = small_case(tmp_path)
    out = str(tmp_path / "out.csv")
    rc = run_cli(["harness", mode, case, "--output", out])
    assert rc == 0
    with open(out, newline="") as fh:
        header = tuple(next(csv.reader(fh)))
    assert header == cli.HARNESS_HEADERS[mode]


def test_harness_compl_ratios_at_least_one(tmp_path, capsys):
    case = small_case(tmp_path)
    out = str(tmp_path / "out.csv")
    assert run_cli(["harness", "compl-ablation", case,
                    "--output", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(float(r["ratio"]) >= 1.0 - 1e-9 for r in rows)


def test_harness_unknown_mode(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["harness", "bogus", "x.json"])


@pytest.mark.parametrize("n_select", ["0", "-1"])
def test_harness_n_select_below_one_exits_1(tmp_path, capsys, n_select):
    # 0 used to run as 3, and a negative count made the two selection
    # schemes compare different things
    out = str(tmp_path / "out.csv")
    rc = run_cli(["harness", "selection-ablation", small_case(tmp_path),
                  "--n-select", n_select, "--output", out])
    assert rc == 1
    assert "--n-select" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["harness", "train"])
def test_failed_base_solve_exits_2(tmp_path, capsys, monkeypatch, command):
    # harness and train take code1's base-solve path, retry included
    real = orch.solve_nlp

    def failing(prob, **kw):
        sol = real(prob, **{**kw, "max_iter": 1})
        sol.status = "numerical_failure"
        return sol

    monkeypatch.setattr(orch, "solve_nlp", failing)
    out = str(tmp_path / "out")
    argv = (["harness", "compl-ablation"] if command == "harness"
            else ["train"]) + [small_case(tmp_path), "--output", out]
    assert run_cli(argv) == 2
    assert "failed twice" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("mode", ["compl-ablation", "selection-ablation"])
def test_harness_output_ignores_the_clock(tmp_path, monkeypatch, capsys, mode):
    # harness budgets are deterministic operation counts: a clock that jumps
    # 1e3 s per reading changes nothing in the table
    case = small_case(tmp_path)
    tables = []
    for name in ("timed", "jumped"):
        if name == "jumped":
            clock = itertools.count(1e3, 1e3)
            monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
        out = str(tmp_path / f"{name}.csv")
        assert run_cli(["harness", mode, case, "--output", out]) == 0
        with open(out, "rb") as fh:
            tables.append(fh.read())
    assert tables[0] == tables[1]


# --- train --------------------------------------------------------------------

def test_train_round_trip(tmp_path, capsys):
    case = small_case(tmp_path)
    model_path = str(tmp_path / "model.json")
    rc = run_cli(["train", case, "--output", model_path,
                  "--eval-time-limit", "5"])
    assert rc == 0
    from scacopf.ranking import load_model, rank_initial
    model = load_model(model_path)
    net, _, base, _, _ = solve_base(load_case(case))
    plist = rank_initial(net, base, model)
    assert len(plist.entries) == len(net.contingencies)


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_train_eval_time_limit_not_positive_exits_1(tmp_path, capsys, limit):
    # a limit of 0 or less would label every sample with the fast fallback
    model_path = str(tmp_path / "model.json")
    rc = run_cli(["train", small_case(tmp_path), "--output", model_path,
                  "--eval-time-limit", limit])
    assert rc == 1
    assert "--eval-time-limit" in capsys.readouterr().err
    assert not os.path.exists(model_path)


def test_train_no_matches(tmp_path, capsys):
    rc = run_cli(["train", str(tmp_path / "*.nothing"),
                  "--output", str(tmp_path / "m.json")])
    assert rc == 1
