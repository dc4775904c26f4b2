import csv
import glob
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scacopf import cli
from scacopf import eval as eval_mod
from scacopf import orchestrator as orch
from scacopf.case_model import dumps_case, load_case, validate, write_case
from scacopf.cli import generate_case, main
from scacopf.orchestrator import flat_start, solve_base, write_base_solution

ROOT = Path(__file__).resolve().parents[1]


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


def test_gen_case_negative_contingency_count_exits_1(tmp_path, capsys):
    # a negative count used to slice off the last contingencies
    out = str(tmp_path / "c.json")
    rc = run_cli(["gen-case", "--n-bus", "6", "--seed", "9",
                  "--n-contingencies", "-1", "--output", out])
    assert rc == 1
    assert "n_contingencies" in capsys.readouterr().err
    assert not os.path.exists(out)


def one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("command", ["gen-case", "score", "harness", "train"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out")
    if command == "gen-case":
        argv = ["gen-case", "--n-bus", "5", "--seed", "11"]
    elif command == "score":
        case = small_case(tmp_path)
        net = load_case(case)
        base = str(tmp_path / "base.json")
        write_base_solution(base, net, flat_start(net), 1, 0.0, 0.0)
        solutions = str(tmp_path / "o")
        assert run_cli(["code2", "--case", case, "--base", base,
                        "--deterministic", "--factor", "0.1",
                        "--output-dir", solutions]) == 0
        argv = ["score", "--case", case, "--base", base,
                "--solutions", solutions]
    elif command == "harness":
        argv = ["harness", "compl-ablation", small_case(tmp_path)]
    else:
        argv = ["train", small_case(tmp_path)]
    capsys.readouterr()
    assert run_cli(argv + ["--output", out]) == 1
    captured = capsys.readouterr()
    assert out in one_error_line(captured.err)
    assert captured.out == ""
    assert not os.path.exists(os.path.dirname(out))


# --- exit codes ---------------------------------------------------------------

def test_code1_missing_case(tmp_path, capsys):
    rc = run_cli(["code1", "--case", str(tmp_path / "nope.json"),
                  "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("record, key, value, kind", [
    ("contingencies", "responding_gens", 7, "contingency"),
    ("generators", "cost", True, "generator"),
    ("generators", "cost", [[1.0, "ten"]], "generator"),
])
def test_code1_bad_list_field_exits_1_naming_it(tmp_path, capsys, record, key,
                                                value, kind):
    doc = json.loads(dumps_case(generate_case(5, seed=11)))
    rec = doc[record][0]
    rec[key] = value
    case = str(tmp_path / "c.json")
    with open(case, "w") as fh:
        json.dump(doc, fh)
    rc = run_cli(["code1", "--case", case, "--deterministic",
                  "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{kind} {rec['id']}: " in err
    assert key in err


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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [
    ("code1", "--time-limit"),
    ("code2", "--factor"),
    ("train", "--eval-time-limit"),
])
def test_non_finite_budget_exits_1(tmp_path, capsys, command, flag, value):
    # under --deterministic a NaN or infinite budget raised on its conversion
    # to an operation count; on the clock, NaN meant no limit at all
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", small_case(tmp_path), "--output", out]
    else:
        argv = deterministic_run_argv(tmp_path, command, out)
    assert run_cli(argv + [flag, value]) == 1
    one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)


def deterministic_run_argv(tmp_path, command, out):
    """`code1` or `code2` under --deterministic on a small case, writing to
    `out` (code2 from a flat-start base solution)."""
    case = small_case(tmp_path)
    argv = [command, "--case", case, "--deterministic", "--output-dir", out]
    if command == "code2":
        net = load_case(case)
        base = str(tmp_path / "base.json")
        write_base_solution(base, net, flat_start(net), 1, 0.0, 0.0)
        argv += ["--base", base]
    return argv


def test_deterministic_code2_prints_the_same_stdout(tmp_path, capsys):
    # a deterministic run prints no wall-clock reading, so two identical
    # runs print the same line; a run on the clock also prints its seconds
    outs = []
    for run in ("a", "b", "clock"):
        argv = deterministic_run_argv(tmp_path, "code2", str(tmp_path / run))
        if run == "clock":
            argv.remove("--deterministic")
        assert run_cli(argv + ["--factor", "0.5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {"files": 2}
    assert set(json.loads(outs[2])) == {"files", "elapsed"}


def test_seed_is_a_code1_flag(tmp_path, capsys):
    # the seed reaches only code1's base-solve retry, so code2 has none
    out = str(tmp_path / "out")
    assert exit_code(deterministic_run_argv(tmp_path, "code2", out)
                     + ["--seed", "1"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_seed_exits_1(tmp_path, capsys):
    # np.random.default_rng rejects a negative seed, but only the retried
    # base solve draws one, so such a run went on and exited 0
    out = str(tmp_path / "out")
    argv = deterministic_run_argv(tmp_path, "code1", out)
    assert run_cli(argv + ["--seed", "-1"]) == 1
    assert "seed" in one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("command", ["code1", "code2"])
def test_invalid_cutoff_exits_1(tmp_path, capsys, command, value):
    # no fast penalty is ever at or below a NaN or negative cutoff, so such
    # a run escalated every evaluation to the full engine; +inf stays valid
    # and means never escalate
    out = str(tmp_path / "out")
    argv = deterministic_run_argv(tmp_path, command, out)
    assert run_cli(argv + ["--cutoff", value]) == 1
    one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)
    assert orch.RunConfig(cutoff=float("inf")).cutoff == float("inf")


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


def test_code1_writes_on_after_failing_evaluations(tmp_path, capsys,
                                                  monkeypatch):
    # an evaluation that raises is replaced by the priced fallback, and the
    # run goes on to the master and its next base solution
    failed = []

    def fail(net, k, *a, **kw):
        failed.append(k.id)
        raise FloatingPointError("injected")

    monkeypatch.setattr(orch.eval_mod, "full_evaluate", fail)
    case = str(tmp_path / "c.json")
    write_case(generate_case(14, seed=3), case)
    out = str(tmp_path / "o")
    assert run_cli(["code1", "--case", case, "--deterministic",
                    "--time-limit", "100", "--output-dir", out]) == 0
    assert os.path.exists(os.path.join(out, "base_solution_2.json"))
    with open(os.path.join(out, "run_log.jsonl")) as fh:
        evaluated = [e for e in map(json.loads, fh) if e["event"] == "evaluated"]
    assert failed
    assert [e["contingency"] for e in evaluated
            if e["status"] == "fallback"] == failed
    assert all(np.isfinite(e["penalty"]) for e in evaluated)


def ranked_order(out_dir):
    with open(os.path.join(out_dir, "run_log.jsonl")) as fh:
        events = [json.loads(line) for line in fh]
    return next(e["order"] for e in events if e["event"] == "ranked")


def test_code1_candidates_ranked_first_without_model(tmp_path, capsys):
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11), case)
    out = str(tmp_path / "o")
    rc = run_cli(["code1", "--case", case, "--candidates", "KL2",
                  "--deterministic", "--time-limit", "5", "--output-dir", out])
    assert rc == 0
    assert ranked_order(out)[0] == "KL2"


def test_code1_unknown_candidates_exit_1(tmp_path, capsys):
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11), case)
    out = str(tmp_path / "o")
    rc = run_cli(["code1", "--case", case, "--candidates", "KL2,NOPE",
                  "--deterministic", "--time-limit", "5", "--output-dir", out])
    assert rc == 1
    assert "NOPE" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_code2_prescreen_spends_the_whole_share(tmp_path, capsys, monkeypatch):
    # 0.1 s per contingency is 5 deterministic operations: the fast engine
    # gets 3 and, when it escalates, the full engine 2; rounding each half
    # on its own gave 2 + 2
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11), case)
    net = load_case(case)
    base_path = str(tmp_path / "base.json")
    write_base_solution(base_path, net, flat_start(net), 1, 0.0, 0.0)
    limits = {}

    def spy(name, real):
        def engine(net, k, *a, time_limit, **kw):
            limits.setdefault(k.id, []).append((name, round(time_limit * 50)))
            return real(net, k, *a, time_limit=time_limit, **kw)
        return engine

    for name in ("fast_evaluate", "full_evaluate"):
        monkeypatch.setattr(eval_mod, name, spy(name, getattr(eval_mod, name)))
    rc = run_cli(["code2", "--case", case, "--base", base_path,
                  "--deterministic", "--factor", "0.1",
                  "--output-dir", str(tmp_path / "o")])
    assert rc == 0
    assert sorted(limits) == sorted(k.id for k in net.contingencies)
    for got in limits.values():
        assert got[:2] in ([("fast_evaluate", 3)],
                           [("fast_evaluate", 3), ("full_evaluate", 2)])
    assert any(len(got) > 1 for got in limits.values())


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


@pytest.fixture(scope="module")
def small_solution_set(tmp_path_factory):
    """(case, flat-start base solution, directory of code2's contingency
    solutions) of `small_case`."""
    tmp = tmp_path_factory.mktemp("solutions")
    case = small_case(tmp)
    net = load_case(case)
    base = str(tmp / "base.json")
    write_base_solution(base, net, flat_start(net), 1, 0.0, 0.0)
    out = str(tmp / "o")
    assert run_cli(["code2", "--case", case, "--base", base, "--deterministic",
                    "--factor", "0.1", "--output-dir", out]) == 0
    return case, base, out


# name -> a solution document changed into one that is not a solution; each
# ended in a TypeError traceback, or (a text penalty) passed code2
MALFORMED = {
    "array": lambda doc: [],
    "bus-list": lambda doc: {**doc, "bus": []},
    "gen-number": lambda doc: {**doc, "gen": 5},
    "penalty-text": lambda doc: {**doc, "penalty": "x"},
}
MALFORMED_BASE = {
    **MALFORMED,
    # int() took a text tag and raised on a list one; a text voltage failed
    # in the pricing, whose message named no file
    "tag-text": lambda doc: {**doc, "tag": "1"},
    "tag-list": lambda doc: {**doc, "tag": [1]},
    "v-text": lambda doc: {**doc, "bus": {**doc["bus"], "B1": {
        **doc["bus"]["B1"], "v": "x"}}},
}
MALFORMED_CONTINGENCY = {
    **MALFORMED,
    "segments-list": lambda doc: {**doc, "segments": []},
}


def write_changed(src, dst, change):
    with open(src) as fh:
        doc = json.load(fh)
    with open(dst, "w") as fh:
        json.dump(change(doc), fh)


@pytest.mark.parametrize("command", ["score", "code2"])
@pytest.mark.parametrize("change", list(MALFORMED_BASE))
def test_malformed_base_solution_exits_1(small_solution_set, tmp_path, capsys,
                                         command, change):
    case, base, solutions = small_solution_set
    bad = str(tmp_path / "base.json")
    write_changed(base, bad, MALFORMED_BASE[change])
    out = str(tmp_path / "out")
    argv = [command, "--case", case, "--base", bad]
    argv += (["--solutions", solutions] if command == "score" else
             ["--deterministic", "--output-dir", out])
    capsys.readouterr()
    assert run_cli(argv) == 1
    assert bad in one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("change", list(MALFORMED_CONTINGENCY))
def test_score_malformed_contingency_solution_exits_1(small_solution_set, tmp_path,
                                                      capsys, change):
    case, base, solutions = small_solution_set
    out = str(tmp_path / "o")
    shutil.copytree(solutions, out)
    bad = sorted(glob.glob(os.path.join(out, "contingency_*.json")))[-1]
    write_changed(bad, bad, MALFORMED_CONTINGENCY[change])
    capsys.readouterr()
    assert run_cli(["score", "--case", case, "--base", base, "--solutions", out]) == 1
    assert bad in one_error_line(capsys.readouterr().err)


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


@pytest.mark.parametrize("error, code", [(TimeoutError, 3), (RuntimeError, 2)])
def test_code1_solve_errors_exit_with_their_codes(tmp_path, capsys, monkeypatch,
                                                  error, code):
    # a run that times out before its first write exits 3, a failed solve 2,
    # each with one error line
    def failing(net, cfg, model=None):
        raise error("injected")

    monkeypatch.setattr(orch, "run_code1", failing)
    assert run_cli(["code1", "--case", small_case(tmp_path),
                    "--output-dir", str(tmp_path / "o")]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: injected"]


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
    assert sorted(rank_initial(net, base, model)) == \
        sorted(k.id for k in net.contingencies)


def test_train_model_ignores_the_clock(tmp_path, monkeypatch, capsys):
    # labels come from deterministic operation counts, so a clock that jumps
    # 1e3 s per reading writes the same model
    case = small_case(tmp_path)
    models = []
    for name in ("timed", "jumped"):
        if name == "jumped":
            clock = itertools.count(1e3, 1e3)
            monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
        out = str(tmp_path / f"{name}.json")
        assert run_cli(["train", case, "--output", out]) == 0
        with open(out, "rb") as fh:
            models.append(fh.read())
    assert models[0] == models[1]


def test_train_has_no_seed_flag(tmp_path, capsys):
    assert exit_code(["train", small_case(tmp_path), "--seed", "1",
                      "--output", str(tmp_path / "m.json")]) == 1


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


def test_train_every_case_argument_must_match(tmp_path, capsys):
    # an argument that matched no file was dropped, and the model fit on
    # the other cases alone
    missing = str(tmp_path / "missing.json")
    out = str(tmp_path / "m.json")
    assert run_cli(["train", small_case(tmp_path), missing,
                    "--output", out]) == 1
    assert missing in one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)


def test_train_labels_a_file_matched_twice_once(tmp_path, monkeypatch,
                                                capsys):
    from scacopf import harness
    from scacopf.ranking import FEATURE_NAMES, RidgeModel
    for name in ("a", "b"):
        write_case(generate_case(5, seed=11, n_contingencies=2),
                   str(tmp_path / f"{name}.json"))
    fitted = []

    def fake_train(nets, eval_time_limit, reg_lambda):
        fitted.append(len(nets))
        return RidgeModel(np.zeros(len(FEATURE_NAMES)), 0.0, reg_lambda)

    monkeypatch.setattr(harness, "train", fake_train)
    assert run_cli(["train", str(tmp_path / "a.json"),
                    str(tmp_path / "[ab].json"),
                    "--output", str(tmp_path / "m.json")]) == 0
    assert fitted == [2]


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_train_invalid_reg_lambda_exits_1_before_loading(tmp_path, monkeypatch,
                                                         capsys, value):
    # -1 failed with a traceback after every labelling evaluation; NaN and
    # inf wrote a model of NaN weights
    def no_load(path):
        raise AssertionError("a case was loaded")

    monkeypatch.setattr(cli, "load_case", no_load)
    out = str(tmp_path / "m.json")
    assert run_cli(["train", small_case(tmp_path), "--output", out,
                    "--reg-lambda", value]) == 1
    assert "--reg-lambda" in one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)


def test_train_degenerate_fit_exits_1(tmp_path, capsys):
    # two samples cannot fit the varying features without a penalty
    out = str(tmp_path / "m.json")
    assert run_cli(["train", small_case(tmp_path), "--output", out,
                    "--reg-lambda", "0", "--eval-time-limit", "1"]) == 1
    assert "degenerate" in one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)


MODEL = {"weights": [0.0] * 10, "intercept": 0.0, "reg_lambda": 1.0}
BAD_MODELS = {
    # a model of NaN weights, as `train --reg-lambda nan` wrote, was
    # accepted and ranked on NaN predictions
    "weights": {**MODEL, "weights": [0.0] * 9 + [float("nan")]},
    "intercept": {**MODEL, "intercept": float("inf")},
    "reg_lambda": {**MODEL, "reg_lambda": float("inf")},
    # documents that are not a model failed with KeyError or TypeError
    "empty-object": {},
    "no-intercept": {"weights": [0.0] * 10, "reg_lambda": 1.0},
    "array": [],
    "listed-intercept": {**MODEL, "intercept": [0.0]},
    "text-weight": {**MODEL, "weights": [0.0] * 9 + ["x"]},
}


@pytest.mark.parametrize("command", ["code1", "code2", "harness"])
@pytest.mark.parametrize("document", list(BAD_MODELS))
def test_non_finite_model_file_exits_1(tmp_path, capsys, command, document):
    path = str(tmp_path / "model.json")
    with open(path, "w") as fh:
        json.dump(BAD_MODELS[document], fh)
    out = str(tmp_path / "out")
    if command == "harness":
        argv = ["harness", "compl-ablation", small_case(tmp_path),
                "--output", out]
    else:
        argv = deterministic_run_argv(tmp_path, command, out)
    assert run_cli(argv + ["--model", path]) == 1
    assert path in one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["code1", "code2"])
def test_output_dir_that_cannot_be_made_exits_1(tmp_path, monkeypatch, capsys,
                                                command):
    # a directory under a regular file failed with a NotADirectoryError
    # traceback from os.makedirs once the run had started
    def no_run(*args, **kw):
        raise AssertionError("the run started")

    monkeypatch.setattr(orch, f"run_{command}", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    assert run_cli(deterministic_run_argv(tmp_path, command, out)) == 1
    captured = capsys.readouterr()
    assert out in one_error_line(captured.err)
    assert captured.out == ""


def test_readme_names_every_flag():
    readme = (ROOT / "README.md").read_text()
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command")
    missing = [f"{name} {opt}"
               for name, sub in subparsers.choices.items()
               for action in sub._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt not in readme]
    assert not missing


# --- start-up -----------------------------------------------------------------

# run in a child process: the test session has imported every module already
GEN_CASE_AND_HELP = """
import json, sys
from scacopf.cli import main
assert main(["gen-case", "--n-bus", "5", "--seed", "1",
             "--output", sys.argv[1]]) == 0
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scacopf", "scipy")))))
"""


def child_modules(code, *argv):
    """Run `code` in a fresh interpreter; its stdout's lines before the
    last, and the modules its last line lists."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return "\n".join(out), set(json.loads(loaded))


def test_gen_case_and_help_load_no_solver_module(tmp_path):
    # every CLI call is a process that compiles what it imports, so
    # gen-case and --help must not import the solver stack
    _, loaded = child_modules(GEN_CASE_AND_HELP, str(tmp_path / "c.json"))
    assert {m for m in loaded if m.startswith("scacopf")} == {
        "scacopf", "scacopf.cli", "scacopf.case_model"}
    assert "scipy.sparse" not in loaded
    assert load_case(str(tmp_path / "c.json")) == generate_case(5, seed=1)


# run in a child process: prints the score report's stdout, then the modules
SCORE = """
import json, sys
from scacopf.cli import main
assert main(["score", "--case", sys.argv[1], "--base", sys.argv[2],
             "--solutions", sys.argv[3]]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scacopf", "scipy")))))
"""
SOLVER_MODULES = {"scacopf.orchestrator", "scacopf.eval", "scacopf.nlp",
                  "scacopf.ranking", "scacopf.select", "scacopf.harness"}


def test_score_loads_no_solver_module(tmp_path, capsys):
    # score solves nothing, so its process loads the file codec and the
    # pricing with numpy alone, and prices the files as an in-process run
    case = str(tmp_path / "c.json")
    write_case(generate_case(5, seed=11, n_contingencies=3), case)
    out = str(tmp_path / "out")
    base = os.path.join(out, "base_solution.json")
    assert run_cli(["code1", "--case", case, "--deterministic",
                    "--time-limit", "5", "--output-dir", out]) == 0
    assert run_cli(["code2", "--case", case, "--base", base,
                    "--deterministic", "--output-dir", out]) == 0
    capsys.readouterr()
    assert run_cli(["score", "--case", case, "--base", base,
                    "--solutions", out]) == 0
    report = json.loads(capsys.readouterr().out)

    text, loaded = child_modules(SCORE, case, base, out)
    assert json.loads(text) == report
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert not loaded & SOLVER_MODULES
    assert {m for m in loaded if m.startswith("scacopf")} == {
        "scacopf", "scacopf.cli", "scacopf.case_model", "scacopf.acpf",
        "scacopf.compl", "scacopf.scopf", "scacopf.solution_files"}


def test_scopf_import_loads_no_solver_module():
    _, loaded = child_modules(
        "import json, sys, scacopf.scopf\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert not loaded & SOLVER_MODULES
