import itertools
import json
import os
import re
import time

import numpy as np
import pytest

from scacopf import orchestrator as orch
from scacopf.orchestrator import (
    RunConfig,
    flat_start,
    load_base_solution,
    load_contingency_solution,
    run_code1,
    run_code2,
    write_base_solution,
)
from scacopf.ranking import rank_initial
from scacopf.scopf import point_penalty, slacks_from_state, total_score
from scacopf.solution_files import _atomic_write


@pytest.fixture
def quick_cfg(monkeypatch):
    """A `RunConfig` factory for short runs, with 5 s fast-sweep and
    full-evaluation budgets."""
    monkeypatch.setattr(orch, "INIT_FAST_EVAL_BUDGET", 5.0)
    monkeypatch.setattr(orch, "FULL_EVAL_BUDGET", 5.0)

    def make(output_dir, **kw):
        return RunConfig(**{"code1_time_limit": 30.0, "n_select": 2,
                            "output_dir": str(output_dir), **kw})
    return make


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.code1_time_limit == 600.0
    assert (orch.INIT_FAST_EVAL_BUDGET, orch.FULL_EVAL_BUDGET) == (60.0, 30.0)
    assert cfg.per_contingency_code2_factor == 2.0
    assert cfg.n_select == 3


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(code1_time_limit=0)
    with pytest.raises(ValueError):
        RunConfig(n_select=0)


def test_flat_start_values(net5):
    point = flat_start(net5)
    for i, b in enumerate(net5.buses):
        assert point.state.v[i] == pytest.approx((b.v_min + b.v_max) / 2)
        assert point.state.bcs[i] == pytest.approx((b.bcs_min + b.bcs_max) / 2)
    assert np.all(point.state.theta == 0.0)
    for gi, g in enumerate(net5.generators):
        assert point.state.p_gen[gi] == pytest.approx(g.p_max)
        assert point.state.q_gen[gi] == 0.0
    assert np.all(point.state.flows == 0.0)
    # slacks absorb the imbalance: penalty is finite and consistent
    assert np.isfinite(point_penalty(net5, point))


def test_base_solution_round_trip(tmp_path, net5):
    point = flat_start(net5)
    path = str(tmp_path / "base.json")
    write_base_solution(path, net5, point, 4, 123.5, 7.25)
    loaded, tag, data = load_base_solution(path, net5)
    assert tag == 4
    assert data["objective"] == 123.5
    assert data["penalty"] == 7.25
    np.testing.assert_allclose(loaded.state.v, point.state.v)
    np.testing.assert_allclose(loaded.state.p_gen, point.state.p_gen)
    # slacks (and flows) are recomputed from the stored state, not stored
    from scacopf.scopf import flows_from_state
    ref = slacks_from_state(net5, flows_from_state(net5, point.state))
    np.testing.assert_allclose(loaded.slacks, ref.slacks, atol=1e-12)


def test_atomic_write_replaces(tmp_path):
    path = str(tmp_path / "f.json")
    _atomic_write(path, "{\"a\": 1}\n")
    _atomic_write(path, "{\"a\": 2}\n")
    assert json.load(open(path)) == {"a": 2}
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp")]
    assert leftovers == []


def test_code1_produces_solution_and_log(tmp_path, net5, quick_cfg):
    res = run_code1(net5, quick_cfg(tmp_path))
    assert os.path.exists(res.solution_path)
    _, tag, data = load_base_solution(res.solution_path, net5)
    assert tag == res.base_tag >= 1
    assert data["penalty"] == pytest.approx(res.penalty)
    # tagged snapshots exist for every written tag
    for t in range(1, res.base_tag + 1):
        assert os.path.exists(str(tmp_path / f"base_solution_{t}.json"))
    events = [json.loads(line)["event"]
              for line in open(res.log_path)]
    for required in ("preprocessed", "base-solved", "written", "ranked",
                     "evaluated"):
        assert required in events
    if res.base_tag > 1:
        assert "master-solved" in events
        assert "selected" in events


def test_code1_master_improves_score(tmp_path, net5, quick_cfg):
    res = run_code1(net5, quick_cfg(tmp_path))
    assert res.base_tag >= 2  # at least one master iteration ran
    assert set(res.included) <= {k.id for k in net5.contingencies}
    # the final base point is feasible enough to have a small penalty
    assert res.penalty < 1.0


def test_code1_keeps_its_first_base_when_the_master_fails(tmp_path, net5,
                                                        monkeypatch, quick_cfg):
    # a master solve with a non-finite x ends the loop: the run returns the
    # base solve's point as tag 1, its first and only write
    real = orch.solve_nlp

    def failing_master(prob, **kw):
        sol = real(prob, **kw)
        if kw.get("warm_start"):
            sol.x = np.full_like(sol.x, np.nan)
        return sol

    monkeypatch.setattr(orch, "solve_nlp", failing_master)
    res = run_code1(net5, quick_cfg(tmp_path, deterministic=True))
    events = [json.loads(line) for line in open(res.log_path)]
    assert events[-1]["event"] == "master-failed"
    assert [e["tag"] for e in events if e["event"] == "written"] == [1]
    solved = next(e for e in events if e["event"] == "base-solved")
    assert res.base_tag == 1 and res.included
    assert (res.objective, res.penalty) == (solved["objective"], solved["penalty"])
    assert open(res.solution_path, "rb").read() == \
        open(tmp_path / "base_solution_1.json", "rb").read()
    assert not os.path.exists(tmp_path / "base_solution_2.json")


def test_code1_no_contingencies(tmp_path, net2, quick_cfg):
    net = net2
    net = type(net)(buses=net.buses, generators=net.generators,
                    lines=net.lines, transformers=net.transformers,
                    contingencies=(), penalty_config=net.penalty_config,
                    reference_bus=net.reference_bus)
    res = run_code1(net, quick_cfg(tmp_path))
    assert res.base_tag == 1
    assert res.included == []
    assert os.path.exists(res.solution_path)


def test_code2_writes_one_file_per_contingency(tmp_path, net5, quick_cfg):
    base = flat_start(net5)
    cfg = quick_cfg(tmp_path, per_contingency_code2_factor=1.0)
    res = run_code2(net5, cfg, base, base_tag=1)
    assert len(res.files) == len(net5.contingencies)
    assert set(res.results) == {k.id for k in net5.contingencies}
    for path in res.files:
        point, st, data = load_contingency_solution(path, net5)
        assert data["base_tag"] == "base-1"
        assert data["penalty"] >= 0.0
        assert set(data["segments"]["active"].values()) <= {"L", "M", "U"}
        assert set(data["segments"]["reactive"].values()) <= {"L", "M", "U"}


def test_code2_total_score_computable(tmp_path, net5, quick_cfg):
    res1 = run_code1(net5, quick_cfg(tmp_path / "c1"))
    base, tag, _ = load_base_solution(res1.solution_path, net5)
    cfg = quick_cfg(tmp_path / "c2")
    res2 = run_code2(net5, cfg, base, base_tag=tag)
    pens = {cid: r.penalty for cid, r in res2.results.items()}
    score = total_score(net5, base, pens)
    assert np.isfinite(score)


def test_code2_fallback_on_failure(tmp_path, net5, monkeypatch, quick_cfg):
    def boom(*a, **kw):
        raise RuntimeError("injected failure")
    monkeypatch.setattr(orch.eval_mod, "prescreen_then_evaluate", boom)
    base = flat_start(net5)
    cfg = quick_cfg(tmp_path)
    res = run_code2(net5, cfg, base, base_tag=1)
    assert len(res.files) == len(net5.contingencies)
    for r in res.results.values():
        assert r.status == "fallback"
        assert r.base_tag == "base-1"  # tagged by the caller, fallback too
        assert np.isfinite(r.penalty)


def test_code2_reverse_order(tmp_path, net5, quick_cfg):
    base = flat_start(net5)
    order = rank_initial(net5, base)
    calls = []
    import scacopf.eval as ev
    real = ev.prescreen_then_evaluate

    def spy(net, k, *a, **kw):
        calls.append(k.id)
        return real(net, k, *a, **kw)

    orig = orch.eval_mod.prescreen_then_evaluate
    orch.eval_mod.prescreen_then_evaluate = spy
    try:
        run_code2(net5, quick_cfg(tmp_path), base, base_tag=1)
    finally:
        orch.eval_mod.prescreen_then_evaluate = orig
    assert calls == list(reversed(order))


def test_code2_budgets_within_factor(tmp_path, net5, monkeypatch):
    # code2 evaluates one contingency at a time within factor * |K| seconds
    base = flat_start(net5)
    real = orch.eval_mod.prescreen_then_evaluate
    seen = []

    def spy(*a, time_limit, **kw):
        seen.append(time_limit)
        return real(*a, time_limit=time_limit, **kw)

    monkeypatch.setattr(orch.eval_mod, "prescreen_then_evaluate", spy)
    cfg = RunConfig(output_dir=str(tmp_path), deterministic=True,
                    per_contingency_code2_factor=0.5)
    run_code2(net5, cfg, base, base_tag=1)
    assert len(seen) == len(net5.contingencies)
    assert sum(seen) <= 0.5 * len(net5.contingencies) + 1e-12


def test_deterministic_evaluation_schedule(tmp_path, net5, monkeypatch, quick_cfg):
    # every engine call of a deterministic code1 and code2 run, with the time
    # limit the budget gave it: the sweep's, full batch's and refresh's
    # shares in code1, then one share per contingency in code2
    calls = []
    for name in ("fast_evaluate", "full_evaluate", "prescreen_then_evaluate"):
        def spy(net, k, base, *a, _real=getattr(orch.eval_mod, name),
                _name=name, **kw):
            calls.append((_name, k.id, kw.get("time_limit")))
            return _real(net, k, base, *a, **kw)
        monkeypatch.setattr(orch.eval_mod, name, spy)
    res = run_code1(net5, quick_cfg(tmp_path, deterministic=True))
    base, tag, _ = load_base_solution(res.solution_path, net5)
    run_code2(net5, RunConfig(output_dir=str(tmp_path / "c2"),
                              deterministic=True), base, base_tag=tag)
    fast, full, pre = ("fast_evaluate", "full_evaluate",
                       "prescreen_then_evaluate")
    assert calls == [
        (fast, "CG2", 5.0 / 3), (fast, "CT1", 5.0 / 3), (fast, "CL2", 5.0 / 3),
        (full, "CG2", 2.5), (full, "CL2", 2.5),
        (pre, "CL2", 5.0), (fast, "CL2", 2.5),
        (full, "CL2", 5.0),
        (pre, "CL2", 2.0), (fast, "CL2", 1.0),
        (pre, "CT1", 2.0), (fast, "CT1", 1.0),
        (pre, "CG2", 2.0), (fast, "CG2", 1.0), (full, "CG2", 1.0),
    ]


def test_deterministic_runs_byte_identical(tmp_path, net5, quick_cfg):
    def one(d):
        cfg = quick_cfg(d, deterministic=True, seed=7)
        res = run_code1(net5, cfg)
        base, tag, _ = load_base_solution(res.solution_path, net5)
        cfg2 = RunConfig(output_dir=str(d / "c2"), deterministic=True, seed=7)
        run_code2(net5, cfg2, base, base_tag=tag)
        out = {}
        for root, _, files in os.walk(d):
            for f in files:
                rel = os.path.relpath(os.path.join(root, f), d)
                out[rel] = open(os.path.join(root, f), "rb").read()
        return out
    a = one(tmp_path / "a")
    b = one(tmp_path / "b")
    assert a == b


def test_deterministic_run_ignores_the_clock(tmp_path, monkeypatch):
    # every phase of code1 and code2 is charged in operations, so a clock
    # that jumps 1e3 s per reading changes no written byte
    from scacopf.case_model import write_case
    from scacopf.cli import generate_case, main
    case = str(tmp_path / "case14.json")
    write_case(generate_case(14, 3), case)

    def one(d):
        c1, c2 = str(d / "c1"), str(d / "c2")
        assert main(["code1", "--case", case, "--deterministic",
                     "--time-limit", "100", "--output-dir", c1]) == 0
        assert main(["code2", "--case", case, "--deterministic",
                     "--base", os.path.join(c1, "base_solution.json"),
                     "--output-dir", c2]) == 0
        return {os.path.relpath(os.path.join(root, f), d):
                open(os.path.join(root, f), "rb").read()
                for root, _, files in os.walk(d) for f in files}

    timed = one(tmp_path / "timed")
    clock = itertools.count(1e3, 1e3)
    monkeypatch.setattr(time, "monotonic", lambda: float(next(clock)))
    assert one(tmp_path / "jumped") == timed
    assert "c2/contingency_KG1.json" in timed


def test_deterministic_code1_charges_every_phase(tmp_path, net5, quick_cfg):
    # 17 s: sweep 5, full batch 5, master 1, refresh 5; then less than the
    # 2 s a master needs is left, with two contingencies to go
    cfg = quick_cfg(tmp_path, deterministic=True, code1_time_limit=17.0,
                    n_select=1)
    res = run_code1(net5, cfg)
    events = [json.loads(line) for line in open(res.log_path)]
    assert res.iterations == 1 and len(res.included) == 1
    assert events[-1] == {"event": "done", "t": len(events),
                          "reason": "time-exhausted"}


def _failing_base_solves(monkeypatch, fail, **forced):
    """Let `solve_base`'s first ``fail`` NLPs end with the ``forced`` fields;
    return the list of starting voltages of every base solve."""
    starts, real_build, real_solve = [], orch.build_base_problem, orch.solve_nlp

    def build(net, report, start):
        starts.append(start.state.v.copy())
        return real_build(net, report, start=start)

    def solve(prob, **kw):
        sol = real_solve(prob, **kw)
        if len(starts) <= fail:
            for name, value in forced.items():
                setattr(sol, name, value)
        return sol

    monkeypatch.setattr(orch, "build_base_problem", build)
    monkeypatch.setattr(orch, "solve_nlp", solve)
    return starts


def test_solve_base_retries_from_a_perturbed_start(net5, monkeypatch, tmp_path):
    starts = _failing_base_solves(monkeypatch, 1, status="numerical_failure")
    path = tmp_path / "log.jsonl"
    net, _, point, objective, penalty = orch.solve_base(
        net5, log=orch._RunLog(str(path)), seed=3)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["event"] for e in events] == [
        "preprocessed", "base-solve-retry", "base-solved"]
    assert events[1]["status"] == "numerical_failure"
    flat, perturbed = starts
    np.testing.assert_array_equal(flat, flat_start(net).state.v)
    assert not np.array_equal(perturbed, flat)
    assert np.all(np.abs(perturbed / flat - 1.0) <= 0.01 + 1e-12)
    assert all(b.v_min <= v <= b.v_max for b, v in zip(net.buses, perturbed))
    assert np.isfinite(objective) and penalty >= 0.0
    assert np.all(np.isfinite(point.state.v))


@pytest.mark.parametrize("forced, error, message", [
    ({"status": "numerical_failure"}, RuntimeError,
     "failed twice (last status: numerical_failure)"),
    ({"status": "time_limit", "constraint_violation": 1.0}, TimeoutError,
     "time limit reached"),
], ids=["failure", "time-limit"])
def test_solve_base_gives_up_after_two_attempts(net5, monkeypatch, forced,
                                                error, message):
    starts = _failing_base_solves(monkeypatch, 2, **forced)
    with pytest.raises(error, match=re.escape(message)):
        orch.solve_base(net5)
    assert len(starts) == 2


def test_run_log_deterministic_stamps(tmp_path):
    log = orch._RunLog(str(tmp_path / "log.jsonl"), deterministic=True)
    log.emit("one")
    log.emit("two", extra=3)
    lines = [json.loads(line) for line in open(log.path)]
    assert [rec["t"] for rec in lines] == [1, 2]
    assert lines[1]["extra"] == 3


def test_run_log_records_every_nlp(tmp_path, monkeypatch, quick_cfg):
    from scacopf.cli import generate_case
    solved = []
    real = orch.solve_nlp

    def spy(*a, **kw):
        sol = real(*a, **kw)
        solved.append([sol.status, sol.iterations, sol.kkt_error, sol.lus,
                       sol.colamd_steps, sol.gmres_calls])
        return sol

    monkeypatch.setattr(orch, "solve_nlp", spy)
    monkeypatch.setattr(orch.eval_mod, "solve_nlp", spy)
    res = run_code1(generate_case(14, 3), quick_cfg(tmp_path, deterministic=True))
    logged, sources = [], set()
    for rec in map(json.loads, open(res.log_path)):
        if rec["event"] in ("base-solve-retry", "base-solved", "master-solved",
                            "master-failed"):
            logged.append([rec[key] for key in ("status", "iterations", "kkt_error",
                                                "lus", "colamd_steps", "gmres_calls")])
            assert rec["mu"] > 0.0
            sources.add(rec["event"])
        elif rec["event"] == "evaluated" and rec["nlp"]:
            logged += rec["nlp"]
            sources.add(rec["event"])
    assert sources >= {"base-solved", "evaluated", "master-solved"}
    assert logged == solved


def test_code1_priority_order_leaves_out_the_master(tmp_path):
    # three master passes: the run log's orders are the ids not yet in the
    # master, and every id is selected at most once
    from scacopf.cli import generate_case
    net = generate_case(14, 3)
    res = run_code1(net, RunConfig(code1_time_limit=200.0, n_select=2,
                                   deterministic=True,
                                   output_dir=str(tmp_path)))
    events = [json.loads(line) for line in open(res.log_path)]
    selections = [e["contingencies"] for e in events
                  if e["event"] == "selected"]
    assert len(selections) >= 3
    included = [c for chosen in selections for c in chosen]
    assert included == res.included
    assert len(included) == len(set(included))
    selected, orders = [], []
    for e in events:
        if e["event"] == "selected":
            selected += e["contingencies"]
        elif e["event"] in ("ranked", "resorted"):
            assert not set(e["order"]) & set(selected)
            orders.append((e["order"], list(selected)))
    last_order, included_then = orders[-1]
    assert sorted(last_order + included_then) == \
        sorted(k.id for k in net.contingencies)
