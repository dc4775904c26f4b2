"""Tests for the fast/full contingency evaluation engines."""

import dataclasses

import numpy as np
import pytest

from conftest import make_bus, make_gen, make_line

from scacopf import compl, eval as ev, nlp, scopf
from scacopf.acpf import CaseLayout, balance_residuals
from scacopf.case_model import (Contingency, Network, PenaltyConfig, load_case,
                                preprocess, write_case)


@pytest.fixture(scope="module")
def solved5():
    from conftest import five_bus_net
    net = five_bus_net()
    prob = scopf.build_base_problem(net)
    sol = nlp.solve_nlp(prob, tol=1e-8)
    assert sol.status == "optimal"
    return net, prob.meta.extract_base(sol.x)


def idle_gen_net():
    """G2 is idle at the base optimum, so outaging it changes nothing."""
    net = Network(
        buses=(make_bus("B1"), make_bus("B2", p_load=0.8, q_load=0.2)),
        generators=(
            make_gen("G1", "B1"),
            make_gen("G2", "B2", p_min=0.0, p_max=0.0, q_min=0.0, q_max=0.0),
        ),
        lines=(make_line("L1", "B1", "B2"),),
        transformers=(),
        contingencies=(
            Contingency("KG2", "generator-outage", "G2", ("G1",)),
        ),
        penalty_config=PenaltyConfig(),
        reference_bus="B1",
    )
    return net


def test_fast_zero_penalty_on_noop_outage():
    net = idle_gen_net()
    prob = scopf.build_base_problem(net)
    sol = nlp.solve_nlp(prob, tol=1e-8)
    base = prob.meta.extract_base(sol.x)
    res = ev.fast_evaluate(net, net.contingency("KG2"), base)
    assert res.method == "fast"
    assert res.penalty == pytest.approx(0.0, abs=1e-8)


def test_upper_bound_property(solved5):
    # fast penalty is an upper bound on the full optimum for the same
    # segments: full seeded with the fast result's segment assignment
    net, base = solved5
    for k in net.contingencies:
        fast = ev.fast_evaluate(net, k, base)
        full = ev.full_evaluate(net, k, base, init_compl=fast.compl)
        assert fast.penalty >= full.penalty - 1e-6


def test_full_not_worse_than_initial_segment_nlp(solved5):
    net, base = solved5
    for k in net.contingencies:
        if k.kind == "generator-outage":
            st = compl.init_generator_outage(net, k, base)
        else:
            st = compl.init_default(net, k)
        prob = scopf.build_contingency_problem(net, k, base, st)
        sol = nlp.solve_nlp(prob, tol=1e-8)
        point = prob.meta.extract_ctg(sol.x, k.id)
        repriced = scopf.slacks_from_state(
            net, scopf.flows_from_state(net, point.state, k.outaged),
            k.outaged, delta=point.delta)
        init_pen = scopf.point_penalty(net, repriced, k.outaged)
        full = ev.full_evaluate(net, k, base)
        assert full.penalty <= init_pen + 1e-9


def test_penalty_is_explicit_and_slack_consistent(solved5):
    net, base = solved5
    for k in net.contingencies:
        for res in (ev.fast_evaluate(net, k, base),
                    ev.full_evaluate(net, k, base)):
            # reported penalty equals the priced slacks of the returned point
            assert res.penalty == pytest.approx(
                scopf.point_penalty(net, res.point, k.outaged), abs=1e-12)
            # slacks absorb balance residuals exactly
            bal = balance_residuals(net, res.point.state, k.outaged)
            np.testing.assert_allclose(
                bal.p_resid + res.point.sig_p_plus - res.point.sig_p_minus,
                0.0, atol=1e-8)
            np.testing.assert_allclose(
                bal.q_resid + res.point.sig_q_plus - res.point.sig_q_minus,
                0.0, atol=1e-8)
            assert res.penalty >= 0.0


def test_fast_infinite_cutoff_runs_loop(solved5):
    net, base = solved5
    k = net.contingency("CL2")
    with_inf = ev.fast_evaluate(net, k, base, cutoff=np.inf)
    with_zero = ev.fast_evaluate(net, k, base, cutoff=0.0)
    assert with_inf.penalty == pytest.approx(with_zero.penalty, abs=1e-12)


def test_fast_newton_failure_falls_back(solved5, monkeypatch):
    net, base = solved5
    k = net.contingency("CG2")
    from scacopf.nlp import SquareResult

    def broken(fun, jac, x0, **kw):
        return SquareResult(np.full_like(np.asarray(x0, float), np.nan),
                            "failed", 1, np.inf)

    monkeypatch.setattr(ev, "solve_square", broken)
    res = ev.fast_evaluate(net, k, base)
    assert res.status == "fallback"
    assert np.isfinite(res.penalty)
    # the fallback equals the projected base point's priced slacks
    st = compl.init_generator_outage(net, k, base)
    fb = compl.project_response(st, net, k, base, base)
    assert res.penalty == pytest.approx(
        scopf.point_penalty(net, fb, k.outaged), abs=1e-12)


def test_fallback_result_is_the_fast_engine_with_no_budget(solved5):
    # with no operation to spend, the fast engine returns its starting
    # candidate, the fallback
    net, base = solved5
    for k in net.contingencies:
        fb = ev.fallback_result(net, k, base, base_tag="base-1")
        fast = ev.fast_evaluate(net, k, base, time_limit=0, deterministic=True)
        assert (fb.method, fb.status, fb.base_tag) == ("fast", "fallback", "base-1")
        assert fb.penalty == fast.penalty
        assert fb.compl == fast.compl
        np.testing.assert_array_equal(fb.point.slack_vector(),
                                      fast.point.slack_vector())
        for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
            np.testing.assert_array_equal(getattr(fb.point.state, name),
                                          getattr(fast.point.state, name))


def test_full_degrades_to_fast_on_nlp_failure(solved5, monkeypatch):
    net, base = solved5
    k = net.contingency("CL2")

    real = nlp.solve_nlp

    def broken(prob, **kw):
        sol = real(prob, **{**kw, "max_iter": 1})
        sol.status = "numerical_failure"
        return sol

    monkeypatch.setattr(ev, "solve_nlp", broken)
    res = ev.full_evaluate(net, k, base)
    assert res.method == "fast"
    assert res.status == "degraded"
    assert np.isfinite(res.penalty)


def test_deterministic_degraded_evaluation_ignores_the_clock(solved5, monkeypatch):
    # the fast engine that a failed NLP degrades to gets the operations that
    # are left, however much wall time the clock says has passed
    net, base = solved5
    k = net.contingency("CG2")
    real = nlp.solve_nlp

    def broken(prob, **kw):
        sol = real(prob, **{**kw, "max_iter": 1})
        sol.status = nlp.NUMERICAL_FAILURE
        return sol

    monkeypatch.setattr(ev, "solve_nlp", broken)
    results = [ev.full_evaluate(net, k, base, time_limit=10, deterministic=True)]
    clock = iter(np.arange(1, 10_000) * 1e3)
    monkeypatch.setattr(ev.time, "monotonic", lambda: float(next(clock)))
    results.append(ev.full_evaluate(net, k, base, time_limit=10, deterministic=True))
    timed, jumped = results
    assert jumped.status == timed.status == "degraded"
    assert jumped.penalty == timed.penalty
    for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
        np.testing.assert_array_equal(getattr(jumped.point.state, name),
                                      getattr(timed.point.state, name))
    np.testing.assert_array_equal(jumped.point.slack_vector(), timed.point.slack_vector())


def test_prescreen_low_fast_penalty_skips_full(solved5):
    net, base = solved5
    res = ev.prescreen_then_evaluate(net, net.contingency("CT1"), base)
    assert res.method == "fast"
    assert res.penalty <= ev.default_cutoff(net)


def test_prescreen_escalates_to_full(solved5):
    net, base = solved5
    res = ev.prescreen_then_evaluate(net, net.contingency("CG2"), base)
    assert res.method == "full"
    fast = ev.fast_evaluate(net, net.contingency("CG2"), base)
    assert fast.penalty > ev.default_cutoff(net)
    assert res.penalty <= fast.penalty + 1e-9


def test_default_cutoff_value(net5):
    # one slack at the 2e-2 threshold prices on the first penalty segment
    assert ev.default_cutoff(net5) == pytest.approx(2e-2 * 1e3, rel=1e-12)


def test_deterministic_budget_reproducible(solved5):
    net, base = solved5
    k = net.contingency("CG2")
    a = ev.full_evaluate(net, k, base, time_limit=5.0, deterministic=True)
    b = ev.full_evaluate(net, k, base, time_limit=5.0, deterministic=True)
    assert a.penalty == b.penalty
    np.testing.assert_array_equal(a.point.state.v, b.point.state.v)


def test_evaluation_result_fields(solved5):
    net, base = solved5
    res = ev.fast_evaluate(net, net.contingency("CL2"), base,
                           base_tag="base-1")
    assert res.contingency_id == "CL2"
    assert res.base_tag == "base-1"
    assert res.elapsed >= 0.0


@pytest.mark.parametrize("ctg_id", ["CL2", "CT1", "CG2"])
def test_square_system_jacobian_matches_finite_differences(ctg_id):
    # every mix of active segments over the responders and of reactive
    # segments over the available generators
    from itertools import product
    from conftest import five_bus_net
    from test_acpf import fd_jacobian
    net = five_bus_net()
    k = net.contingency(ctg_id)
    base = scopf.default_start(net)
    rng = np.random.default_rng(11)
    segs = (scopf.MIDDLE, scopf.LOWER, scopf.UPPER)
    state = compl.init_default(net, k)
    active, reactive = sorted(state.active), sorted(state.reactive)
    assert active and reactive
    for mix in product(segs, repeat=len(active) + len(reactive)):
        state.active.update(zip(active, mix))
        state.reactive.update(zip(reactive, mix[len(active):]))
        sys_ = ev._SquareSystem(net, k, base, state)
        z = sys_.start(base, 0.05) + rng.uniform(-0.05, 0.05, sys_.n)
        lu_pattern, vals = sys_.jacobian(z)
        A, _, pos = lu_pattern.lu(vals)
        J = A[:, pos]
        J_fd = fd_jacobian(sys_.residual, z)
        assert J.shape == (sys_.n, sys_.n)
        scale = np.maximum(np.abs(J_fd), 1.0)
        assert np.max(np.abs(J - J_fd) / scale) < 1e-6, mix


@pytest.mark.parametrize("ctg_id", ["CL2", "CT1", "CG2"])
def test_square_system_evaluates_the_kernel_entries_it_selects(ctg_id):
    # the Jacobian's values are the full acpf kernel's selected entries,
    # signed, then the constants, though only the leading ones are
    # evaluated; the residual's balance rows are the kernel's balance
    from conftest import five_bus_net
    net = five_bus_net()
    k = net.contingency(ctg_id)
    base = scopf.default_start(net)
    sys_ = ev._SquareSystem(net, k, base, compl.init_default(net, k))
    lay, st = sys_.lay, sys_.st
    assert st.sel.max() < lay.n_jac_head
    z = sys_.start(base, 0.05) + np.random.default_rng(3).uniform(-0.05, 0.05, sys_.n)
    _, vals = sys_.jacobian(z)
    full = lay.jac_values(sys_.full_x(z))
    np.testing.assert_array_equal(vals, np.concatenate((full[st.sel] * st.sign, st.const)))
    r = sys_.residual(z)
    np.testing.assert_array_equal(r[:2 * lay.nb], np.concatenate(lay.balance(sys_.full_x(z))))
    assert r[2 * lay.nb] == z[lay.nb + sys_.ref]


def test_fast_evaluate_builds_one_case_layout(solved5, monkeypatch):
    # one compiled model per outage serves every square-system round,
    # projection and penalty, and every later evaluation of that outage
    net, base = solved5
    assert ev.CaseLayout is scopf.CaseLayout
    built, rounds = [], []
    init = ev.CaseLayout.__init__
    real_solve = ev.solve_square

    def counting_init(self, net, outaged=None):
        built.append(outaged)
        init(self, net, outaged)

    def counting_solve(*args, **kwargs):
        rounds.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(ev.CaseLayout, "__init__", counting_init)
    monkeypatch.setattr(ev, "solve_square", counting_solve)
    for _ in range(3):
        for k in net.contingencies:
            ev.fast_evaluate(net, k, base)
    assert rounds
    assert len(built) == len(set(built)) <= len(net.contingencies)


@pytest.mark.parametrize("ctg_id", ["CL2", "CT1", "CG2"])
def test_square_system_raw_point_flows_are_defined(ctg_id):
    # branch flows are functions of the voltages, never Newton unknowns; the
    # raw point leaves them NaN, and its projection, which recomputes them,
    # is the projection of the same point with its flows defined
    from conftest import five_bus_net
    net = five_bus_net()
    k = net.contingency(ctg_id)
    base = scopf.default_start(net)
    state = compl.init_default(net, k)
    sys_ = ev._SquareSystem(net, k, base, state)
    # unknowns: v and theta per bus, responder p, available q, and delta
    assert sys_.n == 2 * len(net.buses) + len(state.active) + len(state.reactive) + 1
    z = sys_.start(base, 0.05) + np.random.default_rng(5).uniform(-0.05, 0.05, sys_.n)
    raw = sys_.raw_point(z)
    assert np.isnan(raw.state.flows[sys_.lay.svc]).all()
    defined = raw.copy()
    defined.state = scopf.flows_from_state(net, raw.state, k.outaged)
    assert np.isfinite(defined.state.flows).all()
    got = compl.project_response(state, net, k, base, raw)
    want = compl.project_response(state, net, k, base, defined)
    for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
        assert getattr(got.state, name).tobytes() == getattr(want.state, name).tobytes(), name
    for name in ("sig_p_plus", "sig_p_minus", "sig_q_plus", "sig_q_minus", "sig_s"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.delta == want.delta


def generated_base(n_bus):
    """`gen-case n_bus --seed 3` after preprocessing, with its base solved
    from a flat start as code1 does."""
    from scacopf.case_model import preprocess
    from scacopf.cli import generate_case
    from scacopf.orchestrator import flat_start
    net, report = preprocess(generate_case(n_bus, 3))
    prob = scopf.build_base_problem(net, report, start=flat_start(net))
    sol = nlp.solve_nlp(prob, tol=1e-8)
    assert sol.status == nlp.OPTIMAL
    return net, prob.meta.extract_base(sol.x)


def test_square_system_picks_its_lu_by_size(monkeypatch):
    # a square system of n rows factors densely iff n <= nlp.DENSE_LU_MAX
    from conftest import five_bus_net
    net = five_bus_net()
    k = net.contingencies[0]
    base = scopf.default_start(net)
    state = compl.init_default(net, k)
    n = ev._SquareSystem(net, k, base, state).n
    for limit, kind in ((n, nlp._DenseLuPattern), (n - 1, nlp._LuPattern)):
        monkeypatch.setattr(nlp, "DENSE_LU_MAX", limit)
        sys_ = ev._SquareSystem(five_bus_net(), k, base, state)
        assert type(sys_.st.pattern) is kind


def test_fast_evaluate_agrees_on_dense_and_sparse_lu(monkeypatch):
    # every contingency of a 14-bus case, screened with the committed size
    # limit (dense LUs) and with it at 0 (SuperLU everywhere): same
    # statuses, penalties within rounding
    net, base = generated_base(14)
    results = {}
    for limit, kind in ((nlp.DENSE_LU_MAX, nlp._DenseLuPattern), (0, nlp._LuPattern)):
        monkeypatch.setattr(nlp, "DENSE_LU_MAX", limit)
        fresh = dataclasses.replace(net)
        results[kind] = [ev.fast_evaluate(fresh, k, base) for k in net.contingencies]
        patterns = [st.pattern for lay in fresh._layouts.values()
                    for key, st in lay.compiled.items() if key[0] == "square"]
        assert patterns and all(type(p) is kind for p in patterns)
    dense, sparse_ = results.values()
    assert [r.status for r in dense] == [r.status for r in sparse_]
    for d, s in zip(dense, sparse_):
        assert abs(d.penalty - s.penalty) <= 1e-9 * (1 + abs(s.penalty)), d.contingency_id


def test_full_evaluations_on_14_buses_are_optimal():
    net, base = generated_base(14)
    rounds = []
    for k in net.contingencies:
        res = ev.full_evaluate(net, k, base, time_limit=10, deterministic=True)
        assert res.method == "full"
        rounds += res.nlp
    assert [status for status, *_ in rounds] == [nlp.OPTIMAL] * len(rounds)
    assert sum(iterations for _, iterations, *_ in rounds) <= 400
    assert all(kkt_error <= 1e-8 for _, _, kkt_error, *_ in rounds)


def test_full_evaluation_on_60_buses_is_optimal():
    net, base = generated_base(60)
    res = ev.full_evaluate(net, net.contingency("KG4"), base, time_limit=10,
                           deterministic=True)
    assert res.nlp and all(status == nlp.OPTIMAL for status, *_ in res.nlp)
    assert res.penalty < 1e-6


@pytest.fixture(scope="module")
def case14(tmp_path_factory):
    """A 14-bus case file and two base points of it: the solved base and a
    point near it."""
    from scacopf.cli import generate_case
    path = tmp_path_factory.mktemp("case") / "case14.json"
    write_case(generate_case(14, 3), path)
    net = load_case(path)
    prob = scopf.build_base_problem(net)
    base = prob.meta.extract_base(nlp.solve_nlp(prob, tol=1e-8).x)
    state = base.state.copy()
    lay = CaseLayout.of(net)
    state.p_gen = np.clip(state.p_gen * 1.02, lay.p_min, lay.p_max)
    state.v = np.clip(state.v + 0.002, lay.v_min, lay.v_max)
    state.bcs = (lay.bcs_min + lay.bcs_max) / 2
    assert not np.array_equal(state.bcs, base.state.bcs)
    near = scopf.slacks_from_state(net, scopf.flows_from_state(net, state))
    return path, (base, near)


def assert_same_result(a, b):
    assert (a.penalty, a.status, a.compl) == (b.penalty, b.status, b.compl)
    for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
        np.testing.assert_array_equal(getattr(a.point.state, name),
                                      getattr(b.point.state, name))
    np.testing.assert_array_equal(a.point.slack_vector(), b.point.slack_vector())
    assert a.point.delta == b.point.delta


@pytest.mark.parametrize("kind", ["generator-outage", "line-outage"])
def test_cached_models_hold_no_base_point_data(case14, kind):
    # one contingency at two base points, in both orders: every result on a
    # network whose layout and square systems are cached is bit-equal to the
    # same evaluation on a fresh copy of the case
    path, points = case14
    k = next(k for k in load_case(path).contingencies if k.kind == kind)
    for order in (points, points[::-1]):
        warm = load_case(path)
        for point in order:
            got = ev.fast_evaluate(warm, k, point, deterministic=True)
            ref = ev.fast_evaluate(load_case(path), k, point, deterministic=True)
            assert_same_result(got, ref)
        assert warm._layouts[k.outaged].compiled


def test_layout_memo_is_per_network_and_outage(net5):
    from dataclasses import replace
    base = scopf.default_start(net5)
    for k in net5.contingencies:
        ev.fast_evaluate(net5, k, base)
    lays = [CaseLayout.of(net5, k.outaged) for k in net5.contingencies]
    assert all(CaseLayout.of(net5, k.outaged) is lay
               for k, lay in zip(net5.contingencies, lays))
    # outages share neither a layout nor a compiled square system
    assert len({id(lay) for lay in lays}) == len(lays)
    compiled = [id(st) for lay in lays for st in lay.compiled.values()]
    assert all(lay.compiled for lay in lays)
    assert len(set(compiled)) == len(compiled)
    # preprocess's new network compiles its own layouts
    dup = replace(net5, contingencies=net5.contingencies + (
        Contingency("CG2b", "generator-outage", "G2", ("G1",)),))
    old = CaseLayout.of(dup, "G2")
    new, report = preprocess(dup)
    assert report.removed_contingencies and new is not dup
    assert CaseLayout.of(new, "G2") is not old
    assert CaseLayout.of(dup, "G2") is old


def test_deterministic_budget_buys_whole_operations():
    # a budget of n operations' worth of seconds buys exactly n, and so does
    # the remainder it hands a nested evaluation
    per_op = ev._Budget.OPS_PER_SECOND
    for n in range(200_000):
        budget = ev._Budget(n / per_op, True)
        assert budget.ops_left == n
        assert ev._Budget(budget.remaining(), True).ops_left == n


def _update_from_violations_loop(net, k, state, base, raw, delta):
    """Per-generator reference for `_SquareSystem.updated_segments`."""
    tol = ev._BOUND_TOL
    new = state.copy()
    for gi, g in enumerate(net.generators):
        if g.id == k.outaged:
            continue
        if g.id in new.active:
            seg = new.active[g.id]
            p = raw.state.p_gen[gi]
            if seg == ev.MIDDLE:
                if p > g.p_max + tol:
                    new.active[g.id] = ev.UPPER
                elif p < g.p_min - tol:
                    new.active[g.id] = ev.LOWER
            else:
                pin = g.p_min if seg == ev.LOWER else g.p_max
                rho = base.state.p_gen[gi] + g.alpha * delta - pin
                if (seg == ev.LOWER and rho > tol) or \
                        (seg == ev.UPPER and rho < -tol):
                    new.active[g.id] = ev.MIDDLE
        if g.id in new.reactive:
            seg = new.reactive[g.id]
            q = raw.state.q_gen[gi]
            bus = net.bus_index(g.bus)
            rho_q = base.state.v[bus] - raw.state.v[bus]
            if seg == ev.MIDDLE:
                if q > g.q_max + tol:
                    new.reactive[g.id] = ev.UPPER
                elif q < g.q_min - tol:
                    new.reactive[g.id] = ev.LOWER
            elif (seg == ev.LOWER and rho_q > tol) or \
                    (seg == ev.UPPER and rho_q < -tol):
                new.reactive[g.id] = ev.MIDDLE
    return new


def test_updated_segments_equals_loop_reference(net5, rng):
    # the array masks apply the loop's four rules with its arithmetic:
    # outputs exactly at a bound +- tolerance, and response residuals of
    # either sign (for a lower pin at p_min = 0 with delta = 0, exactly +-
    # tolerance too), give the same segments
    tol, segs = ev._BOUND_TOL, (ev.LOWER, ev.MIDDLE, ev.UPPER)
    assert all(g.p_min == 0.0 and g.alpha == 1.0 for g in net5.generators)
    seen = set()
    for k in net5.contingencies:
        for _ in range(40):
            st = compl.init_default(net5, k)
            for table in (st.active, st.reactive):
                table.update({g: segs[rng.integers(3)] for g in table})
            st.delta = rng.uniform(-0.5, 0.5)
            base = scopf.default_start(net5)
            base.state.p_gen[:] = rng.choice([-tol, tol, 0.5], size=2)
            sys_ = ev._SquareSystem(net5, k, base, st)
            point = base.copy()
            for gi, g in enumerate(net5.generators):
                for name, lo, hi in (("p_gen", g.p_min, g.p_max),
                                     ("q_gen", g.q_min, g.q_max)):
                    getattr(point.state, name)[gi] = rng.choice(
                        [lo - tol, hi + tol, lo - 2 * tol, hi + 2 * tol,
                         rng.uniform(lo - 0.1, hi + 0.1)])
                bus = net5.bus_index(g.bus)
                point.state.v[bus] = base.state.v[bus] + rng.choice(
                    [-1e-3, -tol / 2, 0.0, tol / 2, 1e-3])
            z = sys_.start(point, rng.choice([0.0, rng.uniform(-0.5, 0.5)]))
            got = sys_.updated_segments(st, z)
            raw = sys_.raw_point(z)
            want = _update_from_violations_loop(net5, k, st, base, raw, raw.delta)
            assert (got.active, got.reactive) == (want.active, want.reactive)
            assert (got.delta, got.shortfall) == (st.delta, st.shortfall)
            seen.add(got != st)
    assert seen == {True, False}
