import numpy as np
import pytest

from scacopf import compl, nlp, scopf
from scacopf.case_model import PenaltyConfig, preprocess
from scacopf.nlp import solve_nlp
from conftest import five_bus_net, make_gen, two_bus_net


def test_generation_cost_single_segment():
    net = two_bus_net(generators=(make_gen("G1", "B1", cost_curve=((2.0, 10.0),)),))
    assert scopf.generation_cost(net, [1.5]) == pytest.approx(15.0)


def test_generation_cost_two_segments():
    net = two_bus_net(generators=(
        make_gen("G1", "B1", cost_curve=((1.0, 10.0), (2.0, 20.0))),))
    assert scopf.generation_cost(net, [1.5]) == pytest.approx(20.0)
    assert scopf.generation_cost(net, [0.0]) == pytest.approx(0.0)


def test_penalty_cost_examples():
    cfg = PenaltyConfig(breakpoints=(0.02,), slopes=(1e3, 1e6))
    assert scopf.penalty_cost(cfg, 0.0) == 0.0
    assert scopf.penalty_cost(cfg, 0.02) == pytest.approx(20.0)
    assert scopf.penalty_cost(cfg, 0.03) == pytest.approx(10020.0)


def test_penalty_cost_matches_bruteforce_minimization(rng):
    # oracle: penalty = min sum slope_j seg_j s.t. seg within widths, sum = s
    cfg = PenaltyConfig()
    widths = [cfg.breakpoints[0], cfg.breakpoints[1] - cfg.breakpoints[0], np.inf]
    for s in rng.uniform(0, 0.5, 50):
        rem, val = s, 0.0
        for w, slope in zip(widths, cfg.slopes):
            take = min(rem, w)
            val += slope * take
            rem -= take
        assert scopf.penalty_cost(cfg, s) == pytest.approx(val, rel=1e-12)


def test_total_score_examples(net5):
    base = scopf.default_start(net5)
    cost = scopf.generation_cost(net5, base.state.p_gen)
    pen0 = scopf.point_penalty(net5, base)
    pens = {"CG2": 10.0, "CL2": 30.0, "CT1": 20.0}
    score = scopf.total_score(net5, base, pens)
    assert score == pytest.approx(cost + pen0 + 20.0)
    with pytest.raises(KeyError):
        scopf.total_score(net5, base, {"CG2": 1.0})


def test_total_score_no_contingencies(net2):
    base = scopf.default_start(net2)
    assert scopf.total_score(net2, base, {}) == pytest.approx(
        scopf.generation_cost(net2, base.state.p_gen) + scopf.point_penalty(net2, base))


def test_base_problem_hand_count(net2):
    # 2 buses, 1 generator, 1 line: 12 state vars, 8 bus slacks, 1 rating
    # slack, 9 penalty auxiliaries, 1 cost auxiliary
    prob = scopf.build_base_problem(net2)
    assert prob.n == 12 + 8 + 1 + 9 + 1
    # 4 flow definitions + 4 balances + reference angle
    assert prob.n_eq == 9
    # 2 ratings + 9 slacks x 3 penalty lines + 2 cost lines
    assert prob.n_ineq == 2 + 27 + 2


def test_master_with_no_contingencies_equals_base(net5):
    base_prob = scopf.build_base_problem(net5)
    spec = scopf.MasterSpec(net=net5, included=(), compl={})
    master = scopf.build_master_problem(spec)
    assert master.n == base_prob.n
    assert master.n_eq == base_prob.n_eq
    assert master.n_ineq == base_prob.n_ineq


def test_contingency_problem_middle_rows(net5):
    k = net5.contingency("CL2")
    state = compl.init_default(net5, k)
    base = scopf.default_start(net5)
    prob = scopf.build_contingency_problem(net5, k, base, state)
    block, _ = prob.meta.ctg_blocks["CL2"]
    # coupling adds one row per responding gen (rho = 0) and one per
    # available gen (voltage match); both generators respond here
    assert prob.n_eq == block.n_eq + 2 + 2
    recs = [r for r in prob.meta.couplings if r.family == "active"]
    assert {r.gen_id for r in recs} == {"G1", "G2"}
    assert all(r.segment == "middle" for r in recs)


def test_point_roundtrip(net5, rng):
    point = scopf.default_start(net5)
    point.state.v += rng.uniform(-0.02, 0.02, 5)
    block = scopf._Block(net5, with_cost=True)
    x = block.inject(point)
    back = block.point_of(x)
    np.testing.assert_allclose(back.state.v, point.state.v)
    np.testing.assert_allclose(back.state.p_gen, point.state.p_gen)
    np.testing.assert_allclose(back.sig_s, point.sig_s)


# --- derivative checks on built problems -------------------------------------

def fd_jac(fun, x, h=1e-6):
    f0 = np.asarray(fun(x))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * h)
    return J


def _random_x(prob, rng, scale=0.1):
    x = prob.x0.copy()
    x += rng.uniform(-scale, scale, x.size)
    return x


def _check_derivatives(prob, rng):
    x = _random_x(prob, rng)
    for fun, jac in ((prob.eq, prob.jac_eq), (prob.ineq, prob.jac_ineq)):
        J = jac(x).toarray()
        Jfd = fd_jac(fun, x)
        np.testing.assert_allclose(J, Jfd, atol=2e-5)
    lam_eq = rng.normal(size=prob.n_eq)
    lam_ineq = rng.normal(size=prob.n_ineq)

    def grad_lag(z):
        return (prob.gradient(z) + prob.jac_eq(z).T @ lam_eq
                + prob.jac_ineq(z).T @ lam_ineq)

    Hl = prob.hess(x, 1.0, lam_eq, lam_ineq).toarray()
    H = np.tril(Hl) + np.tril(Hl, -1).T
    Hfd = fd_jac(grad_lag, x, h=1e-5)
    np.testing.assert_allclose(H, (Hfd + Hfd.T) / 2, atol=2e-4)


def test_base_problem_derivatives(net5, rng):
    _check_derivatives(scopf.build_base_problem(net5), rng)


def test_contingency_problem_derivatives(net5, rng):
    k = net5.contingency("CG2")
    state = compl.init_default(net5, k)
    state.active["G1"] = "upper"
    base = scopf.default_start(net5)
    prob = scopf.build_contingency_problem(net5, k, base, state)
    _check_derivatives(prob, rng)


def test_master_problem_derivatives(net5, rng):
    states = {
        "CG2": compl.init_default(net5, net5.contingency("CG2")),
        "CL2": compl.init_default(net5, net5.contingency("CL2")),
    }
    states["CG2"].reactive["G1"] = "upper"
    spec = scopf.MasterSpec(net=net5, included=("CG2", "CL2"), compl=states)
    _check_derivatives(scopf.build_master_problem(spec), rng)


def _spy_fills(prob):
    """Count calls of each block's compiled-model Jacobian fill."""
    calls = []
    blocks = [prob.meta.base_block] + [b for b, _ in prob.meta.ctg_blocks.values()]
    for block in blocks:
        fill = block.layout.jac_values
        block.layout.jac_values = lambda x, fill=fill: calls.append(1) or fill(x)
    return calls, len(blocks)


def test_one_jacobian_evaluation_per_point(net5, rng):
    states = {kid: compl.init_default(net5, net5.contingency(kid))
              for kid in ("CG2", "CL2")}
    for prob in (scopf.build_base_problem(net5),
                 scopf.build_master_problem(scopf.MasterSpec(
                     net=net5, included=("CG2", "CL2"), compl=states))):
        calls, n_blocks = _spy_fills(prob)
        x = _random_x(prob, rng)
        JE, JI = prob.jac_eq(x), prob.jac_ineq(x)
        assert len(calls) == n_blocks
        # a new point is evaluated again, a copy of the same point is not
        x2 = x + 1e-3
        prob.jac_ineq(x2)
        prob.jac_eq(x2)
        assert len(calls) == 2 * n_blocks
        prob.jac_eq(x2.copy())
        prob.jac_ineq(x2.copy())
        assert len(calls) == 2 * n_blocks
        # going back to the first point gives its matrices again
        np.testing.assert_array_equal(prob.jac_eq(x).toarray(), JE.toarray())
        np.testing.assert_array_equal(prob.jac_ineq(x).toarray(), JI.toarray())
        assert len(calls) == 3 * n_blocks
        # the memo keeps its own copy: changing x in place is a new point
        x[0] += 1e-3
        prob.jac_eq(x)
        assert len(calls) == 4 * n_blocks


# --- solving ------------------------------------------------------------------

def solve_base(net, **kw):
    prob = scopf.build_base_problem(net, **kw)
    sol = solve_nlp(prob, tol=1e-8)
    assert sol.status == nlp.OPTIMAL
    return prob, sol


def test_base_solve_two_bus(net2):
    prob, sol = solve_base(net2)
    point = prob.meta.extract_base(sol.x)
    direct = (scopf.generation_cost(net2, point.state.p_gen)
              + scopf.point_penalty(net2, point))
    # epigraph realization matches direct evaluation at the optimum
    assert sol.objective == pytest.approx(direct, abs=1e-8)
    assert np.max(np.abs(prob.eq(sol.x))) < 1e-7
    assert np.all(point.slack_vector() >= -1e-10)


def test_base_solve_five_bus(net5):
    prob, sol = solve_base(net5)
    point = prob.meta.extract_base(sol.x)
    direct = (scopf.generation_cost(net5, point.state.p_gen)
              + scopf.point_penalty(net5, point))
    assert sol.objective == pytest.approx(direct, abs=1e-8)
    # load is servable: no violation penalties at the optimum
    assert scopf.point_penalty(net5, point) < 1e-6


def _master_objective(net, included):
    states = {kid: compl.init_default(net, net.contingency(kid))
              for kid in included}
    spec = scopf.MasterSpec(net=net, included=tuple(included), compl=states)
    prob = scopf.build_master_problem(spec)
    sol = solve_nlp(prob, tol=1e-8, max_iter=400)
    assert sol.status == nlp.OPTIMAL, included
    return sol.objective


def test_master_subset_monotonicity(net5):
    from itertools import combinations
    ids = [k.id for k in net5.contingencies]
    obj = {}
    for r in range(len(ids) + 1):
        for sub in combinations(ids, r):
            obj[frozenset(sub)] = _master_objective(net5, sub)
    for s, vs in obj.items():
        for t, vt in obj.items():
            if s < t:
                assert vs <= vt + 1e-5


def test_contingency_solve_and_signals(net5):
    k = net5.contingency("CG2")
    base_prob, base_sol = solve_base(net5)
    base = base_prob.meta.extract_base(base_sol.x)
    state = compl.init_generator_outage(net5, k, base)
    prob = scopf.build_contingency_problem(net5, k, base, state)
    sol = solve_nlp(prob, tol=1e-8, max_iter=400)
    assert sol.status == nlp.OPTIMAL
    point = prob.meta.extract_ctg(sol.x, "CG2")
    assert sol.objective == pytest.approx(scopf.point_penalty(net5, point, "G2"),
                                          abs=1e-7)
    signals = prob.meta.segment_signals(sol)
    assert ("CG2", "G1", "active") in signals
    assert ("CG2", "G1", "reactive") in signals
    assert ("CG2", "G2", "reactive") not in signals  # outaged generator


def test_pinned_columns_carry_no_bounds(net5):
    # the base voltages at both generator buses sit at v_max, and CL3 leaves
    # G2 out of the response: the coupling rows pin v_ctg at both generator
    # buses (MIDDLE reactive segments) and G2's p_ctg to base values within
    # their bounds, so those columns carry no bounds, in the standalone
    # problem and in the master, where the base columns keep theirs (a
    # bound and an equality pinning one column violate LICQ wherever the
    # bound is active); the contingency NLP reaches optimal
    from dataclasses import replace
    from scacopf.case_model import Contingency

    net = replace(net5, contingencies=net5.contingencies
                  + (Contingency("CL3", "line-outage", "L3", ("G1",)),))
    base_prob, base_sol = solve_base(net)
    base = base_prob.meta.extract_base(base_sol.x)
    gen_buses = [net.bus_index(g.bus) for g in net.generators]
    base.state.v[gen_buses] = [net.buses[i].v_max for i in gen_buses]
    k = net.contingency("CL3")
    state = compl.init_default(net, k)
    assert set(state.reactive.values()) == {scopf.MIDDLE}
    prob = scopf.build_contingency_problem(net, k, base, state)
    master = scopf.build_master_problem(scopf.MasterSpec(
        net=net, included=("CL3",), compl={"CL3": state}, base_point=base))
    for p in (prob, master):
        block, off = p.meta.ctg_blocks["CL3"]
        lay = block.layout
        pinned = [off + lay.v0 + i for i in gen_buses] + [
            off + lay.p0 + lay.gen_col[gi] for gi, g in lay.avail_gens
            if g.id not in k.responding_gens]
        assert len(pinned) == 3
        assert np.all(p.lb[pinned] == -np.inf) and np.all(p.ub[pinned] == np.inf)
    base_lay = master.meta.base_block.layout
    base_v = master.meta.base_off + base_lay.v0 + np.array(gen_buses)
    assert np.all(np.isfinite(master.lb[base_v]) & np.isfinite(master.ub[base_v]))
    sol = solve_nlp(prob, tol=1e-8)
    assert sol.status == nlp.OPTIMAL


def _seed_ctg_point_loop(net, k, base_point, compl_state):
    """Per-generator reference for `scopf._seed_ctg_point`."""
    state = base_point.state.copy()
    delta = compl_state.delta if compl_state is not None else 0.0
    for gi, g in enumerate(net.generators):
        if g.id == k.outaged:
            state.p_gen[gi] = 0.0
            state.q_gen[gi] = 0.0
        elif g.id in set(k.responding_gens):
            state.p_gen[gi] = min(max(state.p_gen[gi] + g.alpha * delta,
                                      g.p_min), g.p_max)
    state = scopf.flows_from_state(net, state, k.outaged)
    return scopf.slacks_from_state(net, state, k.outaged, delta=delta)


def test_seed_ctg_point_equals_loop_reference(net5, rng):
    # the clip over layout arrays does the loop's min(max(.)) arithmetic,
    # with and without a segment state
    base = scopf.default_start(net5)
    for k in net5.contingencies:
        for trial in range(10):
            raw = base.copy()
            for name in ("v", "theta", "bcs", "p_gen", "q_gen"):
                arr = getattr(raw.state, name)
                arr += rng.uniform(-1.0, 1.0, size=arr.shape)
            st = None
            if trial:
                st = compl.init_default(net5, k)
                st.delta = rng.uniform(-2.0, 2.0)
            got = scopf._seed_ctg_point(net5, k, raw, st)
            want = _seed_ctg_point_loop(net5, k, raw, st)
            for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
                np.testing.assert_array_equal(getattr(got.state, name),
                                              getattr(want.state, name))
            for name in ("sig_p_plus", "sig_p_minus", "sig_q_plus",
                         "sig_q_minus", "sig_s"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
            assert got.delta == want.delta


def _pwl_reference(breaks_and_slopes, last_slope):
    """Segment-list reference for `scopf._Curve`: (value function, supporting
    lines with consecutive repeats dropped)."""
    segs, start, val = [], 0.0, 0.0
    for brk, slope in breaks_and_slopes:
        segs.append((start, slope, val))
        val += slope * (brk - start)
        start = brk
    starts, slopes, vals = (np.array([s[i] for s in segs] + [end])
                            for i, end in enumerate((start, last_slope, val)))

    def value(x):
        i = np.maximum(np.searchsorted(starts, x, side="right") - 1, 0)
        return vals[i] + slopes[i] * (x - starts[i])
    lines = [(sl, v - sl * st) for st, sl, v in segs]
    lines.append((last_slope, val - last_slope * start))
    dedup = [ln for i, ln in enumerate(lines) if i == 0 or ln != lines[i - 1]]
    return value, dedup


def test_curve_equals_segment_reference(rng):
    # cost curves (a slope per break) and penalty curves (one more slope
    # than breaks) give the reference's values and supporting lines
    for trial in range(40):
        n = int(rng.integers(1, 5))
        breaks = tuple(np.cumsum(rng.uniform(0.01, 1.0, n)))
        slopes = tuple(np.cumsum(rng.uniform(0.0, 10.0, n + trial % 2)))
        curve = scopf._Curve(breaks, slopes)
        value, lines = _pwl_reference(zip(breaks, slopes), slopes[-1])
        x = np.concatenate((rng.uniform(-1.0, breaks[-1] + 1.0, 50), breaks, [0.0]))
        np.testing.assert_array_equal(curve.value(x), value(x))
        assert list(zip(curve.line_slopes, curve.line_icpts)) == lines
