import functools

import numpy as np
import pytest
from scipy import sparse

from scacopf import compl, nlp, scopf
from scacopf.acpf import CaseLayout
from scacopf.case_model import Contingency, PenaltyConfig, preprocess
from scacopf.nlp import solve_nlp
from conftest import five_bus_net, make_bus, make_gen, make_line, two_bus_net


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


@pytest.mark.parametrize("outaged", [None, "G2", "L2"],
                         ids=["base", "generator-outage", "line-outage"])
def test_reprice_equals_the_composition_it_replaces(net5, outaged):
    # flows recomputed from the voltages, then the minimal slacks and their
    # penalty, bit for bit; the state keeps its own entries, the outaged
    # generator's output among them
    state = scopf.default_start(net5).state
    rng = np.random.default_rng(4)
    state.v += rng.uniform(-0.05, 0.05, len(state.v))
    state.theta += rng.uniform(-0.1, 0.1, len(state.theta))
    state.p_gen += 0.3
    state.flows[:] = rng.normal(size=state.flows.shape)
    lay = CaseLayout.of(net5, outaged)
    flowed = state.copy()
    flowed.flows[:] = 0.0
    flowed.flows[lay.svc] = lay.flow_values(lay.pack(state))
    want = scopf.slacks_from_state(net5, flowed, outaged)
    point, pen = scopf.reprice(net5, state, outaged)
    assert pen == scopf.point_penalty(net5, want, outaged) > 0.0
    for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
        np.testing.assert_array_equal(getattr(point.state, name),
                                      getattr(want.state, name))
    np.testing.assert_array_equal(point.slacks, want.slacks)


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
    block, off = prob.meta.ctg_blocks["CL2"]
    # coupling adds one row per responding gen (rho = 0) and one per
    # available gen (voltage match); both generators respond here
    assert prob.n_eq == block.n_eq + 2 + 2
    (ids, middle, cols, lb, ub), _ = prob.meta.families["CL2"]
    assert ids == ["G1", "G2"] and middle.all()
    # a middle member's evidence column is its p, which keeps its bounds
    lay = block.layout
    np.testing.assert_array_equal(cols, off + lay.p0 + np.arange(2))
    np.testing.assert_array_equal(prob.lb[cols], lb)
    np.testing.assert_array_equal(prob.ub[cols], ub)
    np.testing.assert_array_equal(lb, lay.p_min)


def test_point_roundtrip(net5, rng):
    point = scopf.default_start(net5)
    point.state.v += rng.uniform(-0.02, 0.02, 5)
    block = scopf._Block(net5, with_cost=True)
    x = block.inject(point)
    back = block.point_of(x)
    np.testing.assert_allclose(back.state.v, point.state.v)
    np.testing.assert_allclose(back.state.p_gen, point.state.p_gen)
    np.testing.assert_allclose(back.slacks, point.slacks)


def test_point_roundtrip_with_an_outage_and_a_skipped_rating(rng):
    # LA and LB are parallel, so with L3 out the block skips LB's rating
    # row: a block point reads 0 for both, and round trips byte for byte.
    # L3 sits between them, so each rating slack's position is shifted;
    # every in-service line is over its tiny rating
    line = functools.partial(make_line, r_max_ctg=0.01)
    net, report = preprocess(two_bus_net(
        buses=(make_bus("B1"), make_bus("B2", p_load=0.8, q_load=0.2),
               make_bus("B3", p_load=0.3)),
        lines=(line("LA", "B1", "B2"), line("L3", "B2", "B3"),
               line("LB", "B1", "B2"), line("L4", "B1", "B3")),
        contingencies=(Contingency("KL3", "line-outage", "L3", ("G1",)),)))
    assert report.skip_rating_ids("L3") == {"LB"}
    block = scopf._Block(net, outaged="L3", skip_rating={"LB"})
    state = scopf.default_start(net).state
    state.v += rng.uniform(-0.05, 0.05, 3)
    nb4 = 4 * 3
    slacks = rng.uniform(0.1, 1.0, nb4 + 4)
    back = block.point_of(block.inject(scopf.OperatingPoint(state, slacks)))
    want = slacks.copy()
    want[nb4 + 1:nb4 + 3] = 0.0  # L3, then LB
    assert back.slacks.tobytes() == want.tobytes()
    assert block.point_of(block.inject(back)).slacks.tobytes() == want.tobytes()
    # pricing gathers the same entries that reprice priced, bit for bit;
    # the rating slacks sit in network order
    repriced, pen = scopf.reprice(net, state, "L3")
    assert np.flatnonzero(repriced.slacks[nb4:]).tolist() == [0, 2, 3]
    assert scopf.point_penalty(net, repriced, "L3") == pen > 0.0


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


def _matrix(vals, pattern, shape):
    """The matrix of raw values on a (rows, cols) pattern, repeats summed."""
    return sparse.coo_matrix((vals, pattern), shape=shape).toarray()


def _check_derivatives(prob, rng):
    x = _random_x(prob, rng)
    jacs = ((prob.eq, prob.jac_eq, prob.jac_eq_pattern, prob.n_eq),
            (prob.ineq, prob.jac_ineq, prob.jac_ineq_pattern, prob.n_ineq))
    for fun, jac, pattern, rows in jacs:
        J = _matrix(jac(x), pattern, (rows, prob.n))
        Jfd = fd_jac(fun, x)
        np.testing.assert_allclose(J, Jfd, atol=2e-5)
    lam_eq = rng.normal(size=prob.n_eq)
    lam_ineq = rng.normal(size=prob.n_ineq)

    def grad_lag(z):
        return (prob.gradient(z)
                + _matrix(prob.jac_eq(z), prob.jac_eq_pattern, (prob.n_eq, prob.n)).T @ lam_eq
                + _matrix(prob.jac_ineq(z), prob.jac_ineq_pattern,
                          (prob.n_ineq, prob.n)).T @ lam_ineq)

    Hl = _matrix(prob.hess(x, 1.0, lam_eq, lam_ineq), prob.hess_pattern, (prob.n, prob.n))
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
        # going back to the first point gives its values again
        np.testing.assert_array_equal(prob.jac_eq(x), JE)
        np.testing.assert_array_equal(prob.jac_ineq(x), JI)
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
    point, _ = prob.meta.extract_ctg(sol.x, "CG2")
    assert sol.objective == pytest.approx(scopf.point_penalty(net5, point, "G2"),
                                          abs=1e-7)
    evidence = prob.meta.segment_evidence(sol, "CG2")
    (a_ids, _, a_lo, a_up), (q_ids, _, q_lo, q_up) = evidence
    assert a_ids == ["G1"] and q_ids == ["G1"]  # G2 is outaged
    for gap, lam in (a_lo, a_up, q_lo, q_up):
        assert gap.shape == lam.shape == (1,) and lam[0] >= 0.0
    new, _ = compl.update_segments(state, evidence)
    assert set(new.active) == {"G1"} and set(new.reactive) == {"G1"}


def test_pinned_members_in_both_families(net5):
    # CL2 pins one member of each family at its lower and one at its upper
    # bound; CT1 pins one and keeps one in the middle per family.  In the
    # standalone problems and in the master: a pinned p or q has no bounds,
    # its evidence column is its rho slack (at most 0 for LOWER, at least 0
    # for UPPER), in the member's rho row; a middle member's evidence column
    # is its p or q, and a middle p keeps its bounds.  The problems are only
    # built: CL2's active pins ask for delta <= -p1 and delta >= 1.2 - p2 of
    # the base outputs, which the base dispatch (p1 > p2) does not meet
    from scacopf.compl import ComplementarityState
    LOWER, MIDDLE, UPPER = scopf.LOWER, scopf.MIDDLE, scopf.UPPER
    base_prob, base_sol = solve_base(net5)
    base = base_prob.meta.extract_base(base_sol.x)
    states = {
        "CL2": ComplementarityState(active={"G1": LOWER, "G2": UPPER},
                                    reactive={"G1": UPPER, "G2": LOWER}),
        "CT1": ComplementarityState(active={"G1": MIDDLE, "G2": UPPER},
                                    reactive={"G1": LOWER, "G2": MIDDLE}),
    }
    probs = [(scopf.build_contingency_problem(net5, net5.contingency(c), base, st), [c])
             for c, st in states.items()]
    probs.append((scopf.build_master_problem(scopf.MasterSpec(
        net=net5, included=tuple(states), compl=states, base_point=base)), list(states)))
    slack_bounds = {LOWER: (-np.inf, 0.0), UPPER: (0.0, np.inf)}
    for prob, kids in probs:
        jr, jc = prob.jac_eq_pattern
        blocks_end = max(off + b.nvar for b, off in prob.meta.ctg_blocks.values())
        for kid in kids:
            block, off = prob.meta.ctg_blocks[kid]
            lay = block.layout
            dcol = prob.meta.delta_cols[kid]
            fams = zip(prob.meta.families[kid], (states[kid].active, states[kid].reactive),
                       (lay.p0, lay.q0), (lay.p_min, lay.q_min), (lay.p_max, lay.q_max))
            for (ids, middle, cols, lb, ub), segs, col0, lo, hi in fams:
                assert ids == ["G1", "G2"]
                np.testing.assert_array_equal(middle, [segs[g] == MIDDLE for g in ids])
                np.testing.assert_array_equal(prob.lb[cols], lb)
                np.testing.assert_array_equal(prob.ub[cols], ub)
                for g, col in zip(ids, cols):
                    gi = net5.gen_index(g)
                    own = off + col0 + lay.gen_col[gi]
                    if segs[g] == MIDDLE:
                        assert col == own
                        assert (prob.lb[own], prob.ub[own]) == (lo[gi], hi[gi])
                        continue
                    assert (prob.lb[own], prob.ub[own]) == (-np.inf, np.inf)
                    assert col >= blocks_end and col != dcol
                    assert (prob.lb[col], prob.ub[col]) == slack_bounds[segs[g]]
                    # the slack's one row is rho's: p and delta, or v at the bus
                    (row,) = jr[jc == col]
                    partners = ({own, dcol} if col0 == lay.p0 else
                                {off + lay.v0 + net5.bus_index(net5.generators[gi].bus)})
                    assert partners <= set(jc[jr == row].tolist())


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
