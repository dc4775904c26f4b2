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
        point, _ = prob.meta.extract_ctg(sol.x, k.id)
        repriced = scopf.slacks_from_state(
            net, scopf.flows_from_state(net, point.state, k.outaged), k.outaged)
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
            p_plus, p_minus, q_plus, q_minus = \
                res.point.slacks[:4 * len(net.buses)].reshape(4, -1)
            np.testing.assert_allclose(bal.p_resid + p_plus - p_minus, 0.0, atol=1e-8)
            np.testing.assert_allclose(bal.q_resid + q_plus - q_minus, 0.0, atol=1e-8)
            assert res.penalty >= 0.0


def test_fast_infinite_cutoff_runs_loop(solved5):
    net, base = solved5
    k = net.contingency("CL2")
    with_inf = ev.fast_evaluate(net, k, base, cutoff=np.inf)
    with_zero = ev.fast_evaluate(net, k, base, cutoff=0.0)
    assert with_inf.penalty == pytest.approx(with_zero.penalty, abs=1e-12)


def keep_moving(monkeypatch):
    """Make every segment update return segments that differ from the
    round's own, so that no round stops the fast loop for keeping them: the
    update's result gets a count of the updates under a key that is no
    generator id, which the segment plans ignore, so each round still
    solves the system that the update picked."""
    real_update = ev._SquareSystem.updated_segments

    def moving_update(self, state, w):
        new = real_update(self, state, w)
        new.active["moved"] = state.active.get("moved", 0) + 1
        return new

    monkeypatch.setattr(ev._SquareSystem, "updated_segments", moving_update)


def test_fast_loop_stops_when_the_penalty_falls_by_rounding_only(solved5, monkeypatch):
    # a round that lowers a penalty of 2e6 by 1e-9, far below its rounding
    # error, ends the loop however small the step in absolute terms
    net, base = solved5
    penalties = iter([5e6, 2e6] + [2e6 - 1e-9 * i for i in range(1, 20)])
    monkeypatch.setattr(ev, "_slack_penalty", lambda *args: next(penalties))
    keep_moving(monkeypatch)
    rounds = []
    real_solve = ev.solve_square

    def counting_solve(*args, **kwargs):
        rounds.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(ev, "solve_square", counting_solve)
    res = ev.fast_evaluate(net, net.contingency("CL2"), base)
    assert len(rounds) == 2
    assert res.penalty == 2e6 - 1e-9


@pytest.fixture(scope="module")
def base30():
    return generated_base(30)


def test_fast_loop_stops_when_a_round_keeps_its_segments(base30, monkeypatch):
    # a round whose segment update keeps the segments it solved ends the
    # loop, as the next round would solve that system again: at cutoff 0
    # on 30 buses, KG1-KG9 make one square solve where a loop without the
    # rule makes two, KG10 two where it makes three, and every result is
    # the same to the bit
    net, base = base30
    real_solve = ev.solve_square
    calls = []

    def counting_solve(*args, **kwargs):
        calls[-1] += 1
        return real_solve(*args, **kwargs)

    def screen():
        out = {}
        for k in net.contingencies:
            calls.append(0)
            res = ev.fast_evaluate(net, k, base, cutoff=0.0)
            out[k.id] = (calls[-1], res)
        return out

    monkeypatch.setattr(ev, "solve_square", counting_solve)
    stopped = screen()
    calls.clear()
    keep_moving(monkeypatch)
    unstopped = screen()
    for kid in [f"KG{i}" for i in range(1, 10)]:
        assert (stopped[kid][0], unstopped[kid][0]) == (1, 2), kid
    assert (stopped["KG10"][0], unstopped["KG10"][0]) == (2, 3)
    for kid, (n, res) in stopped.items():
        assert n == unstopped[kid][0] - 1, kid
        other = unstopped[kid][1]
        assert res.penalty == other.penalty, kid
        assert res.status == other.status == "ok"
        for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
            assert getattr(res.point.state, name).tobytes() == \
                getattr(other.point.state, name).tobytes(), (kid, name)
        assert res.point.slacks.tobytes() == other.point.slacks.tobytes()
        assert res.compl.delta == other.compl.delta


@pytest.mark.parametrize("n_bus", [14, 30])
def test_fast_results_are_priced_exactly(n_bus, base30):
    # every fast result's penalty is its point's, and its point's slacks are
    # those that its state's recomputed flows need, bit for bit
    net, base = base30 if n_bus == 30 else generated_base(n_bus)
    for cutoff in (0.0, ev.default_cutoff(net), np.inf):
        for k in net.contingencies:
            res = ev.fast_evaluate(net, k, base, cutoff=cutoff)
            assert scopf.point_penalty(net, res.point, k.outaged) == res.penalty
            want = scopf.slacks_from_state(
                net, scopf.flows_from_state(net, res.point.state, k.outaged), k.outaged)
            assert res.point.slacks.tobytes() == want.slacks.tobytes(), (k.id, cutoff)


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
    fb = compl.project_response(st, net, k, base,
                                CaseLayout.of(net, k.outaged).pack(base.state))
    assert res.penalty == pytest.approx(
        scopf.point_penalty(net, fb, k.outaged), abs=1e-12)


def test_fast_loop_stops_after_a_failed_square_solve(solved5, monkeypatch):
    # a failed solve at a finite point is priced and kept if best, but its
    # point starts no further round
    net, base = solved5
    k = net.contingency("CL2")
    calls = []
    real_solve = ev.solve_square

    def failing_solve(*args, **kwargs):
        calls.append(1)
        res = real_solve(*args, **kwargs)
        return nlp.SquareResult(res.x, nlp.FAILED, res.iterations, res.residual)

    monkeypatch.setattr(ev, "solve_square", failing_solve)
    res = ev.fast_evaluate(net, k, base)
    assert len(calls) == 1
    assert res.status == "ok"
    assert np.isfinite(res.penalty)
    assert res.penalty <= ev.fallback_result(net, k, base).penalty


def test_contingency_nlp_starts_from_the_projected_base(solved5, monkeypatch):
    # a pinned segment puts its output on its bound in the NLP's start even
    # where the response rule's clip does not bind there
    net, base = solved5
    k = net.contingency("CL2")
    state = compl.init_default(net, k)
    state.delta = 0.01
    state.active["G1"] = ev.UPPER
    state.reactive["G2"] = ev.LOWER
    g1, g2 = net.generators
    assert base.state.p_gen[0] + g1.alpha * state.delta < g1.p_max
    assert base.state.q_gen[1] > g2.q_min
    prob = scopf.build_contingency_problem(net, k, base, state)
    block, off = prob.meta.ctg_blocks[k.id]
    lay = block.layout
    assert prob.x0[off + lay.p0 + lay.gen_col[0]] == g1.p_max
    assert prob.x0[off + lay.q0 + lay.gen_col[1]] == g2.q_min

    # without a start, a full evaluation's first NLP starts from the
    # fallback point, bit for bit
    built = []
    real_build = ev.build_contingency_problem

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ev, "build_contingency_problem", recording_build)
    for k in net.contingencies:
        built.clear()
        ev.full_evaluate(net, k, base)
        block, off = built[0].meta.ctg_blocks[k.id]
        fb = ev.fallback_result(net, k, base).point
        assert built[0].x0[off:off + block.nvar].tobytes() == \
            block.inject(fb).tobytes()


def test_fallback_result_is_the_fast_engine_with_no_budget(solved5):
    # with no operation to spend, the fast engine returns its starting
    # candidate, the fallback
    net, base = solved5
    for k in net.contingencies:
        fb = ev.fallback_result(net, k, base)
        fast = ev.fast_evaluate(net, k, base, time_limit=0, deterministic=True)
        assert (fb.method, fb.status) == ("fast", "fallback")
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
    res = ev.fast_evaluate(net, net.contingency("CL2"), base)
    assert res.contingency_id == "CL2"
    assert res.base_tag == ""  # the caller tags the result


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
        sys_ = square_system(net, k, base, state)
        z = start(sys_, base, 0.05) + rng.uniform(-0.05, 0.05, sys_.n)
        lu_pattern, vals = sys_.jacobian(z)
        # a dense pattern, whose matrix keeps the natural order
        J = lu_pattern.matrix(vals)
        J_fd = fd_jacobian(sys_.residual, z)
        assert J.shape == (sys_.n, sys_.n)
        scale = np.maximum(np.abs(J_fd), 1.0)
        assert np.max(np.abs(J - J_fd) / scale) < 1e-6, mix


def reference_square(net, k, base, state, z):
    """(rows, cols, F, J): k's square system at base point `base`, segment
    state `state` and unknowns z, assembled the plain way from the acpf
    kernel at the layout vector x of the base point with the reference
    angle at 0, the pins, the middle responders on the response rule,
    middle q at 0, and the unknowns: v at the non-PV buses and theta at the
    others than the reference (`cols`, in bus order).  F is x's balance at
    the kept rows (P at every bus, then Q at the non-PV buses); J is the Jacobian's raw (row, col,
    value) entries: each expression-Jacobian entry on an unknown column in a
    kept row, in `jac_head` order, a flow row's negated into its end bus's
    balance row, then alpha on delta's column in each middle responder's P
    row."""
    lay = CaseLayout.of(net, k.outaged)
    nb, m, ref = lay.nb, lay.m, net.bus_index(net.reference_bus)
    x = lay.pack(base.state)
    x[lay.th0 + ref] = 0.0
    pv, mid_bus, mid_alpha = set(), [], []
    for gi, g in enumerate(net.generators):
        if g.id == k.outaged:
            continue
        col, seg = lay.gen_col[gi], state.active.get(g.id)
        if seg == ev.MIDDLE:
            x[lay.p0 + col] = base.state.p_gen[gi] + g.alpha * z[-1]
            mid_bus.append(net.bus_index(g.bus))
            mid_alpha.append(g.alpha)
        elif seg is not None:
            x[lay.p0 + col] = g.p_min if seg == ev.LOWER else g.p_max
        seg = state.reactive.get(g.id, ev.MIDDLE)
        x[lay.q0 + col] = (0.0 if seg == ev.MIDDLE else
                           g.q_min if seg == ev.LOWER else g.q_max)
        if seg == ev.MIDDLE:
            pv.add(net.bus_index(g.bus))
    pq = [i for i in range(nb) if i not in pv]
    cols = np.array([lay.v0 + i for i in pq] + [lay.th0 + i for i in range(nb) if i != ref])
    rows = np.array(list(range(nb)) + [nb + i for i in pq])
    x[cols] = z[:-1]
    F = lay.balance(x, lay.flow_values(x))[rows]

    col_pos = np.full(lay.nvar, -1)
    col_pos[cols] = np.arange(len(cols))
    row_pos = np.full(2 * nb + 1, -1)
    row_pos[rows] = np.arange(len(rows))
    jr, jc = lay.jac_pattern()
    r = row_pos[np.concatenate((lay.bal_row[lay.fl0 - lay.p0:], np.arange(2 * nb),
                                np.full(lay.nrows - 4 * m - 2 * nb, 2 * nb)))[jr]]
    sel = np.flatnonzero((r >= 0) & (col_pos[jc] >= 0))
    sign = np.where(jr[sel] < 4 * m, -1.0, 1.0)
    J = (np.concatenate((r[sel], np.array(mid_bus, dtype=int))),
         np.concatenate((col_pos[jc[sel]], np.full(len(mid_bus), len(cols)))),
         np.concatenate((lay.jac_head(x, lay.branch_terms(x))[sel] * sign, mid_alpha)))
    return rows, cols, F, J


def dense_of(pattern, vals):
    """The matrix of raw values vals on an LU pattern, as a dense array in
    the pattern's own column order."""
    from scipy import sparse
    A = pattern.matrix(vals)
    if isinstance(pattern, nlp._DenseLuPattern):
        return A
    return sparse.csc_matrix((A.data, A.indices, A.indptr), shape=(pattern.n,) * 2).toarray()


@pytest.mark.parametrize("ctg_id", ["CL2", "CT1", "CG2"])
def test_square_system_evaluates_the_kernel_entries_it_selects(ctg_id, monkeypatch):
    # for every mix of segments (pins on either bound, PV buses or none),
    # with dense and sparse LU patterns: the Jacobian's values, the matrix
    # they sum to (repeated entries in the same order) and the residual are
    # the plain assembly's, bit for bit; a sparse pattern's matrix keeps
    # them once its first LU has moved its columns.  The base point's
    # angles (the reference's too), shunts and outputs are off their
    # defaults, so that each parameter the system sets is seen
    from conftest import five_bus_net
    for limit, kind in ((nlp.DENSE_LU_MAX, nlp._DenseLuPattern), (0, nlp._LuPattern)):
        monkeypatch.setattr(nlp, "DENSE_LU_MAX", limit)
        net = five_bus_net()
        k = net.contingency(ctg_id)
        base = scopf.default_start(net)
        rng = np.random.default_rng(5)
        for a in (base.state.theta, base.state.bcs, base.state.p_gen, base.state.q_gen):
            a += rng.uniform(-0.1, 0.1, len(a))
        assert_square_system_is_its_reference(net, k, base, kind)


def assert_square_system_is_its_reference(net, k, base, kind):
    """k's square systems at every mix of segments, on `kind` of LU
    pattern, against `reference_square` at a random point each."""
    from itertools import product
    rng = np.random.default_rng(3)
    segs = (scopf.MIDDLE, scopf.LOWER, scopf.UPPER)
    state = compl.init_default(net, k)
    active, reactive = sorted(state.active), sorted(state.reactive)
    with_pv = set()  # the segments of mixes with a PV bus
    for mix in product(segs, repeat=len(active) + len(reactive)):
        state.active.update(zip(active, mix))
        state.reactive.update(zip(reactive, mix[len(active):]))
        sys_ = square_system(net, k, base, state)
        z = start(sys_, base, 0.05) + rng.uniform(-0.05, 0.05, sys_.n)
        rows, cols, F, (jr, jc, jv) = reference_square(net, k, base, state, z)
        assert sys_.n == len(rows) == len(cols) + 1
        assert sys_.residual(z).tobytes() == F.tobytes()
        pattern, vals = sys_.jacobian(z)
        assert type(pattern) is kind
        assert vals.tobytes() == jv.tobytes()
        M = np.zeros((sys_.n, sys_.n))
        np.add.at(M, (jr, jc), jv)
        pos = pattern.lu(vals)[2]
        if pos is None:
            pos = np.arange(sys_.n)
        assert dense_of(pattern, vals)[:, pos].tobytes() == M.tobytes()
        if len(rows) < 2 * sys_.lay.nb:
            with_pv.update(mix)
    assert with_pv == set(segs)


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
    # expanded point leaves them NaN, and its projection, which recomputes
    # them, is the projection of the same point with its flows defined
    from conftest import five_bus_net
    net = five_bus_net()
    k = net.contingency(ctg_id)
    base = scopf.default_start(net)
    state = compl.init_default(net, k)
    sys_ = square_system(net, k, base, state)
    # unknowns: v at non-PV buses, theta at non-reference buses, and delta;
    # every available generator is middle, so its bus is PV
    pv = {g.bus for g in net.generators if g.id in state.reactive}
    assert sys_.n == 2 * len(net.buses) - len(pv)
    z = start(sys_, base, 0.05) + np.random.default_rng(5).uniform(-0.05, 0.05, sys_.n)
    lay = sys_.lay
    raw = sys_.expand(z)
    assert np.isnan(raw[lay.fl0:-1]).all()
    defined = raw[:-1].copy()
    defined[lay.fl0:] = lay.flow_values(defined).ravel()
    assert np.isfinite(defined).all()
    got = compl.project_response(state, net, k, base, raw)
    want = compl.project_response(state, net, k, base, defined)
    for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
        assert getattr(got.state, name).tobytes() == getattr(want.state, name).tobytes(), name
    assert got.slacks.tobytes() == want.slacks.tobytes()


def assert_solves_the_full_system(net, k, base, state, w):
    """The full point w of a converged square solve (`_SquareSystem.expand`)
    solves the unreduced system: P and Q balance at every bus, PV buses'
    included with the recovered q, the reference angle at 0, middle
    responders on the response rule, every pin held, and every PV bus at
    its base voltage."""
    lay = CaseLayout.of(net, k.outaged)
    x = w[:lay.nvar].copy()
    x[lay.fl0:] = lay.flow_values(x).ravel()
    assert np.max(np.abs(lay.balance(x))) <= 1e-9
    state_x = lay.unpack(x)
    assert state_x.theta[net.bus_index(net.reference_bus)] == 0.0
    delta = w[-1]
    for gi, g in enumerate(net.generators):
        if g.id == k.outaged:
            continue
        p, q, bus = state_x.p_gen[gi], state_x.q_gen[gi], net.bus_index(g.bus)
        seg = state.active.get(g.id)
        if seg == ev.MIDDLE:
            assert p == base.state.p_gen[gi] + g.alpha * delta
        elif seg is None:
            assert p == base.state.p_gen[gi]
        else:
            assert p == (g.p_min if seg == ev.LOWER else g.p_max)
        seg = state.reactive.get(g.id, ev.MIDDLE)
        if seg == ev.MIDDLE:
            assert state_x.v[bus] == base.state.v[bus]
        else:
            assert q == (g.q_min if seg == ev.LOWER else g.q_max)


@pytest.mark.parametrize("ctg_id", ["CL2", "CT1", "CG2"])
def test_converged_square_solves_solve_the_full_system(ctg_id):
    # every mix of segments, as in the finite-difference test, solved from
    # the base point; those that converge are checked
    from itertools import product
    from conftest import five_bus_net
    net = five_bus_net()
    k = net.contingency(ctg_id)
    base = scopf.default_start(net)
    segs = (scopf.MIDDLE, scopf.LOWER, scopf.UPPER)
    state = compl.init_default(net, k)
    active, reactive = sorted(state.active), sorted(state.reactive)
    solved = 0
    for mix in product(segs, repeat=len(active) + len(reactive)):
        state.active.update(zip(active, mix))
        state.reactive.update(zip(reactive, mix[len(active):]))
        sys_ = square_system(net, k, base, state)
        res = nlp.solve_square(sys_.residual, sys_.jacobian,
                               start(sys_, base, 0.0), tol=1e-10)
        if res.status == nlp.SOLVED:
            solved += 1
            assert_solves_the_full_system(net, k, base, state, sys_.expand(res.x))
    assert solved >= 3


def net5_with_shared_bus():
    """net5 with a second generator, G3, at G2's bus B3, and CL2 (line L2
    out) with three responders."""
    from conftest import five_bus_net, make_gen
    net = five_bus_net()
    return dataclasses.replace(
        net, generators=net.generators + (make_gen("G3", "B3"),),
        contingencies=(Contingency("CL2", "line-outage", "L2", ("G1", "G2", "G3")),))


def test_generators_sharing_a_bus_share_its_reactive_injection(monkeypatch):
    # two middle generators at one bus make one PV bus, not two rows that
    # pin the same voltage: every Newton step is regular (a singular step
    # would end its solve `failed`, and every solve is `solved`), and the
    # two (of equal reactive range) share the bus's q
    net = net5_with_shared_bus()
    prob = scopf.build_base_problem(net)
    sol = nlp.solve_nlp(prob, tol=1e-8)
    assert sol.status == nlp.OPTIMAL
    base = prob.meta.extract_base(sol.x)
    solves = []
    real_solve = ev.solve_square

    def spy_solve(fun, jac, x0, **kw):
        res = real_solve(fun, jac, x0, **kw)
        solves.append((fun.__self__, res))
        return res

    monkeypatch.setattr(ev, "solve_square", spy_solve)
    res = ev.fast_evaluate(net, net.contingency("CL2"), base)
    assert res.status == "ok"
    assert solves and all(r.status == nlp.SOLVED for _, r in solves)
    for sys_, r in solves:
        w = sys_.expand(r.x)
        q = sys_.lay.unpack(w).q_gen
        assert sys_.n == 2 * len(net.buses) - 2
        assert q[1] == q[2]
    g2, g3 = res.point.state.q_gen[1:]
    assert g2 == g3


def test_fast_evaluations_on_14_buses_solve_the_full_system(monkeypatch):
    # every converged square solve of every contingency's fast evaluation
    net, base = generated_base(14)
    systems, states, solves = {}, {}, []
    packed = {k.outaged: CaseLayout.of(net, k.outaged).pack(base.state).tobytes()
              for k in net.contingencies}

    class Recorded(ev._SquareSystem):
        # the round's segment state comes with its segment update; the
        # system was built on that state's plan
        def __init__(self, net, k, base_x, plan):
            super().__init__(net, k, base_x, plan)
            assert base_x.tobytes() == packed[k.outaged]
            systems[id(self)] = k

        def updated_segments(self, state, w):
            assert self.plan is scopf._SegmentPlan.of(self.lay, state)
            states[id(self)] = state.copy()
            return super().updated_segments(state, w)

    real_solve = ev.solve_square

    def spy_solve(fun, jac, x0, **kw):
        res = real_solve(fun, jac, x0, **kw)
        solves.append((fun.__self__, res))
        return res

    monkeypatch.setattr(ev, "_SquareSystem", Recorded)
    monkeypatch.setattr(ev, "solve_square", spy_solve)
    for k in net.contingencies:
        ev.fast_evaluate(net, k, base)
    converged = [(s, r) for s, r in solves if r.status == nlp.SOLVED]
    assert len(converged) >= len(net.contingencies)
    for sys_, r in converged:
        k, state = systems[id(sys_)], states[id(sys_)]
        assert_solves_the_full_system(net, k, base, state, sys_.expand(r.x))


def square_system(net, k, base, state):
    """k's square system at base point `base` and segment state `state`."""
    lay = CaseLayout.of(net, k.outaged)
    return ev._SquareSystem(net, k, lay.pack(base.state), scopf._SegmentPlan.of(lay, state))


def start(sys_, base, delta):
    """sys_'s unknowns at base point `base`, and delta: a round's start,
    taken from a layout vector as the fast loop takes it."""
    return np.append(sys_.lay.pack(base.state)[sys_.st.cols], delta)


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
    n = square_system(net, k, base, state).n
    for limit, kind in ((n, nlp._DenseLuPattern), (n - 1, nlp._LuPattern)):
        monkeypatch.setattr(nlp, "DENSE_LU_MAX", limit)
        sys_ = square_system(five_bus_net(), k, base, state)
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


def full_rounds(net, k, base, monkeypatch, **kw):
    """`full_evaluate` of k, and per NLP round its repriced penalty, delta
    column and point."""
    real_solve, rounds = ev.solve_nlp, []

    def solve(prob, **solve_kw):
        sol = real_solve(prob, **solve_kw)
        point, delta = prob.meta.extract_ctg(sol.x, k.id)
        rounds.append((scopf.reprice(net, point.state, k.outaged)[1], delta, point))
        return sol

    monkeypatch.setattr(ev, "solve_nlp", solve)
    return ev.full_evaluate(net, k, base, deterministic=True, **kw), rounds


def test_full_delta_is_the_best_rounds_delta_column(base30, monkeypatch):
    # the result's delta is the delta column of the round that gave its
    # point: on 30 buses KL13's second round beats its first
    net, base = base30
    res, rounds = full_rounds(net, net.contingency("KL13"), base, monkeypatch)
    assert len(rounds) == 2 and rounds[1][0] < rounds[0][0]
    pen, delta, point = rounds[1]
    assert rounds[0][1] != delta
    assert (res.penalty, res.compl.delta) == (pen, delta)
    assert res.point.state.v.tobytes() == point.state.v.tobytes()


def test_seeded_full_evaluation_without_improvement_returns_the_seed(monkeypatch):
    # reseeded with its own result, KG1 on 14 buses solves one round that
    # prices above the seed: the seed's point, segments and delta come back
    net, base = generated_base(14)
    k = net.contingency("KG1")
    seed = ev.full_evaluate(net, k, base, deterministic=True)
    res, rounds = full_rounds(net, k, base, monkeypatch,
                              init_compl=seed.compl, start=seed.point)
    assert rounds and all(pen > seed.penalty for pen, _, _ in rounds)
    assert rounds[0][1] != seed.compl.delta
    assert (res.penalty, res.compl) == (seed.penalty, seed.compl)
    assert res.point.slacks.tobytes() == seed.point.slacks.tobytes()


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
    np.testing.assert_array_equal(a.point.slacks, b.point.slacks)


def segment_plans(net, outaged):
    """The outage's compiled segment plans: each one's arrays as bytes,
    under its cache key."""
    return {key: {name: np.asarray(value).tobytes()
                  for name, value in vars(plan).items() if name != "square"}
            for key, plan in CaseLayout.of(net, outaged).compiled.items()
            if key[0] == "plan"}


@pytest.mark.parametrize("kind", ["generator-outage", "line-outage"])
def test_cached_models_hold_no_base_point_data(case14, kind):
    # one contingency at two base points, in both orders: every result on a
    # network whose layout, segment plans and square systems are cached is
    # bit-equal to the same evaluation on a fresh copy of the case, and
    # every plan that the fresh copy compiles at a point equals the cached
    # one, though that may have been compiled at the other point
    path, points = case14
    k = next(k for k in load_case(path).contingencies if k.kind == kind)
    for order in (points, points[::-1]):
        warm = load_case(path)
        for point in order:
            got = ev.fast_evaluate(warm, k, point, deterministic=True)
            fresh = load_case(path)
            ref = ev.fast_evaluate(fresh, k, point, deterministic=True)
            assert_same_result(got, ref)
            plans, cached = segment_plans(fresh, k.outaged), segment_plans(warm, k.outaged)
            assert plans and all(cached[key] == plan for key, plan in plans.items())
        assert warm._layouts[k.outaged].compiled


def test_each_segment_plan_is_compiled_once(case14, monkeypatch):
    # every contingency at two base points: each (outage, segment
    # assignment) plan is compiled once, and the rounds and evaluations
    # that meet its assignment again read it from the layout's cache
    path, points = case14
    net = load_case(path)
    built, looked_up = [], []
    init, of = scopf._SegmentPlan.__init__, scopf._SegmentPlan.of.__func__

    def counting_init(self, lay, seg_p, seg_q):
        built.append((lay.gen_ids, seg_p, seg_q))
        init(self, lay, seg_p, seg_q)

    def counting_of(cls, lay, state):
        looked_up.append(lay)
        return of(cls, lay, state)

    monkeypatch.setattr(scopf._SegmentPlan, "__init__", counting_init)
    monkeypatch.setattr(scopf._SegmentPlan, "of", classmethod(counting_of))
    for point in points:
        for k in net.contingencies:
            ev.fast_evaluate(net, k, point, deterministic=True)
    keys = [(id(lay), key) for lay in net._layouts.values()
            for key in lay.compiled if key[0] == "plan"]
    assert len(built) == len(keys) == len(set(keys)) > 0
    assert len(looked_up) > 2 * len(built)


@pytest.mark.parametrize("ctg_id", ["CL2", "CT1", "CG2"])
def test_square_jacobian_reuses_only_the_residuals_own_array(ctg_id):
    # the Jacobian reuses the last residual's work only for the very array
    # that residual was given: at an equal-valued copy, and at another
    # point, it is the Jacobian of a fresh residual-then-Jacobian there
    from conftest import five_bus_net
    net = five_bus_net()
    k = net.contingency(ctg_id)
    base = scopf.default_start(net)
    state = compl.init_default(net, k)
    sys_ = square_system(net, k, base, state)
    rng = np.random.default_rng(7)
    z = start(sys_, base, 0.05) + rng.uniform(-0.05, 0.05, sys_.n)
    other = z + rng.uniform(-0.05, 0.05, sys_.n)

    def fresh(at):
        sys_ = square_system(net, k, base, state)
        sys_.residual(at)
        return sys_.jacobian(at)

    for at in (z.copy(), other):
        sys_.residual(z)
        pattern, vals = sys_.jacobian(at)
        want_pattern, want = fresh(at)
        assert pattern is want_pattern
        np.testing.assert_array_equal(vals, want)
    assert not np.array_equal(fresh(z)[1], fresh(other)[1])


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
    """Per-generator reference for `_SquareSystem.updated_segments`, at the
    flow state `raw` and response scalar `delta`."""
    tol = ev._BOUND_TOL
    new = state.copy()
    for gi, g in enumerate(net.generators):
        if g.id == k.outaged:
            continue
        if g.id in new.active:
            seg = new.active[g.id]
            p = raw.p_gen[gi]
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
            q = raw.q_gen[gi]
            bus = net.bus_index(g.bus)
            rho_q = base.state.v[bus] - raw.v[bus]
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
            sys_ = square_system(net5, k, base, st)
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
            # the full point that `expand` would give, with these outputs
            w = np.append(sys_.lay.pack(point.state),
                          rng.choice([0.0, rng.uniform(-0.5, 0.5)]))
            got = sys_.updated_segments(st, w)
            raw = sys_.lay.unpack(w)
            want = _update_from_violations_loop(net5, k, st, base, raw, w[-1])
            assert (got.active, got.reactive) == (want.active, want.reactive)
            assert got.delta == st.delta
            seen.add(got != st)
    assert seen == {True, False}
