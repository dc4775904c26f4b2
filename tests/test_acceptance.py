"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL line,
and enforces the criterion's tolerance and runtime budget.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np

from conftest import five_bus_net, make_bus, make_gen, make_line
from scacopf import eval as ev
from scacopf import orchestrator as orch
from scacopf.acpf import CaseLayout
from scacopf.case_model import (
    Contingency,
    Network,
    PenaltyConfig,
    preprocess,
    write_case,
)
from scacopf.cli import generate_case, main as cli_main
from scacopf.nlp import solve_nlp
from scacopf.orchestrator import RunConfig, flat_start, run_code2, write_base_solution
from scacopf.ranking import (
    extract_features,
    rank_baseline,
    rank_initial,
    train_ridge,
)
from scacopf.scopf import (
    MasterSpec,
    build_base_problem,
    build_master_problem,
    total_score,
)
from scacopf.select import select_top
from test_acpf import coo_dense, expr_values, fd_jacobian, random_state


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def solved_base(net):
    prob = build_base_problem(net, start=flat_start(net))
    sol = solve_nlp(prob, tol=1e-8)
    assert np.all(np.isfinite(sol.x))
    return prob.meta.extract_base(sol.x)


# --- criterion 1: derivative correctness --------------------------------------

def test_criterion_1_derivatives():
    net = five_bus_net()
    layout = CaseLayout(net)
    rng = np.random.default_rng(7)
    t0 = time.monotonic()

    worst_jac = 0.0
    states = [random_state(net, rng) for _ in range(100)]
    jac_shape, hess_shape = (layout.nrows, layout.nvar), (layout.nvar, layout.nvar)

    def jac(x):
        return coo_dense(layout.jac_values(x), layout.jac_pattern(), jac_shape)

    for state in states:
        x0 = layout.pack(state)
        J_fd = fd_jacobian(lambda x: expr_values(layout, x), x0)
        scale = np.maximum(np.abs(J_fd), 1.0)
        worst_jac = max(worst_jac, np.max(np.abs(jac(x0) - J_fd) / scale))

    # Hessian check: finite differences of the analytic weighted Jacobian
    worst_hess = 0.0
    h = 1e-6
    for state in states:
        x0 = layout.pack(state)
        weights = rng.uniform(-1, 1, layout.nrows)
        H = coo_dense(layout.hess_values(x0, weights), layout.hess_pattern(),
                      hess_shape)
        H_full = H + H.T - np.diag(np.diag(H))
        H_fd = np.zeros((x0.size, x0.size))
        for j in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            H_fd[:, j] = (weights @ jac(xp) - weights @ jac(xm)) / (2 * h)
        scale = np.maximum(np.abs(H_fd), 1.0)
        worst_hess = max(worst_hess, np.max(np.abs(H_full - H_fd) / scale))

    elapsed = time.monotonic() - t0
    ok = worst_jac < 1e-5 and worst_hess < 1e-4 and elapsed < 10.0
    report(1, ok, f"100 states: max jac err {worst_jac:.2e} (<1e-5), "
                  f"max hess err {worst_hess:.2e} (<1e-4), {elapsed:.1f}s (<10s)")


# --- criterion 2: solver correctness ------------------------------------------

def dense_qp_problem(Q, c, A, b):
    from scacopf.nlp import NlpProblem
    n, m = Q.shape[0], A.shape[0]
    lower = np.tril_indices(n)
    return NlpProblem(
        n=n, x0=np.zeros(n),
        lb=np.full(n, -np.inf), ub=np.full(n, np.inf),
        objective=lambda x: 0.5 * x @ Q @ x + c @ x,
        gradient=lambda x: Q @ x + c,
        eq=lambda x: A @ x - b,
        ineq=lambda x: np.zeros(0),
        jac_eq=lambda x: A.ravel(),
        jac_ineq=lambda x: np.zeros(0),
        hess=lambda x, sf, le, li: sf * Q[lower],
        jac_eq_pattern=np.divmod(np.arange(m * n), n),
        jac_ineq_pattern=(np.zeros(0, int),) * 2, hess_pattern=lower,
        n_eq=m, n_ineq=0,
    )


def kkt_newton_oracle(prob, x0):
    """Damped-Newton solver for the perturbed KKT system with a decreasing
    barrier sequence; algorithmically independent of the package's
    interior-point line-search path."""
    n, m_eq, m_in = prob.n, prob.n_eq, prob.n_ineq
    lb, ub = prob.lb - 1e-8, prob.ub + 1e-8
    il = np.where(np.isfinite(lb))[0]
    iu = np.where(np.isfinite(ub))[0]
    nl, nu = il.size, iu.size
    x = x0.copy()
    for i in range(n):
        if np.isfinite(lb[i]) and np.isfinite(ub[i]):
            d = min(1e-4, 0.25 * (ub[i] - lb[i]))
            x[i] = min(max(x[i], lb[i] + d), ub[i] - d)
        elif np.isfinite(lb[i]):
            x[i] = max(x[i], lb[i] + 1e-4)
        elif np.isfinite(ub[i]):
            x[i] = min(x[i], ub[i] - 1e-4)
    y = np.zeros(m_eq)
    t = np.maximum(-prob.ineq(x), 1e-2)
    w = np.full(m_in, 1.0)
    zl = np.ones(nl)
    zu = np.ones(nu)

    def res(x, y, w, t, zl, zu, mu):
        Je = coo_dense(prob.jac_eq(x), prob.jac_eq_pattern, (m_eq, n))
        Ji = coo_dense(prob.jac_ineq(x), prob.jac_ineq_pattern, (m_in, n))
        F1 = prob.gradient(x) + Je.T @ y + Ji.T @ w
        F1[il] -= zl
        F1[iu] += zu
        return np.concatenate([
            F1, prob.eq(x), prob.ineq(x) + t, t * w - mu,
            (x[il] - lb[il]) * zl - mu, (ub[iu] - x[iu]) * zu - mu,
        ]), Je, Ji

    lam = 0.0
    for mu in (1e2, 1e0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        for _ in range(80):
            F, Je, Ji = res(x, y, w, t, zl, zu, mu)
            if np.max(np.abs(F)) <= max(1e-9, mu):
                break
            H = coo_dense(prob.hess(x, 1.0, y, w), prob.hess_pattern, (n, n))
            H = H + H.T - np.diag(np.diag(H))
            oy, ow = n, n + m_eq
            ot, ozl = ow + m_in, ow + 2 * m_in
            ozu = ozl + nl
            N = ozu + nu
            J = np.zeros((N, N))
            J[0:n, 0:n] = H + lam * np.eye(n)
            J[0:n, oy:ow] = Je.T
            J[0:n, ow:ot] = Ji.T
            J[il, ozl + np.arange(nl)] = -1.0
            J[iu, ozu + np.arange(nu)] = 1.0
            J[oy:ow, 0:n] = Je
            J[ow:ot, 0:n] = Ji
            J[ow:ot, ot:ozl] = np.eye(m_in)
            J[ot:ozl, ot:ozl] = np.diag(w)
            J[ot:ozl, ow:ot] = np.diag(t)
            J[ozl + np.arange(nl), il] = zl
            J[ozl:ozu, ozl:ozu] = np.diag(x[il] - lb[il])
            J[ozu + np.arange(nu), iu] = -zu
            J[ozu:, ozu:] = np.diag(ub[iu] - x[iu])
            try:
                d = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                lam = max(2 * lam, 1e-6)
                continue
            dx, dy = d[0:n], d[oy:ow]
            dw, dt = d[ow:ot], d[ot:ozl]
            dzl, dzu = d[ozl:ozu], d[ozu:]
            a = 1.0
            for v, dv in ((t, dt), (w, dw), (zl, dzl), (zu, dzu)):
                m = dv < 0
                if m.any():
                    a = min(a, 0.995 * np.min(-v[m] / dv[m]))
            gl = x[il] - lb[il]
            m = dx[il] < 0
            if m.any():
                a = min(a, 0.995 * np.min(gl[m] / (-dx[il][m])))
            gu = ub[iu] - x[iu]
            m = dx[iu] > 0
            if m.any():
                a = min(a, 0.995 * np.min(gu[m] / dx[iu][m]))
            f0 = np.dot(F, F)
            alpha, ok = a, False
            for _bt in range(30):
                Ft, _, _ = res(x + alpha * dx, y + alpha * dy,
                               w + alpha * dw, t + alpha * dt,
                               zl + alpha * dzl, zu + alpha * dzu, mu)
                if np.dot(Ft, Ft) < f0:
                    ok = True
                    break
                alpha *= 0.5
            if not ok:
                lam = max(4 * lam, 1e-8)
                if lam > 1e12:
                    break
                continue
            lam *= 0.25
            x = x + alpha * dx
            y = y + alpha * dy
            w = w + alpha * dw
            t = t + alpha * dt
            zl = zl + alpha * dzl
            zu = zu + alpha * dzu
    viol = max(
        np.max(np.abs(prob.eq(x))) if m_eq else 0.0,
        np.max(np.maximum(prob.ineq(x), 0.0)) if m_in else 0.0,
        np.max(np.maximum(prob.lb - x, 0.0)),
        np.max(np.maximum(x - prob.ub, 0.0)))
    return x, viol


def test_criterion_2_solver():
    t0 = time.monotonic()
    # convex-QP suite against the closed-form KKT solution
    worst_qp = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, m = 6, 2
        B = rng.normal(size=(n, n))
        Q = B @ B.T + n * np.eye(n)
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        K = np.block([[Q, A.T], [A, np.zeros((m, m))]])
        ref = np.linalg.solve(K, np.concatenate([-c, b]))[:n]
        sol = solve_nlp(dense_qp_problem(Q, c, A, b))
        worst_qp = max(worst_qp, float(np.max(np.abs(sol.x - ref))))

    # 5-bus AC-OPF against a multi-start damped-Newton KKT oracle
    net = five_bus_net(with_contingencies=False)
    prob = build_base_problem(net, start=flat_start(net))
    sol = solve_nlp(prob, tol=1e-8)
    f_ipm = prob.objective(sol.x)
    rng = np.random.default_rng(7)
    best = None
    for s in range(3):
        x0 = prob.x0 if s == 0 else \
            prob.x0 + rng.normal(scale=0.01, size=prob.n)
        x, viol = kkt_newton_oracle(prob, x0)
        f = prob.objective(x)
        if viol < 1e-6 and (best is None or f < best):
            best = f
    rel = abs(f_ipm - best) / max(1.0, abs(best))
    elapsed = time.monotonic() - t0
    ok = worst_qp < 1e-6 and rel < 1e-4 and elapsed < 60.0
    report(2, ok, f"QP max err {worst_qp:.2e} (<1e-6), AC-OPF objective "
                  f"rel diff {rel:.2e} (<1e-4), {elapsed:.1f}s (<60s)")


# --- criterion 3: fast-evaluation upper bound ---------------------------------

def test_criterion_3_upper_bound():
    t0 = time.monotonic()
    worst_gap = -np.inf
    n_checked = 0
    for n_bus, seed in ((5, 11), (14, 3), (30, 5)):
        net = generate_case(n_bus, seed)
        base = solved_base(net)
        for k in net.contingencies:
            fast = ev.fast_evaluate(net, k, base, time_limit=5.0)
            full = ev.full_evaluate(net, k, base, time_limit=15.0,
                                    init_compl=fast.compl, start=fast.point)
            worst_gap = max(worst_gap, full.penalty - fast.penalty)
            n_checked += 1
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-6 and elapsed < 300.0
    report(3, ok, f"{n_checked} contingencies over 5/14/30-bus cases: worst "
                  f"full−fast gap {worst_gap:.2e} (≤1e-6), "
                  f"{elapsed:.0f}s (<5min)")


# --- criterion 4: complementarity-update benefit ------------------------------

def binding_response_net():
    """Line outage that reroutes flow through a reactively weak generator bus;
    keeping its voltage pinned at the base value (no segment updates) is
    infeasible without large slack penalties."""
    buses = (make_bus("B1"), make_bus("B2"),
             make_bus("B3", p_load=1.2, q_load=0.5))
    gens = (make_gen("G1", "B1", p_max=2.0),
            make_gen("G2", "B2", p_max=1.0, q_min=-0.15, q_max=0.15))
    lines = (make_line("L1", "B1", "B2"),
             make_line("L2", "B2", "B3", b=-4.0, g=0.4),
             make_line("L3", "B2", "B3", b=-4.0, g=0.4),
             make_line("L4", "B1", "B3", b=-2.0, g=0.2))
    ctg = (Contingency("K", "line-outage", "L2", ("G1", "G2")),)
    return Network(buses=buses, generators=gens, lines=lines,
                   transformers=(), contingencies=ctg,
                   penalty_config=PenaltyConfig(), reference_bus="B1")


def _ratio(without, with_upd):
    if without <= 1e-9 and with_upd <= 1e-9:
        return 1.0
    return max(without, 1e-12) / max(with_upd, 1e-12)


def test_criterion_4_complementarity_benefit():
    t0 = time.monotonic()
    ratios = []
    for n_bus, seed in ((5, 11), (14, 3)):
        net = generate_case(n_bus, seed)
        base = solved_base(net)
        for k in net.contingencies:
            w = ev.full_evaluate(net, k, base, time_limit=10.0)
            wo = ev.full_evaluate(net, k, base, time_limit=10.0,
                                  segment_updates=False)
            ratios.append(_ratio(wo.penalty, w.penalty))

    net = binding_response_net()
    base = solved_base(net)
    k = net.contingency("K")
    w = ev.full_evaluate(net, k, base, time_limit=15.0)
    wo = ev.full_evaluate(net, k, base, time_limit=15.0,
                          segment_updates=False)
    constructed = _ratio(wo.penalty, w.penalty)
    ratios.append(constructed)

    mean = float(np.mean([min(r, 1e6) for r in ratios]))
    elapsed = time.monotonic() - t0
    ok = min(ratios) >= 1.0 and mean >= 1.0 and constructed >= 1.05 \
        and elapsed < 300.0
    report(4, ok, f"mean ratio {mean:.3f} (≥1), min {min(ratios):.3f}, "
                  f"constructed case ratio {constructed:.3g} (≥1.05), "
                  f"{elapsed:.0f}s (<5min)")


# --- criterion 5: dominance-aware selection -----------------------------------

def brute_force_select(order, summaries, n, master=()):
    chosen, pool = [], list(master)
    for cid in order:
        if len(chosen) >= n:
            continue
        s = summaries[cid]
        if any(o.base_tag == s.base_tag and o.argmax == s.argmax
               and o.max_violation > s.max_violation for o in pool):
            continue
        chosen.append(cid)
        pool.append(s)
    return chosen


def test_criterion_5_selection_matches_brute_force():
    from scacopf.select import ViolationSummary
    rng = np.random.default_rng(20240817)
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(1, 21))
        order = [f"K{i}" for i in rng.permutation(m)]
        dim = int(rng.integers(2, 6))
        summaries = {
            c: ViolationSummary(
                contingency_id=c,
                slacks=rng.choice([0.0, 0.1, 0.3, 0.5], size=dim))
            for c in order
        }
        n = int(rng.integers(1, 5))
        if select_top(order, summaries, n) != \
                brute_force_select(order, summaries, n):
            mismatches += 1
    report(5, mismatches == 0,
           f"select_top vs brute force: {mismatches}/200 mismatches")


# --- criterion 6: ranking sanity ----------------------------------------------

def dominant_penalty_net():
    """One heavily loaded corridor whose outage dwarfs every other
    contingency by more than 10x."""
    buses = (make_bus("B1"), make_bus("B2", p_load=0.2, q_load=0.05),
             make_bus("B3", p_load=1.4, q_load=0.4),
             make_bus("B4", p_load=0.1))
    gens = (make_gen("G1", "B1", p_max=2.5),
            make_gen("G2", "B2", p_max=0.5,
                     cost_curve=((0.3, 30.0), (0.6, 60.0))))
    lines = (
        make_line("LH", "B1", "B3", g=1.0, b=-8.0, r_max=2.0, r_max_ctg=2.2),
        make_line("LW", "B1", "B3", g=0.1, b=-0.8, r_max=0.4,
                  r_max_ctg=0.45),
        make_line("L2", "B1", "B2", r_max=1.0, r_max_ctg=1.1),
        make_line("L3", "B2", "B4", r_max=1.0, r_max_ctg=1.1),
        make_line("L4", "B4", "B3", r_max=1.0, r_max_ctg=1.1),
    )
    ctg = (Contingency("KH", "line-outage", "LH", ("G1", "G2")),
           Contingency("K2", "line-outage", "L2", ("G1", "G2")),
           Contingency("KG2", "generator-outage", "G2", ("G1",)))
    return Network(buses=buses, generators=gens, lines=lines,
                   transformers=(), contingencies=ctg,
                   penalty_config=PenaltyConfig(), reference_bus="B1")


def load_scenario(net, rng):
    buses = tuple(replace(b, p_load=b.p_load * rng.uniform(0.7, 1.3),
                          q_load=b.q_load * rng.uniform(0.7, 1.3))
                  for b in net.buses)
    return replace(net, buses=buses)


def true_penalties(net, base, time_limit=5.0):
    out = {}
    for k in net.contingencies:
        fast = ev.fast_evaluate(net, k, base, time_limit=2.0)
        out[k.id] = ev.full_evaluate(net, k, base, time_limit=time_limit,
                                     init_compl=fast.compl,
                                     start=fast.point).penalty
    return out


def top3_coverage(order, truth):
    total = sum(truth.values())
    if total <= 0:
        return 100.0
    return 100.0 * sum(truth[c] for c in order[:3]) / total


def test_criterion_6_ranking():
    t0 = time.monotonic()
    # part 1: dominant contingency placed first by every heuristic
    net = dominant_penalty_net()
    base = solved_base(net)
    truth = true_penalties(net, base, time_limit=10.0)
    others = max(v for c, v in truth.items() if c != "KH")
    separation = truth["KH"] / max(others, 1e-12)
    firsts = {}
    for h in ("l_p", "l_s", "l_c"):
        firsts[h] = rank_baseline(net, base, h)[0]
    # ridge trained on load scenarios of the same constructed network family
    rng = np.random.default_rng(42)
    samples = []
    for _ in range(4):
        snet = load_scenario(net, rng)
        sbase = solved_base(snet)
        lab = true_penalties(snet, sbase)
        samples.extend((extract_features(snet, k, sbase), lab[k.id])
                       for k in snet.contingencies)
    model_c = train_ridge(samples, reg_lambda=1.0)
    firsts["ridge"] = rank_initial(net, base, model_c)[0]
    all_first = all(v == "KH" for v in firsts.values())

    # part 2: ridge coverage >= every single-feature baseline on held-out
    # load scenarios, averaged over 5 seeds
    net0 = generate_case(10, 0)
    rng = np.random.default_rng(42)
    samples = []
    for _ in range(8):
        snet = load_scenario(net0, rng)
        sbase = solved_base(snet)
        lab = true_penalties(snet, sbase)
        samples.extend((extract_features(snet, k, sbase), lab[k.id])
                       for k in snet.contingencies)
    model = train_ridge(samples, reg_lambda=1.0)
    covs = {h: [] for h in ("l_p", "l_s", "l_c", "ridge")}
    for _seed in range(5):
        snet = load_scenario(net0, rng)
        sbase = solved_base(snet)
        truth_s = true_penalties(snet, sbase)
        for h in ("l_p", "l_s", "l_c"):
            covs[h].append(top3_coverage(rank_baseline(snet, sbase, h),
                                         truth_s))
        covs["ridge"].append(top3_coverage(rank_initial(snet, sbase, model),
                                           truth_s))
    means = {h: float(np.mean(v)) for h, v in covs.items()}
    ridge_wins = all(means["ridge"] >= means[h] - 1e-9
                     for h in ("l_p", "l_s", "l_c"))
    elapsed = time.monotonic() - t0
    ok = separation >= 10.0 and all_first and ridge_wins
    report(6, ok, f"separation {separation:.1f}x (≥10), first-place picks "
                  f"{firsts}, coverage means {{{', '.join(f'{h}: {m:.1f}' for h, m in means.items())}}}, "
                  f"{elapsed:.0f}s")


# --- criterion 7: end-to-end master-iteration improvement ---------------------

def catastrophic_14bus_net():
    """Cheap twin-corridor supply to a far load; losing one corridor line
    overloads the survivor unless the master re-dispatches the expensive
    local generator."""
    buses = [make_bus("B1"), make_bus("B3", p_load=1.5, q_load=0.3)]
    for i in range(4, 16):
        if len(buses) >= 14:
            break
        buses.append(make_bus(f"B{i}", p_load=0.05, q_load=0.01))
    gens = (make_gen("G1", "B1", p_max=3.0,
                     cost_curve=((1.5, 5.0), (3.5, 10.0))),
            make_gen("G3", "B3", p_max=1.2,
                     cost_curve=((0.6, 80.0), (1.4, 160.0))))
    lines = [make_line("LH1", "B1", "B3", g=0.8, b=-8.0, r_max=0.8,
                       r_max_ctg=0.9),
             make_line("LH2", "B1", "B3", g=0.8, b=-8.0, r_max=0.8,
                       r_max_ctg=0.9)]
    prev = "B1"
    for b in buses[2:]:
        lines.append(make_line(f"L{b.id}", prev, b.id, r_max=1.5,
                               r_max_ctg=1.6))
        prev = b.id
    ctg = (Contingency("KH", "line-outage", "LH1", ("G1",)),)
    return Network(buses=tuple(buses), generators=gens, lines=tuple(lines),
                   transformers=(), contingencies=ctg,
                   penalty_config=PenaltyConfig(), reference_bus="B1")


def test_criterion_7_master_improvement():
    t0 = time.monotonic()
    net = catastrophic_14bus_net()
    base = solved_base(net)
    res0 = ev.full_evaluate(net, net.contingency("KH"), base,
                            time_limit=20.0)
    score0 = total_score(net, base, {"KH": res0.penalty})

    spec = MasterSpec(net=net, included=("KH",), compl={"KH": res0.compl},
                      base_point=base, ctg_points={"KH": res0.point})
    mprob = build_master_problem(spec)
    msol = solve_nlp(mprob, tol=1e-6)
    new_base = mprob.meta.extract_base(msol.x)
    res1 = ev.full_evaluate(net, net.contingency("KH"), new_base,
                            time_limit=20.0)
    score1 = total_score(net, new_base, {"KH": res1.penalty})
    elapsed = time.monotonic() - t0
    ok = score1 <= 0.5 * score0 and elapsed < 120.0
    report(7, ok, f"base-only score {score0:.1f} → after one master "
                  f"iteration {score1:.2f} (≤0.5x), {elapsed:.0f}s (<2min)")


# --- criterion 8: code 2 budget compliance ------------------------------------

def test_criterion_8_code2_budget(tmp_path, monkeypatch):
    net = generate_case(30, 5)
    assert len(net.contingencies) == 20
    base = solved_base(net)

    cfg = RunConfig(output_dir=str(tmp_path / "a"),
                    per_contingency_code2_factor=2.0)
    t0 = time.monotonic()
    res = run_code2(net, cfg, base, base_tag=1)
    elapsed_a = time.monotonic() - t0
    ok_a = len(res.files) == 20 and elapsed_a <= 40.0 * 1.05

    # same contract under injected solver failures
    real = ev.prescreen_then_evaluate
    failing = {k.id for k in net.contingencies[::4]}

    def flaky(net_, k, *a, **kw):
        if k.id in failing:
            raise RuntimeError("injected solver failure")
        return real(net_, k, *a, **kw)

    monkeypatch.setattr(orch.eval_mod, "prescreen_then_evaluate", flaky)
    cfg = RunConfig(output_dir=str(tmp_path / "b"),
                    per_contingency_code2_factor=2.0)
    t0 = time.monotonic()
    res_b = run_code2(net, cfg, base, base_tag=1)
    elapsed_b = time.monotonic() - t0
    fallbacks = sum(1 for r in res_b.results.values()
                    if r.status == "fallback")
    ok_b = len(res_b.files) == 20 and elapsed_b <= 40.0 * 1.05 \
        and fallbacks == len(failing)
    report(8, ok_a and ok_b,
           f"|K|=20, factor 2s: clean run {elapsed_a:.1f}s/"
           f"{len(res.files)} files; injected-failure run {elapsed_b:.1f}s/"
           f"{len(res_b.files)} files with {fallbacks} fallbacks "
           f"(budget ≤42s)")


# --- criterion 9: determinism -------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    case_path = str(tmp_path / "case14.json")
    write_case(generate_case(14, 3), case_path)

    def one_run(d):
        out1 = str(d / "c1")
        rc = cli_main(["code1", "--case", case_path, "--time-limit", "30",
                       "--deterministic", "--seed", "7",
                       "--output-dir", out1])
        assert rc == 0
        out2 = str(d / "c2")
        rc = cli_main(["code2", "--case", case_path,
                       "--base", os.path.join(out1, "base_solution.json"),
                       "--deterministic",
                       "--output-dir", out2])
        assert rc == 0
        files = {}
        for root, _, names in os.walk(d):
            for f in names:
                rel = os.path.relpath(os.path.join(root, f), d)
                files[rel] = open(os.path.join(root, f), "rb").read()
        return files

    a = one_run(tmp_path / "runA")
    b = one_run(tmp_path / "runB")
    identical = a == b
    report(9, identical,
           f"two deterministic seed-7 code1+code2 runs: "
           f"{len(a)} files, byte-identical={identical}")


# --- criterion 10: preprocessing equivalence ----------------------------------

def test_criterion_10_preprocessing():
    net = five_bus_net(with_contingencies=False)
    # exact duplicate of L1: identical admittance and rating on the same pair
    dup = replace(net.lines[0], id="L1b")
    net = replace(net, lines=net.lines + (dup,))
    _, rep = preprocess(net)

    start = flat_start(net)
    prob_raw = build_base_problem(net, start=start)
    prob_pre = build_base_problem(net, report=rep, start=start)
    fewer = prob_pre.n_ineq < prob_raw.n_ineq

    sol_raw = solve_nlp(prob_raw, tol=1e-8)
    sol_pre = solve_nlp(prob_pre, tol=1e-8)
    f_raw = prob_raw.objective(sol_raw.x)
    f_pre = prob_pre.objective(sol_pre.x)
    rel = abs(f_raw - f_pre) / max(1.0, abs(f_raw))
    ok = fewer and rel < 1e-6
    report(10, ok,
           f"objective with/without preprocessing {f_pre:.6f}/{f_raw:.6f} "
           f"(rel diff {rel:.2e} < 1e-6), inequality rows "
           f"{prob_pre.n_ineq} < {prob_raw.n_ineq}")
