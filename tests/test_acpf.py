import math

import numpy as np
import pytest

from scacopf import acpf
from scacopf.acpf import CaseLayout, FlowState
from scacopf.case_model import Line, preprocess
from scacopf.cli import generate_case
from conftest import make_line, make_xf, two_bus_net


def random_state(net, rng, layout=None):
    nb = len(net.buses)
    ng = len(net.generators)
    nbr = len(net.branches)
    return FlowState(
        v=rng.uniform(0.9, 1.1, nb),
        theta=rng.uniform(-0.4, 0.4, nb),
        bcs=rng.uniform(-0.2, 0.2, nb),
        p_gen=rng.uniform(0.0, 1.5, ng),
        q_gen=rng.uniform(-1.0, 1.0, ng),
        flows=rng.uniform(-1.0, 1.0, (nbr, 4)),
    )


def test_equal_voltage_zero_flow():
    line = make_line("L", "A", "B", g=0.5, b=-5.0, b_ch=0.0)
    p_o, q_o, p_d, q_d = acpf.branch_flows(line, 1.0, 1.0, 0.3, 0.3)
    assert abs(p_o) < 1e-15
    assert abs(q_o) < 1e-15


def test_line_reactive_hand_value():
    line = make_line("L", "A", "B", g=0.0, b=-1.0, b_ch=0.2)
    _, q_o, _, _ = acpf.branch_flows(line, 1.0, 1.0, 0.0, 0.0)
    assert q_o == pytest.approx(-(-1.0 + 0.1) * 1.0 + (-1.0) * 1.0)
    assert q_o == pytest.approx(-0.1)


def test_line_role_reversal_symmetry(rng):
    for _ in range(20):
        g, b, bch = rng.uniform(0, 1), rng.uniform(-10, -1), rng.uniform(0, 0.5)
        v_o, v_d = rng.uniform(0.9, 1.1, 2)
        th_o, th_d = rng.uniform(-0.5, 0.5, 2)
        line = make_line("L", "A", "B", g=g, b=b, b_ch=bch)
        _, _, p_d, q_d = acpf.branch_flows(line, v_o, v_d, th_o, th_d)
        # destination formula equals origin formula with roles swapped
        rev = make_line("L", "B", "A", g=g, b=b, b_ch=bch)
        p_o2, q_o2, _, _ = acpf.branch_flows(rev, v_d, v_o, th_d, th_o)
        assert p_d == pytest.approx(p_o2, rel=1e-12, abs=1e-14)
        assert q_d == pytest.approx(q_o2, rel=1e-12, abs=1e-14)


def test_transformer_degenerates_to_line(rng):
    for _ in range(10):
        g, b = rng.uniform(0, 1), rng.uniform(-10, -1)
        v_o, v_d = rng.uniform(0.9, 1.1, 2)
        th_o, th_d = rng.uniform(-0.5, 0.5, 2)
        xf = make_xf("T", "A", "B", g=g, b=b, tau=1.0, theta_shift=0.0,
                     g_mag=0.0, b_mag=0.0)
        line = make_line("L", "A", "B", g=g, b=b, b_ch=0.0)
        np.testing.assert_allclose(
            acpf.branch_flows(xf, v_o, v_d, th_o, th_d),
            acpf.branch_flows(line, v_o, v_d, th_o, th_d), rtol=1e-12, atol=1e-14)


def test_transformer_hand_value():
    xf = make_xf("T", "A", "B", g=0.0, b=-1.0, tau=2.0, theta_shift=0.0,
                 g_mag=0.0, b_mag=0.0)
    p_o, q_o, _, _ = acpf.branch_flows(xf, 1.0, 1.0, 0.1, 0.1)
    assert p_o == pytest.approx(0.0, abs=1e-15)
    assert q_o == pytest.approx(-(-0.25) * 1.0 + (-0.5) * 1.0)
    assert q_o == pytest.approx(-0.25)


def test_transformer_zero_origin_voltage():
    xf = make_xf("T", "A", "B")
    p_o, q_o, _, _ = acpf.branch_flows(xf, 0.0, 1.0, 0.2, -0.1)
    assert p_o == 0.0
    assert q_o == 0.0


def test_isolated_bus_zero_residual():
    net = two_bus_net(
        buses=(two_bus_net().buses[0],
               two_bus_net().buses[1].__class__(
                   id="B2", v_min=0.9, v_max=1.1, base_kv=230.0)),
    )
    state = FlowState(np.ones(2), np.zeros(2), np.zeros(2),
                      np.zeros(1), np.zeros(1), np.zeros((1, 4)))
    # exclude the only line so bus 2 is isolated with no load
    bal = acpf.balance_residuals(net, state, outaged="L1")
    assert bal.p_resid[1] == 0.0
    assert bal.q_resid[1] == 0.0


def test_direct_cancellation(net2):
    state = FlowState(np.ones(2), np.zeros(2), np.zeros(2),
                      np.array([0.8]), np.array([0.2]), np.zeros((1, 4)))
    bal = acpf.balance_residuals(net2, state, outaged="L1")
    # G1 at B1 injects 0.8; B2 load is 0.8 with no branches in service
    assert bal.p_resid[0] == pytest.approx(0.8)
    assert bal.p_resid[1] == pytest.approx(-0.8)


def dense_balance_oracle(net, state, outaged=None):
    """Independent dense evaluation of the per-bus balance sums."""
    nb = len(net.buses)
    p = np.zeros(nb)
    q = np.zeros(nb)
    for i, bus in enumerate(net.buses):
        gens = [gi for gi, g in enumerate(net.generators)
                if g.bus == bus.id and g.id != outaged]
        p[i] = sum(state.p_gen[gi] for gi in gens) - bus.p_load \
            - bus.g_fs * state.v[i] ** 2
        q[i] = sum(state.q_gen[gi] for gi in gens) - bus.q_load \
            + (bus.b_fs + state.bcs[i]) * state.v[i] ** 2
        for bi, br in enumerate(net.branches):
            if br.id == outaged:
                continue
            if br.origin == bus.id:
                p[i] -= state.flows[bi, 0]
                q[i] -= state.flows[bi, 1]
            if br.destination == bus.id:
                p[i] -= state.flows[bi, 2]
                q[i] -= state.flows[bi, 3]
    return p, q


def test_balance_matches_dense_oracle(net5, rng):
    # the base case, a transformer, a line and a generator outage, on the
    # five-bus case and on a generated one with several generators and
    # branches per bus
    net14 = preprocess(generate_case(14, 3))[0]
    for net in (net5, net14):
        state = random_state(net, rng)
        for outaged in (None, net.transformers[0].id, net.lines[1].id,
                        net.generators[1].id):
            bal = acpf.balance_residuals(net, state, outaged)
            p_ref, q_ref = dense_balance_oracle(net, state, outaged)
            np.testing.assert_allclose(bal.p_resid, p_ref, atol=1e-14)
            np.testing.assert_allclose(bal.q_resid, q_ref, atol=1e-14)


def test_rating_three_four_five(net2):
    state = FlowState(np.array([1.0, 1.0]), np.zeros(2), np.zeros(2),
                      np.zeros(1), np.zeros(1),
                      np.array([[3.0, 4.0, 0.0, 0.0]]))
    net = two_bus_net(lines=(make_line("L1", "B1", "B2", r_max=5.0, r_max_ctg=5.0),))
    layout = CaseLayout(net)
    lhs, rhs = layout.ratings(layout.pack(state))
    assert lhs[0, 0] == pytest.approx(25.0)
    assert rhs[0, 0] == pytest.approx(5.0)
    assert lhs[1, 0] == pytest.approx(0.0)


def test_squared_form_equivalent_to_norm_form(net5, rng):
    layout = CaseLayout(net5)
    for _ in range(200):
        state = random_state(net5, rng)
        sigma = rng.uniform(0, 0.5)
        lhs, rhs = layout.ratings(layout.pack(state))
        for bi in range(len(net5.branches)):
            squared_ok = lhs[0, bi] <= (rhs[0, bi] + sigma) ** 2
            norm_ok = math.sqrt(lhs[0, bi]) <= rhs[0, bi] + sigma
            assert squared_ok == norm_ok


def test_ratings_follow_the_outage(net5):
    # the base case is rated by the normal set, every contingency by the
    # emergency set
    normal = [br.r_max if isinstance(br, Line) else br.s_max for br in net5.branches]
    emergency = [br.r_max_ctg if isinstance(br, Line) else br.s_max_ctg
                 for br in net5.branches]
    assert normal != emergency
    np.testing.assert_array_equal(CaseLayout(net5).rate, normal)
    for outaged in ("G2", "L2", "T1"):
        live = [bi for bi, br in enumerate(net5.branches) if br.id != outaged]
        np.testing.assert_array_equal(CaseLayout(net5, outaged).rate,
                                      np.array(emergency)[live])


@pytest.mark.parametrize("outaged", ["G2", "L2", "T1"])
def test_layout_holds_only_live_columns(net5, rng, outaged):
    layout = CaseLayout(net5, outaged)
    nb = len(net5.buses)
    available = sum(g.id != outaged for g in net5.generators)
    in_service = sum(br.id != outaged for br in net5.branches)
    assert layout.nvar == 3 * nb + 2 * available + 4 * in_service
    state = random_state(net5, rng)
    back = layout.unpack(layout.pack(state))
    expected = state.copy()
    for gi, g in enumerate(net5.generators):
        if g.id == outaged:
            expected.p_gen[gi] = expected.q_gen[gi] = 0.0
    for bi, br in enumerate(net5.branches):
        if br.id == outaged:
            expected.flows[bi] = 0.0
    for name in ("v", "theta", "bcs", "p_gen", "q_gen", "flows"):
        np.testing.assert_array_equal(getattr(back, name), getattr(expected, name))


def test_resistive_dissipation(rng):
    # for a lossy line with no charging, p_o + p_d >= 0 on random states
    for _ in range(1000):
        g = rng.uniform(0.0, 2.0)
        b = rng.uniform(-10.0, -0.5)
        line = make_line("L", "A", "B", g=g, b=b, b_ch=0.0)
        v_o, v_d = rng.uniform(0.9, 1.1, 2)
        th_o, th_d = rng.uniform(-0.6, 0.6, 2)
        p_o, _, p_d, _ = acpf.branch_flows(line, v_o, v_d, th_o, th_d)
        assert p_o + p_d >= -1e-12


# --- derivative checks -------------------------------------------------------

def coo_dense(values, pattern, shape):
    """Dense matrix with `values` on the (rows, cols) `pattern`; repeated
    entries add up."""
    M = np.zeros(shape)
    np.add.at(M, pattern, values)
    return M


def expr_values(layout, x):
    """All expression rows of `layout` at x, in `jac_pattern` row order:
    flows, P/Q balance, ``lhs - rhs**2``."""
    lhs, rhs = layout.ratings(x)
    return np.concatenate((layout.flow_values(x).ravel(), layout.balance(x),
                           (lhs - rhs ** 2).T.ravel()))


def fd_jacobian(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(fun(x))
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2 * h)
    return J


@pytest.mark.parametrize("outaged", [None, "G2", "L2", "T1"])
def test_jacobian_matches_finite_differences(net5, rng, outaged):
    layout = CaseLayout(net5, outaged)
    for _ in range(5):
        state = random_state(net5, rng)
        x0 = layout.pack(state)
        J = coo_dense(layout.jac_values(x0), layout.jac_pattern(),
                      (layout.nrows, layout.nvar))
        J_fd = fd_jacobian(lambda x: expr_values(layout, x), x0)
        scale = np.maximum(np.abs(J_fd), 1.0)
        assert np.max(np.abs(J - J_fd) / scale) < 1e-5


def test_flow_rows_have_no_bcs_columns(net5, rng):
    layout = CaseLayout(net5)
    x = layout.pack(random_state(net5, rng))
    J = coo_dense(layout.jac_values(x), layout.jac_pattern(), (layout.nrows, layout.nvar))
    n_flow_rows = 4 * layout.m
    bcs_cols = J[:n_flow_rows, layout.bcs0:layout.bcs0 + layout.nb]
    assert np.all(bcs_cols == 0.0)


def test_hessian_matches_finite_differences(net5, rng):
    # the base case, then a line, a transformer and a generator outage
    for outaged in (None, "L2", "T1", "G2"):
        layout = CaseLayout(net5, outaged)
        state = random_state(net5, rng)
        x0 = layout.pack(state)
        weights = rng.uniform(-1, 1, layout.nrows)

        def weighted(x):
            return float(weights @ expr_values(layout, x))

        H = coo_dense(layout.hess_values(x0, weights), layout.hess_pattern(),
                      (layout.nvar, layout.nvar))
        H_full = H + H.T - np.diag(np.diag(H))
        H_fd = fd_jacobian(lambda x: fd_jacobian(weighted, x, 1e-4).ravel(), x0, 1e-4)
        scale = np.maximum(np.abs(H_fd), 1.0)
        assert np.max(np.abs(H_full - H_fd) / scale) < 1e-4, outaged


def test_hessian_lower_triangle_symmetric(net5, rng):
    layout = CaseLayout(net5)
    x = layout.pack(random_state(net5, rng))
    rows, cols = layout.hess_pattern()
    assert np.all(rows >= cols)
    Hd = coo_dense(layout.hess_values(x, np.ones(layout.nrows)), (rows, cols),
                   (layout.nvar, layout.nvar))
    full = Hd + Hd.T - np.diag(np.diag(Hd))
    np.testing.assert_allclose(full, full.T)


# --- compiled maps ----------------------------------------------------------

OUTAGES = [None, "L2", "T1", "G2"]


@pytest.mark.parametrize("outaged", OUTAGES)
def test_flows_match_the_branch_oracle(net5, rng, outaged):
    # the side-voltage and angle gather against one branch at a time
    layout = CaseLayout(net5, outaged)
    for _ in range(5):
        state = random_state(net5, rng)
        flows = layout.flow_values(layout.pack(state))
        assert flows.shape == (len(layout.in_service), 4)
        for j, (_, br) in enumerate(layout.in_service):
            o, d = net5.bus_index(br.origin), net5.bus_index(br.destination)
            want = acpf.branch_flows(br, state.v[o], state.v[d],
                                     state.theta[o], state.theta[d])
            np.testing.assert_allclose(flows[j], want, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("outaged", OUTAGES)
def test_balance_scatter_map_is_the_incidence(net5, outaged):
    # the balance is the bus terms plus a dense incidence matrix, built from
    # the network records, times the columns from p0 on: +1 for a generator
    # output and -1 for a flow, in its bus's P or Q row
    layout = CaseLayout(net5, outaged)
    nb, na = layout.nb, len(layout.gens)
    C = np.zeros((2 * nb, layout.nvar - layout.p0))
    for j, (_, g) in enumerate(layout.avail_gens):
        bus = net5.bus_index(g.bus)
        C[bus, j] = C[nb + bus, na + j] = 1.0
    for j, (_, br) in enumerate(layout.in_service):
        for side, end in ((0, br.origin), (2, br.destination)):
            col, bus = 2 * na + 4 * j + side, net5.bus_index(end)
            C[bus, col] = C[nb + bus, col + 1] = -1.0
    x = np.zeros(layout.nvar)
    x[layout.v0:layout.th0] = 1.0
    x[layout.p0:] = np.arange(1, layout.nvar - layout.p0 + 1)
    pq_bus = np.concatenate((-layout.p_load - layout.g_fs,
                             -layout.q_load + layout.b_fs))
    np.testing.assert_allclose(layout.balance(x) - pq_bus,
                               C @ x[layout.p0:], rtol=1e-15, atol=1e-12)


@pytest.mark.parametrize("outaged", OUTAGES)
def test_jacobian_head_is_the_leading_entries(net5, rng, outaged):
    layout = CaseLayout(net5, outaged)
    x = layout.pack(random_state(net5, rng))
    full = layout.jac_values(x)
    assert len(full) == len(layout.jac_pattern()[0])
    np.testing.assert_array_equal(layout.jac_head(x), full[:layout.n_jac_head])
    # the branch terms of x, T among them, give the same bits passed in
    terms = layout.branch_terms(x)
    np.testing.assert_array_equal(layout.flow_values(x), layout.flow_values(x, terms))
    np.testing.assert_array_equal(layout.jac_head(x), layout.jac_head(x, terms))
    # the head reads no flow column; the balance entries of the generator
    # outputs (in the head) and of the flows (after it) are constants
    rows, cols = layout.jac_pattern()
    assert cols[:layout.n_jac_head].max() < layout.fl0
    bal = (rows >= 4 * layout.m) & (rows < 4 * layout.m + 2 * layout.nb) \
        & (cols >= layout.p0)
    np.testing.assert_array_equal(full[bal], np.where(cols[bal] < layout.fl0, 1.0, -1.0))
