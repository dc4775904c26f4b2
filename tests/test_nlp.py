import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from scacopf import nlp
from scacopf.nlp import NlpProblem, solve_nlp, solve_square
from conftest import five_bus_net


def dense_problem(n, f, g, H, x0, lb=None, ub=None, A_eq=None, b_eq=None,
                  c_ineq=None, J_ineq=None, H_constr=None):
    """Wrap dense callables/matrices as an NlpProblem."""
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, float)
    if A_eq is None:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    A_eq = np.asarray(A_eq, float)
    b_eq = np.asarray(b_eq, float)
    me = A_eq.shape[0]
    mi = 0 if c_ineq is None else len(c_ineq(np.asarray(x0, float)))

    def hess(x, sf, le, li):
        M = sf * np.asarray(H(x), float)
        if H_constr is not None:
            M = M + H_constr(x, le, li)
        return sparse.coo_matrix(np.tril(M))

    return NlpProblem(
        n=n, x0=np.asarray(x0, float), lb=lb, ub=ub,
        objective=lambda x: float(f(x)),
        gradient=lambda x: np.asarray(g(x), float),
        eq=lambda x: A_eq @ x - b_eq,
        ineq=(lambda x: np.asarray(c_ineq(x), float)) if mi else (lambda x: np.zeros(0)),
        jac_eq=lambda x: sparse.coo_matrix(A_eq),
        jac_ineq=(lambda x: sparse.coo_matrix(np.asarray(J_ineq(x), float)))
        if mi else (lambda x: sparse.coo_matrix((0, n))),
        hess=hess,
        n_eq=me, n_ineq=mi,
    )


def test_interior_optimum_bound_inactive():
    prob = dense_problem(
        1, lambda x: (x[0] - 2) ** 2, lambda x: [2 * (x[0] - 2)],
        lambda x: [[2.0]], [1.5], lb=[1.0])
    sol = solve_nlp(prob)
    assert sol.status == nlp.OPTIMAL
    assert sol.x[0] == pytest.approx(2.0, abs=1e-6)
    assert sol.z_lower[0] == pytest.approx(0.0, abs=1e-5)


def test_active_bound_multiplier():
    prob = dense_problem(
        1, lambda x: x[0] ** 2, lambda x: [2 * x[0]],
        lambda x: [[2.0]], [1.5], lb=[1.0])
    sol = solve_nlp(prob)
    assert sol.status == nlp.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.z_lower[0] == pytest.approx(2.0, abs=1e-4)


def test_inequality_constraint():
    # min x^2 + y^2 s.t. x + y >= 1  ->  x = y = 1/2, multiplier 1
    prob = dense_problem(
        2, lambda x: x @ x, lambda x: 2 * x, lambda x: 2 * np.eye(2),
        [0.0, 0.0],
        c_ineq=lambda x: [1.0 - x[0] - x[1]],
        J_ineq=lambda x: [[-1.0, -1.0]])
    sol = solve_nlp(prob)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-6)
    assert sol.lambda_ineq[0] == pytest.approx(1.0, abs=1e-4)


def qp_kkt_oracle(Q, c, A, b):
    """Closed-form solution of min .5 x'Qx + c'x s.t. Ax = b."""
    n, m = Q.shape[0], A.shape[0]
    K = np.block([[Q, A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([-c, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


@pytest.mark.parametrize("seed", range(5))
def test_equality_qp_suite_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    n, m = 6, 2
    B = rng.normal(size=(n, n))
    Q = B @ B.T + n * np.eye(n)
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    x_ref, y_ref = qp_kkt_oracle(Q, c, A, b)
    prob = dense_problem(
        n, lambda x: 0.5 * x @ Q @ x + c @ x, lambda x: Q @ x + c,
        lambda x: Q, np.zeros(n), A_eq=A, b_eq=b)
    sol = solve_nlp(prob)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)


def test_bound_constrained_qp_matches_projection():
    # separable QP: min sum (x_i - z_i)^2, 0 <= x <= 1: solution is clamp(z)
    z = np.array([-0.5, 0.3, 1.7, 0.9])
    prob = dense_problem(
        4, lambda x: np.sum((x - z) ** 2), lambda x: 2 * (x - z),
        lambda x: 2 * np.eye(4), np.full(4, 0.5),
        lb=np.zeros(4), ub=np.ones(4))
    sol = solve_nlp(prob, tol=1e-8)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x, np.clip(z, 0, 1), atol=1e-6)


def test_multiplier_signs_nonnegative():
    prob = dense_problem(
        2, lambda x: x @ x, lambda x: 2 * x, lambda x: 2 * np.eye(2),
        [2.0, 2.0], lb=[1.0, -np.inf], ub=[np.inf, 3.0],
        c_ineq=lambda x: [1.0 - x[1]], J_ineq=lambda x: [[0.0, -1.0]])
    sol = solve_nlp(prob)
    assert sol.status == nlp.OPTIMAL
    assert np.all(sol.lambda_ineq >= 0)
    assert np.all(sol.z_lower >= 0)
    assert np.all(sol.z_upper >= 0)


def rosenbrock_problem(x0):
    """Rosenbrock's function in the box [-2, 2]^2."""
    def f(x):
        return 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2

    def g(x):
        return np.array([-400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                         200 * (x[1] - x[0] ** 2)])

    def H(x):
        return np.array([[1200 * x[0] ** 2 - 400 * x[1] + 2, -400 * x[0]],
                         [-400 * x[0], 200.0]])

    return dense_problem(2, f, g, H, x0, lb=[-2, -2], ub=[2, 2])


def test_nonconvex_objective_converges():
    prob = rosenbrock_problem([-1.2, 1.0])
    sol = solve_nlp(prob, max_iter=200)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-5)


def test_log_records_inertia_correction():
    # the Hessian is indefinite at (0, 1)
    prob = rosenbrock_problem([0.0, 1.0])
    records = []
    sol = solve_nlp(prob, max_iter=200, log=records.append)
    assert sol.status == nlp.OPTIMAL
    assert [r["iteration"] for r in records] == \
        list(range(1, sol.iterations + 1))
    assert set(records[0]) == {
        "iteration", "objective", "kkt_error", "mu", "delta_w", "delta_c",
        "factor_attempts", "alpha_primal", "alpha_dual"}
    assert any(r["delta_w"] > 0 and r["factor_attempts"] > 1
               for r in records)


def test_determinism():
    rng = np.random.default_rng(3)
    Q = np.diag(rng.uniform(1, 3, 5))
    c = rng.normal(size=5)
    make = lambda: dense_problem(
        5, lambda x: 0.5 * x @ Q @ x + c @ x, lambda x: Q @ x + c,
        lambda x: Q, np.zeros(5), lb=np.full(5, -0.2), ub=np.full(5, 0.2))
    s1 = solve_nlp(make())
    s2 = solve_nlp(make())
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations
    assert s1.objective == s2.objective


def test_max_iter_status_returns_best():
    prob = rosenbrock_problem([-1.2, 1.0])
    sol = solve_nlp(prob, max_iter=2)
    assert sol.status == nlp.MAX_ITER
    assert np.all(np.isfinite(sol.x))


def maratos_problem():
    """min 2(x1^2 + x2^2 - 1) - x1 s.t. x1^2 + x2^2 = 1, optimum (1, 0): a
    full step from near the circle raises the constraint violation at second
    order (the Maratos effect)."""
    def hess(x, sf, le, li):
        return sparse.coo_matrix((4.0 * sf + 2.0 * le[0]) * np.eye(2))

    return NlpProblem(
        n=2, x0=np.array([math.cos(0.2), math.sin(0.2)]),
        lb=np.full(2, -np.inf), ub=np.full(2, np.inf),
        objective=lambda x: 2.0 * (x @ x - 1.0) - x[0],
        gradient=lambda x: 4.0 * x - np.array([1.0, 0.0]),
        eq=lambda x: np.array([x @ x - 1.0]),
        ineq=lambda x: np.zeros(0),
        jac_eq=lambda x: sparse.coo_matrix(2.0 * x[None, :]),
        jac_ineq=lambda x: sparse.coo_matrix((0, 2)),
        hess=hess, n_eq=1, n_ineq=0)


def test_maratos_full_steps():
    # the second-order correction lets every step after the first be full
    records = []
    sol = solve_nlp(maratos_problem(), tol=1e-10, log=records.append)
    assert sol.status == nlp.OPTIMAL
    assert sol.iterations <= 8
    assert [r["alpha_primal"] for r in records[1:]] == [1.0] * (len(records) - 1)
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-8)


def test_filter_restarts_at_each_barrier_parameter():
    # min 0.004 (x + y) s.t. x^2 + y^2 = 1, x >= -0.5, y >= 0, and a third
    # variable in [-10, 10] that the objective ignores: its barrier terms
    # raise the barrier objective of every point whenever mu falls, so a
    # filter kept from an earlier mu would bar the steps along the circle
    def hess(x, sf, le, li):
        return sparse.coo_matrix(np.diag([2.0 * le[0], 2.0 * le[0], 0.0]))

    c = np.array([0.004, 0.004, 0.0])
    prob = NlpProblem(
        n=3, x0=np.array([-1.5, 0.0, 0.0]),
        lb=np.array([-0.5, 0.0, -10.0]), ub=np.array([np.inf, np.inf, 10.0]),
        objective=lambda x: float(c @ x), gradient=lambda x: c.copy(),
        eq=lambda x: np.array([x[:2] @ x[:2] - 1.0]),
        ineq=lambda x: np.zeros(0),
        jac_eq=lambda x: sparse.coo_matrix([[2.0 * x[0], 2.0 * x[1], 0.0]]),
        jac_ineq=lambda x: sparse.coo_matrix((0, 3)),
        hess=hess, n_eq=1, n_ineq=0)
    sol = solve_nlp(prob, tol=1e-8, max_iter=100)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x[:2], [-0.5, math.sqrt(0.75)], atol=1e-6)


def test_iterate_on_a_bound_is_released():
    # min -0.08 x + 0.06 y s.t. x^2 + y^2 = 1, x, y >= -0.5, from
    # (-1.2, -0.6): every step pushes the iterate into the corner
    # (-0.5, -0.5) until its gaps to the bounds round to nothing.  Moving
    # such a bound out by eps^(3/4) (Waechter & Biegler 2006, Sec. 3.5)
    # keeps the barrier finite and every step nonzero.  The corner is a
    # local minimizer of the constraint violation within the bounds, so
    # without a restoration phase the solve still ends there.
    c = np.array([-0.08, 0.06])
    prob = NlpProblem(
        n=2, x0=np.array([-1.2, -0.6]), lb=np.full(2, -0.5), ub=np.full(2, np.inf),
        objective=lambda x: float(c @ x), gradient=lambda x: c.copy(),
        eq=lambda x: np.array([x @ x - 1.0]), ineq=lambda x: np.zeros(0),
        jac_eq=lambda x: sparse.coo_matrix(2.0 * x[None, :]),
        jac_ineq=lambda x: sparse.coo_matrix((0, 2)),
        hess=lambda x, sf, le, li: sparse.coo_matrix(2.0 * le[0] * np.eye(2)),
        n_eq=1, n_ineq=0)
    records = []
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        solve_nlp(prob, tol=1e-8, log=records.append)
    assert len(records) > 10
    assert all(r["alpha_primal"] > 0.0 for r in records[1:])


def nan_off_x0_problem(x0):
    """min (x - 3)^2 with objective and gradient nan everywhere but x0."""
    def only_at_x0(value):
        return lambda x: value(x) if np.array_equal(x, x0) else np.nan * value(x)

    return dense_problem(1, only_at_x0(lambda x: (x[0] - 3.0) ** 2),
                         only_at_x0(lambda x: 2.0 * (x - 3.0)),
                         lambda x: [[2.0]], x0)


def test_line_search_out_of_trials_returns_best():
    # objective and gradient are nan everywhere but x0: every trial point is
    # rejected, the fraction-to-boundary step is taken, and the next
    # iterate's nan step ends the solve at the best point, x0
    x0 = np.array([0.5])
    prob = nan_off_x0_problem(x0)
    records = []
    sol = solve_nlp(prob, log=records.append)
    assert sol.status != nlp.OPTIMAL
    assert records[1]["alpha_primal"] == 1.0
    np.testing.assert_array_equal(sol.x, x0)


@pytest.mark.parametrize("problem", ["base", "ctg", "master", "maratos", "nan-off-x0"])
def test_objective_and_constraints_run_once_per_point(net5, problem):
    # the values at the accepted trial point (a backtracking trial, a
    # second-order correction, or trial 0 when the trials run out) are the
    # next iterate's; only the returned point is evaluated again, when it is
    # not the last iterate (the best one, or the last one clipped)
    if problem == "maratos":
        prob = maratos_problem()
    elif problem == "nan-off-x0":
        prob = nan_off_x0_problem(np.array([0.5]))
    else:
        prob = scopf_problems(net5)[problem]
    points = {"objective": [], "eq": [], "ineq": []}
    for name, seen in points.items():
        fun = getattr(prob, name)
        setattr(prob, name, lambda x, fun=fun, seen=seen: seen.append(x.tobytes()) or fun(x))
    records = []
    sol = solve_nlp(prob, tol=1e-8, log=records.append)
    assert len(points["objective"]) > len(records) > 1
    for name, seen in points.items():
        repeated = {x for x in seen if seen.count(x) > 1}
        assert repeated <= {sol.x.tobytes()}, name
        assert all(seen.count(x) <= 2 for x in repeated), name


# --- square systems ----------------------------------------------------------

def test_scalar_newton():
    res = solve_square(lambda x: np.array([x[0] ** 2 - 4]),
                       lambda x: np.array([[2 * x[0]]]), [3.0])
    assert res.status == nlp.SOLVED
    assert res.x[0] == pytest.approx(2.0, abs=1e-8)


def test_linear_system_one_step():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=4)
    res = solve_square(lambda x: A @ x - b, lambda x: A, np.zeros(4))
    assert res.status == nlp.SOLVED
    assert res.iterations == 1
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-10)


def test_square_sparse_jacobian_never_densified(monkeypatch):
    # a sparse Jacobian is factored as it is, in the Newton step and in
    # the Levenberg fallback (the second system is singular); densifying
    # any CSC or CSR matrix inside the solve fails the test
    rng = np.random.default_rng(3)
    A = (sparse.random(30, 30, density=0.1, random_state=4) + 4 * sparse.eye(30)).tocsc()
    b = rng.normal(size=30)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("solve_square densified a sparse matrix")

    for cls in (sparse.csc_matrix, sparse.csr_matrix):
        monkeypatch.setattr(cls, "toarray", forbidden)
        monkeypatch.setattr(cls, "todense", forbidden)
    res = solve_square(lambda x: A @ x - b, lambda x: A, np.zeros(30))
    assert res.status == nlp.SOLVED
    np.testing.assert_allclose(A @ res.x, b, atol=1e-8)

    def fun(x):
        r = x[0] ** 2 + x[1] - 3.0
        return np.array([r, r])

    res = solve_square(fun, lambda x: sparse.csc_matrix(
        [[2 * x[0], 1.0], [2 * x[0], 1.0]]), [1.0, 1.0])
    assert np.max(np.abs(fun(res.x))) <= 1e-8


def build_ybus(net):
    nb = len(net.buses)
    Y = np.zeros((nb, nb), complex)
    for e in net.lines:
        o, d = net.bus_index(e.origin), net.bus_index(e.destination)
        y = e.g + 1j * e.b
        Y[o, o] += y + 1j * e.b_ch / 2
        Y[d, d] += y + 1j * e.b_ch / 2
        Y[o, d] -= y
        Y[d, o] -= y
    for f in net.transformers:
        o, d = net.bus_index(f.origin), net.bus_index(f.destination)
        y = f.g + 1j * f.b
        Y[o, o] += y / f.tau ** 2 + (f.g_mag + 1j * f.b_mag)
        Y[d, d] += y
        Y[o, d] -= y / f.tau * np.exp(1j * f.theta_shift)
        Y[d, o] -= y / f.tau * np.exp(-1j * f.theta_shift)
    for i, bus in enumerate(net.buses):
        Y[i, i] += bus.g_fs + 1j * bus.b_fs
    return Y


def gauss_seidel_oracle(net, injections, slack=0, iters=20000, tol=1e-12):
    """Independent complex-voltage Gauss-Seidel power-flow solve."""
    Y = build_ybus(net)
    nb = len(net.buses)
    V = np.ones(nb, complex)
    S = np.asarray(injections, complex)
    for _ in range(iters):
        max_dv = 0.0
        for i in range(nb):
            if i == slack:
                continue
            s = Y[i] @ V - Y[i, i] * V[i]
            Vn = (np.conj(S[i] / V[i]) - s) / Y[i, i]
            max_dv = max(max_dv, abs(Vn - V[i]))
            V[i] = Vn
        if max_dv < tol:
            break
    return V


def five_bus_powerflow_system(net, injections, slack=0):
    """Mismatch equations in (v, theta) for non-slack buses of net5."""
    from scacopf import acpf
    nb = len(net.buses)
    free = [i for i in range(nb) if i != slack]

    def unpack(z):
        v = np.ones(nb)
        th = np.zeros(nb)
        v[free] = z[:len(free)]
        th[free] = z[len(free):]
        return v, th

    def mismatch(z):
        v, th = unpack(z)
        p = injections.real.copy()
        q = injections.imag.copy()
        for i, bus in enumerate(net.buses):
            p[i] -= bus.g_fs * v[i] ** 2
            q[i] += bus.b_fs * v[i] ** 2
        for br in net.branches:
            o, d = net.bus_index(br.origin), net.bus_index(br.destination)
            p_o, q_o, p_d, q_d = acpf.branch_flows(br, v[o], v[d], th[o], th[d])
            p[o] -= p_o
            q[o] -= q_o
            p[d] -= p_d
            q[d] -= q_d
        return np.concatenate([p[free], q[free]])

    def jac(z, h=1e-7):
        z = np.asarray(z, float)
        J = np.zeros((z.size, z.size))
        for j in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            J[:, j] = (mismatch(zp) - mismatch(zm)) / (2 * h)
        return J

    return mismatch, jac, free


def test_power_flow_matches_gauss_seidel():
    net = five_bus_net(with_contingencies=False)
    nb = len(net.buses)
    inj = np.zeros(nb, complex)
    for i, bus in enumerate(net.buses):
        inj[i] -= bus.p_load + 1j * bus.q_load
    # modest fixed injection at the G2 bus; B1 is the slack
    inj[net.bus_index("B3")] += 0.4 + 0.1j
    V_ref = gauss_seidel_oracle(net, inj, slack=0)

    mismatch, jac, free = five_bus_powerflow_system(net, inj, slack=0)
    z0 = np.concatenate([np.ones(len(free)), np.zeros(len(free))])
    res = solve_square(mismatch, jac, z0, tol=1e-10)
    assert res.status == nlp.SOLVED
    v_sol = res.x[:len(free)]
    th_sol = res.x[len(free):]
    np.testing.assert_allclose(v_sol, np.abs(V_ref)[free], atol=1e-8)
    ref_angle = np.angle(V_ref) - np.angle(V_ref[0])
    np.testing.assert_allclose(th_sol, ref_angle[free], atol=1e-8)


def test_row_scaling_invariance():
    net = five_bus_net(with_contingencies=False)
    nb = len(net.buses)
    inj = np.zeros(nb, complex)
    for i, bus in enumerate(net.buses):
        inj[i] -= bus.p_load + 1j * bus.q_load
    inj[net.bus_index("B3")] += 0.4 + 0.1j
    mismatch, jac, free = five_bus_powerflow_system(net, inj, slack=0)
    z0 = np.concatenate([np.ones(len(free)), np.zeros(len(free))])
    scale = np.linspace(0.5, 7.0, 2 * len(free))
    res1 = solve_square(mismatch, jac, z0, tol=1e-10)
    res2 = solve_square(lambda z: scale * mismatch(z),
                        lambda z: scale[:, None] * jac(z), z0, tol=1e-10)
    assert res1.status == res2.status == nlp.SOLVED
    np.testing.assert_allclose(res1.x, res2.x, atol=1e-8)


def test_singular_jacobian_regularization():
    # duplicated consistent equations: plain solve fails, fallback succeeds
    def fun(x):
        r = x[0] ** 2 + x[1] - 3.0
        return np.array([r, r])

    def jac(x):
        return np.array([[2 * x[0], 1.0], [2 * x[0], 1.0]])

    res = solve_square(fun, jac, [1.0, 1.0])
    assert np.max(np.abs(fun(res.x))) <= 1e-8


def test_singular_dense_pattern_jacobian_regularization(monkeypatch):
    # the dense twin of the test above: a (pattern, vals) Jacobian below the
    # size limit factors densely, an exactly singular one has no LU, and the
    # Levenberg fallback converges without any SuperLU call
    def fun(x):
        r = x[0] ** 2 + x[1] - 3.0
        return np.array([r, r])

    pattern = nlp._DenseLuPattern([0, 0, 1, 1], [0, 1, 0, 1], 2)
    assert pattern.n <= nlp.DENSE_LU_MAX

    def jac(x):
        return pattern, np.array([2 * x[0], 1.0, 2 * x[0], 1.0])

    A, lu, pos = pattern.lu(jac([1.0, 1.0])[1])
    assert lu is None
    np.testing.assert_array_equal(A, [[2.0, 1.0], [2.0, 1.0]])

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense Jacobian went to SuperLU")

    monkeypatch.setattr(nlp, "_splu", forbidden)
    res = solve_square(fun, jac, [1.0, 1.0])
    assert res.iterations >= 1
    assert np.max(np.abs(fun(res.x))) <= 1e-8


def saddle_inertia_ok(W, J, d):
    """Oracle: does [[W, J'], [J, -diag(d)]] have n positive and m negative
    eigenvalues?"""
    n, m = W.shape[0], J.shape[0]
    K = np.block([[W, J.T], [J, -np.diag(d)]])
    ev = np.linalg.eigvalsh(K)
    return int(np.sum(ev > 0)) == n and int(np.sum(ev < 0)) == m


def kkt_inertia_ok(W, J, d, verdict="inertia_ok"):
    """`_Kkt.inertia_ok` on the saddle-point matrix of dense W, J and d,
    built from W's lower triangle as `solve_nlp` builds it; or, with
    verdict="quasi_definite", whether the quasi-definite LU shows its
    inertia."""
    Hl = sparse.tril(sparse.csc_matrix(W), format="csc")
    J = sparse.csr_matrix(sparse.csc_matrix(J))
    out = getattr(nlp._Kkt(Hl, J), verdict)(Hl.data, np.zeros(W.shape[0]), J.data, d)
    return out[2] if verdict == "quasi_definite" else out


def test_inertia_counting_matches_eigvals():
    # the positive-definiteness test of the condensed matrix must agree with
    # the eigenvalues of the saddle-point matrix, on both sides of the
    # boundary where the condensed matrix becomes singular; the
    # quasi-definite LU's verdict never accepts an inertia they reject
    rng = np.random.default_rng(11)
    seen, qd_seen = set(), []
    for trial in range(60):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(0, n + 3))
        A = rng.normal(size=(n, n))
        W = (A + A.T) / 2  # indefinite
        J = rng.normal(size=(m, n))
        if trial % 2 and m >= 2:
            J[1:] = rng.normal(size=(m - 1, 1)) * J[0]  # rank one
        d = rng.uniform(1e-3, 1.0, m)
        P = W + J.T @ (J / d[:, None])
        lam = np.linalg.eigvalsh(P)
        margin = 1e-3 * max(1.0, float(np.max(np.abs(lam))))
        for shift in (-lam[0] - margin, -lam[0] + margin, 0.0):
            Ws = W + shift * np.eye(n)
            expected = saddle_inertia_ok(Ws, J, d)
            got = kkt_inertia_ok(Ws, J, d)
            assert got == expected, (trial, shift)
            seen.add(expected)
            qd = kkt_inertia_ok(Ws, J, d, "quasi_definite")
            assert expected or not qd, (trial, shift)
            qd_seen.append(qd)
    assert seen == {True, False}
    assert any(qd_seen)


@pytest.mark.parametrize("W", [[[0.0, 1.0], [1.0, 0.0]],   # zero diagonal
                               [[0.0, 0.0], [0.0, 0.0]],   # singular
                               [[1.0, 2.0], [2.0, 1.0]]])  # indefinite
def test_inertia_test_rejects_indefinite_condensed_matrix(W):
    W = np.array(W)
    J = np.zeros((0, 2))
    assert not saddle_inertia_ok(W, J, np.zeros(0))
    assert not kkt_inertia_ok(W, J, np.zeros(0))


def test_rank_deficient_equalities_use_dual_regularization():
    # a duplicated equality row makes the KKT matrix exactly singular, so the
    # solver must regularize the dual block (delta_c) to make progress
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    z = np.array([1.0, 2.0, 0.0])
    prob = dense_problem(
        3, lambda x: np.sum((x - z) ** 2), lambda x: 2 * (x - z),
        lambda x: 2 * np.eye(3), np.zeros(3), A_eq=A, b_eq=[1.0, 1.0])
    records = []
    sol = solve_nlp(prob, log=records.append)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x, z - (z.sum() - 1.0) / 3, atol=1e-6)
    assert any(r["delta_c"] > 0 for r in records)


def scopf_problems(net):
    """Base, contingency (CL2) and master problems of `net` at their start
    points."""
    from scacopf import scopf
    from scacopf.compl import init_default

    base = scopf.build_base_problem(net)
    point = base.meta.extract_base(base.x0)
    k = net.contingency("CL2")
    state = init_default(net, k)
    spec = scopf.MasterSpec(net=net, included=("CL2",), compl={"CL2": state},
                            base_point=point)
    return {"base": base,
            "ctg": scopf.build_contingency_problem(net, k, point, state),
            "master": scopf.build_master_problem(spec)}


def max_rel_diff(A, B):
    diff = (sparse.csc_matrix(A) - B).tocoo()
    return np.max(np.abs(diff.data), initial=0.0) / np.max(np.abs(B.data))


@pytest.mark.parametrize("kind", ["base", "ctg", "master"])
def test_kkt_matches_reference_assembly(net5, kind):
    # the compiled quasi-definite matrix, K and Schur complement P equal the
    # sparse-algebra assembly, before and after the first factorizations
    # bake their orderings in (the quasi-definite matrix and P on rows and
    # columns, K on columns); the quasi-definite LU, refined against its
    # matrix, solves like an LU of the reference quasi-definite matrix, and
    # the step of an attempt equals the step of an LU of the reference K
    # (on these random values, with condition numbers of 1e9-1e10, the
    # quasi-definite step misses the residual gate and K's own LU gives it)
    prob = scopf_problems(net5)[kind]
    rng = np.random.default_rng(5)
    lo = np.where(np.isfinite(prob.lb), prob.lb, prob.x0 - 1.0)
    hi = np.where(np.isfinite(prob.ub), prob.ub, prob.x0 + 1.0)
    me = prob.n_eq
    for x in (prob.x0, lo + rng.uniform(0.05, 0.95, prob.n) * (hi - lo)):
        y = rng.normal(size=me)
        w = rng.uniform(0.1, 2.0, prob.n_ineq)
        Hl = prob.hess(x, 1.0, y, w).tocsc()
        J = nlp._row_stack(prob.jac_eq(x).tocsr(), prob.jac_ineq(x).tocsr())
        kkt = nlp._Kkt(Hl, J)
        for _ in range(2):
            for dc in (0.0, 1e-8):
                w_diag = rng.uniform(0.0, 10.0, prob.n) + 1e-4
                t = rng.uniform(0.01, 1.0, prob.n_ineq)
                d = np.concatenate([np.full(me, dc), t / w + dc])
                d_test = np.concatenate([np.full(me, dc or 1e-8), t / w + dc])
                W = Hl + Hl.T - sparse.diags(Hl.diagonal()) + sparse.diags(w_diag)
                K_ref = sparse.bmat([[W, J.T], [J, -sparse.diags(d)]], format="csc")
                Q_ref = sparse.bmat([[W, J.T], [J, -sparse.diags(d_test)]], format="csc")
                P_ref = (W + J.T @ sparse.diags(1.0 / d_test) @ J).tocsc()

                p_pos = kkt.P.pos if kkt.P.pos is not None else np.arange(prob.n)
                P = kkt.P.pattern.matrix(kkt.schur(Hl.data, w_diag, J.data, d_test))
                assert max_rel_diff(P[p_pos][:, p_pos], P_ref) <= 1e-14
                kkt.inertia_ok(Hl.data, w_diag, J.data, d_test)

                q_pos = kkt.Q.pos if kkt.Q.pos is not None else np.arange(K_ref.shape[0])
                Q = kkt.Q.pattern.matrix(kkt.values(Hl.data, w_diag, J.data, d_test))
                assert max_rel_diff(Q[q_pos][:, q_pos], Q_ref) <= 1e-14

                k_pos = kkt.K.pos if kkt.K.pos is not None else np.arange(K_ref.shape[0])
                K = kkt.K.pattern.matrix(kkt.values(Hl.data, w_diag, J.data, d))
                assert max_rel_diff(K[:, k_pos], K_ref) <= 1e-14
                rhs = rng.normal(size=K_ref.shape[0])
                lu, pos, _ = kkt.quasi_definite(Hl.data, w_diag, J.data, d_test)
                Q = kkt.Q.pattern.matrix(kkt.values(Hl.data, w_diag, J.data, d_test))
                b = np.empty_like(rhs)
                b[pos] = rhs
                ref = splu(Q_ref).solve(rhs)
                step = nlp._refined_solve(Q, lu, b)[pos]
                assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))
                step = kkt.factor(Hl.data, w_diag, J.data, d, d_test)(rhs)
                ref = splu(K_ref).solve(rhs)
                assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))
        # the orderings of the patterns that were factored are baked in, and
        # are not the identity
        assert kkt.Q.pos is not None and kkt.P.pos is not None
        for pattern in (kkt.Q, kkt.P, kkt.K):
            if pattern.pos is not None:
                assert np.any(pattern.pos != np.arange(len(pattern.pos)))


def test_one_lu_per_attempt(net5, monkeypatch):
    # base, contingency and master solves make one LU per inertia-correction
    # attempt, of the quasi-definite matrix, plus the first LU of each
    # pattern, which finds its ordering.  The Schur complement's test runs
    # at most once a solve (at the last attempt of the base and master
    # solves that LU pivots off the diagonal), and K's own LU never; the
    # counts of the solution agree
    calls = []

    def spy(A, permc_spec, symmetric=False):
        calls.append((permc_spec, symmetric))
        return splu_tuned(A, permc_spec, symmetric)

    splu_tuned = nlp._splu
    monkeypatch.setattr(nlp, "_splu", spy)
    for kind, prob in scopf_problems(net5).items():
        calls.clear()
        records = []
        sol = solve_nlp(prob, tol=1e-8, log=records.append)
        assert sol.status == nlp.OPTIMAL, kind
        attempts = sum(r["factor_attempts"] for r in records)
        assert attempts >= sol.iterations - 1 > 1, kind
        assert sol.p_tests <= 1 and sol.colamd_steps == 0, kind
        assert set(calls) <= {("MMD_AT_PLUS_A", True), ("NATURAL", True)}, kind
        assert calls.count(("MMD_AT_PLUS_A", True)) == 1 + (sol.p_tests > 0), kind
        assert calls.count(("NATURAL", True)) == attempts + sol.p_tests, kind
        assert len(calls) == sol.lus, kind


def test_kkt_pattern_compiled_once(net5, monkeypatch):
    compiled = []
    init = nlp._Kkt.__init__

    def spy(self, Hl, J):
        compiled.append(Hl.nnz)
        init(self, Hl, J)

    monkeypatch.setattr(nlp._Kkt, "__init__", spy)
    for kind, prob in scopf_problems(net5).items():
        compiled.clear()
        sol = solve_nlp(prob, tol=1e-8)
        assert sol.iterations > 1, kind
        assert len(compiled) == 1, kind

    # f = (x0 - 1)^2 + (x1 + 1)^2 + x0 max(x1, 0)^2 / 2: the mixed Hessian
    # entry max(x1, 0) is exactly 0 once x1 < 0, where a COO matrix from a
    # dense array drops it, so the pattern changes between iterates
    def f(x):
        return (x[0] - 1) ** 2 + (x[1] + 1) ** 2 + x[0] * max(x[1], 0.0) ** 2 / 2

    def g(x):
        s = max(x[1], 0.0)
        return np.array([2 * (x[0] - 1) + s ** 2 / 2, 2 * (x[1] + 1) + x[0] * s])

    def H(x):
        s = max(x[1], 0.0)
        return np.array([[2.0, s], [s, 2.0 + (x[0] if x[1] > 0 else 0.0)]])

    prob = dense_problem(2, f, g, H, [0.5, 1.0], lb=[-2.0, -2.0], ub=[2.0, 2.0])
    compiled.clear()
    sol = solve_nlp(prob)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, -1.0], atol=1e-6)
    assert compiled[:2] == [3, 2]


def test_every_superlu_call_is_tuned(net5, monkeypatch):
    # base, contingency and master solves and a fast evaluation on SuperLU
    # factor with unrelaxed supernodes and one-column panels
    from scacopf import eval as ev
    from scacopf.scopf import default_start

    calls = []

    def spy(A, **kw):
        calls.append(kw)
        return splu(A, **kw)

    monkeypatch.setattr(nlp, "splu", spy)
    for kind, prob in scopf_problems(net5).items():
        solve_nlp(prob, tol=1e-8)
        assert calls, kind
    n_nlp = len(calls)
    # net5's square systems are below the dense-LU limit; with the limit at 0
    # the fast evaluation factors them with SuperLU
    ev.fast_evaluate(net5, net5.contingencies[0], default_start(net5))
    assert len(calls) == n_nlp
    monkeypatch.setattr(nlp, "DENSE_LU_MAX", 0)
    ev.fast_evaluate(five_bus_net(), net5.contingencies[0], default_start(net5))
    assert len(calls) > n_nlp
    assert all((kw["relax"], kw["panel_size"]) == (1, 1) for kw in calls)


def random_pattern(symmetric, n=40, seed=7):
    """(rows, cols, value sets) of a raw n x n pattern with repeated entries:
    a random sparse C plus a diagonal, or C + C' plus a dominant positive
    diagonal, which is SPD."""
    rng = np.random.default_rng(seed)
    r, c = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
    if symmetric:
        r, c = np.concatenate((r, c)), np.concatenate((c, r))
    vals = []
    for _ in range(3):
        v = rng.uniform(-1.0, 1.0, 3 * n)
        d = rng.uniform(1.0, 2.0, n)
        if symmetric:
            v = np.concatenate((v, v))
            d += np.bincount(r, np.abs(v), n)
        vals.append(np.concatenate((v, d)))
    diag = np.arange(n)
    return np.concatenate((r, diag)), np.concatenate((c, diag)), vals


@pytest.mark.parametrize("ordering, symmetric", [("COLAMD", False),
                                                 ("MMD_AT_PLUS_A", False),
                                                 ("MMD_AT_PLUS_A", True),
                                                 ("DENSE", False)])
def test_lu_pattern_solves_like_splu_of_the_matrix(ordering, symmetric):
    # the first LU bakes the ordering in; it and every later natural-order LU
    # of the pre-permuted matrix solve like an LU of the matrix itself; the
    # dense factorizer keeps the natural order
    rows, cols, vals = random_pattern(symmetric)
    n = 40
    pattern = (nlp._DenseLuPattern(rows, cols, n) if ordering == "DENSE" else
               nlp._LuPattern(rows, cols, n, ordering, symmetric=symmetric))
    rng = np.random.default_rng(1)
    for v in vals:
        M = sparse.csc_matrix((v, (rows, cols)), shape=(n, n))
        A, lu, pos = pattern.lu(v)
        assert max_rel_diff(A[pos][:, pos] if symmetric else A[:, pos], M) <= 1e-15
        b = rng.normal(size=n)
        rhs = b
        if symmetric:
            rhs = np.empty(n)
            rhs[pos] = b
            assert np.array_equal(lu.perm_r, lu.perm_c)
        ref = splu(M).solve(b)
        x = lu.solve(rhs)[pos]
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.any(pattern.pos != np.arange(n)) == (ordering != "DENSE")


# --- the start and the end of a solve ----------------------------------------

def dense_qp(seed=5, n=6):
    """A strictly convex QP with one equality, two inequalities and finite
    bounds on every variable, some of them active at the optimum."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    Q = M @ M.T + np.eye(n)
    c = rng.normal(size=n) * 3.0
    G = rng.normal(size=(2, n))
    return dense_problem(
        n, lambda x: 0.5 * x @ Q @ x + c @ x, lambda x: Q @ x + c,
        lambda x: Q, np.zeros(n), lb=np.full(n, -0.3), ub=np.full(n, 0.5),
        A_eq=np.ones((1, n)), b_eq=[0.2],
        c_ineq=lambda x: G @ x - 0.1, J_ineq=lambda x: G)


def test_flat_start_base_solve_on_30_buses_is_cold_and_short():
    # as `orchestrator.solve_base` builds it; a start at mu0 = 0.1 with
    # multipliers mu0/gap took 69 iterations here
    from scacopf.case_model import preprocess
    from scacopf.cli import generate_case
    from scacopf.orchestrator import flat_start
    from scacopf.scopf import build_base_problem

    net, report = preprocess(generate_case(30, 3))
    prob = build_base_problem(net, report, start=flat_start(net))
    sol = solve_nlp(prob, tol=1e-8)
    assert sol.status == nlp.OPTIMAL
    assert sol.iterations <= 55


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("warm_start", [False, True])
@pytest.mark.parametrize("problem", ["net5-base", "dense-qp"])
def test_optimal_only_at_the_barrier_floor(net5, problem, warm_start, tol):
    from scacopf.scopf import build_base_problem

    prob = build_base_problem(net5) if problem == "net5-base" else dense_qp()
    records = []
    sol = solve_nlp(prob, tol=tol, warm_start=warm_start, log=records.append)
    assert sol.status == nlp.OPTIMAL
    assert records[-1]["mu"] == sol.mu == tol / 10.0
    assert records[-1]["kkt_error"] == sol.kkt_error <= tol
    # no earlier iterate met both conditions
    assert not any(r["kkt_error"] <= tol and r["mu"] <= tol / 10.0
                   for r in records[:-1])


@pytest.mark.parametrize("warm_start, mu0", [(False, 1.0), (True, 0.1)])
def test_first_record_reads_the_start_barrier_parameter(net5, warm_start, mu0):
    from scacopf.scopf import build_base_problem

    for prob in (build_base_problem(net5), dense_qp()):
        records = []
        solve_nlp(prob, tol=1e-8, warm_start=warm_start, log=records.append)
        assert records[0]["mu"] == mu0


def test_start_multipliers():
    # with max_iter=0 a solve returns the multipliers it starts from
    prob = dense_qp()
    cold = solve_nlp(prob, max_iter=0)
    assert (cold.iterations, cold.mu) == (0, 1.0)
    for z in (cold.z_lower, cold.z_upper, cold.lambda_ineq):
        assert np.array_equal(z, np.ones(len(z)))
    assert np.array_equal(cold.lambda_eq, np.zeros(1))
    warm = solve_nlp(prob, max_iter=0, warm_start=True)
    assert warm.mu == 0.1
    lb, ub = nlp._relax_bounds(prob.lb, prob.ub, rel=1e-8)
    x = nlp._interior_start(prob.x0, lb, ub)
    np.testing.assert_allclose(warm.z_lower, 0.1 / (x - lb))
    np.testing.assert_allclose(warm.z_upper, 0.1 / (ub - x))
    assert np.array_equal(warm.lambda_eq, np.zeros(1))
