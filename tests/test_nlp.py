import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from scacopf import nlp
from scacopf.nlp import NlpProblem, solve_nlp, solve_square
from conftest import five_bus_net


def dense_entries(m, n):
    """(rows, cols) of every entry of an m x n matrix, row by row."""
    return np.divmod(np.arange(m * n), n)


def dense_problem(n, f, g, H, x0, lb=None, ub=None, A_eq=None, b_eq=None,
                  c_ineq=None, J_ineq=None, H_constr=None):
    """Wrap dense callables/matrices as an NlpProblem with dense patterns:
    every entry of the Jacobians and of the Hessian's lower triangle."""
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, float)
    if A_eq is None:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    A_eq = np.asarray(A_eq, float)
    b_eq = np.asarray(b_eq, float)
    me = A_eq.shape[0]
    mi = 0 if c_ineq is None else len(c_ineq(np.asarray(x0, float)))

    lower = np.tril_indices(n)

    def hess(x, sf, le, li):
        M = sf * np.asarray(H(x), float)
        if H_constr is not None:
            M = M + H_constr(x, le, li)
        return M[lower]

    return NlpProblem(
        n=n, x0=np.asarray(x0, float), lb=lb, ub=ub,
        objective=lambda x: float(f(x)),
        gradient=lambda x: np.asarray(g(x), float),
        eq=lambda x: A_eq @ x - b_eq,
        ineq=(lambda x: np.asarray(c_ineq(x), float)) if mi else (lambda x: np.zeros(0)),
        jac_eq=lambda x: A_eq.ravel(),
        jac_ineq=(lambda x: np.asarray(J_ineq(x), float).ravel())
        if mi else (lambda x: np.zeros(0)),
        hess=hess, jac_eq_pattern=dense_entries(me, n),
        jac_ineq_pattern=dense_entries(mi, n), hess_pattern=lower,
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


def squared_on_bound(side):
    """min x^2 on x >= 1 (side "lower") or on its mirror x <= -1 ("upper"):
    the bound is active with multiplier 2."""
    s = 1.0 if side == "lower" else -1.0
    bounds = {"lb" if side == "lower" else "ub": [s]}
    return dense_problem(1, lambda x: x[0] ** 2, lambda x: [2 * x[0]],
                         lambda x: [[2.0]], [1.5 * s], **bounds)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_active_bound_multiplier(side):
    sol = solve_nlp(squared_on_bound(side))
    assert sol.status == nlp.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0 if side == "lower" else -1.0, abs=1e-6)
    assert getattr(sol, f"z_{side}")[0] == pytest.approx(2.0, abs=1e-4)


def test_upper_bound_solve_mirrors_the_lower_one():
    # every per-bound step is exact under the sign flip, so the mirrored
    # solve takes the same iterations to the negated x and the same
    # multiplier; a wrong sign in an upper bound's step only slows it down
    lower, upper = (solve_nlp(squared_on_bound(side)) for side in ("lower", "upper"))
    assert upper.iterations == lower.iterations
    assert upper.x[0] == -lower.x[0]
    assert upper.z_upper[0] == lower.z_lower[0]


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
        return np.full(2, 4.0 * sf + 2.0 * le[0])

    return NlpProblem(
        n=2, x0=np.array([math.cos(0.2), math.sin(0.2)]),
        lb=np.full(2, -np.inf), ub=np.full(2, np.inf),
        objective=lambda x: 2.0 * (x @ x - 1.0) - x[0],
        gradient=lambda x: 4.0 * x - np.array([1.0, 0.0]),
        eq=lambda x: np.array([x @ x - 1.0]),
        ineq=lambda x: np.zeros(0),
        jac_eq=lambda x: 2.0 * x, jac_ineq=lambda x: np.zeros(0),
        hess=hess, jac_eq_pattern=([0, 0], [0, 1]), jac_ineq_pattern=([], []),
        hess_pattern=([0, 1], [0, 1]), n_eq=1, n_ineq=0)


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
        return np.array([2.0 * le[0], 2.0 * le[0], 0.0])

    c = np.array([0.004, 0.004, 0.0])
    prob = NlpProblem(
        n=3, x0=np.array([-1.5, 0.0, 0.0]),
        lb=np.array([-0.5, 0.0, -10.0]), ub=np.array([np.inf, np.inf, 10.0]),
        objective=lambda x: float(c @ x), gradient=lambda x: c.copy(),
        eq=lambda x: np.array([x[:2] @ x[:2] - 1.0]),
        ineq=lambda x: np.zeros(0),
        jac_eq=lambda x: 2.0 * x[:2], jac_ineq=lambda x: np.zeros(0),
        hess=hess, jac_eq_pattern=([0, 0], [0, 1]), jac_ineq_pattern=([], []),
        hess_pattern=([0, 1, 2], [0, 1, 2]), n_eq=1, n_ineq=0)
    sol = solve_nlp(prob, tol=1e-8, max_iter=100)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x[:2], [-0.5, math.sqrt(0.75)], atol=1e-6)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_iterate_on_a_bound_is_released(side):
    # min -0.08 x + 0.06 y s.t. x^2 + y^2 = 1, x, y >= -0.5, from
    # (-1.2, -0.6): every step pushes the iterate into the corner
    # (-0.5, -0.5) until its gaps to the bounds round to nothing.  Moving
    # such a bound out by eps^(3/4) (Waechter & Biegler 2006, Sec. 3.5)
    # keeps the barrier finite and every step nonzero.  The corner is a
    # local minimizer of the constraint violation within the bounds, so
    # without a restoration phase the solve still ends there.  The upper
    # side is the mirror image: x, y <= 0.5, objective negated, from
    # (1.2, 0.6).
    s = 1.0 if side == "lower" else -1.0
    c = s * np.array([-0.08, 0.06])
    bound, free = np.full(2, -0.5 * s), np.full(2, np.inf * s)
    lb, ub = (bound, free) if side == "lower" else (free, bound)
    prob = NlpProblem(
        n=2, x0=s * np.array([-1.2, -0.6]), lb=lb, ub=ub,
        objective=lambda x: float(c @ x), gradient=lambda x: c.copy(),
        eq=lambda x: np.array([x @ x - 1.0]), ineq=lambda x: np.zeros(0),
        jac_eq=lambda x: 2.0 * x, jac_ineq=lambda x: np.zeros(0),
        hess=lambda x, sf, le, li: np.full(2, 2.0 * le[0]),
        jac_eq_pattern=([0, 0], [0, 1]), jac_ineq_pattern=([], []),
        hess_pattern=([0, 1], [0, 1]), n_eq=1, n_ineq=0)
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
    assert (sol.status, sol.iterations) == (nlp.NUMERICAL_FAILURE, 2)
    assert records[1]["alpha_primal"] == 1.0
    np.testing.assert_array_equal(sol.x, x0)


def test_every_inertia_correction_rejected_ends_numerical_failure(monkeypatch):
    # a nan Hessian fails the inertia test at every delta_w: 0, then 1e-4
    # up to 1e12, one LU each; past 1e12 the solve ends at its first
    # iterate, x0, which is inside the true bounds
    x0 = np.array([0.5])
    prob = dense_problem(1, lambda x: (x[0] - 2.0) ** 2, lambda x: [2.0 * (x[0] - 2.0)],
                         lambda x: [[np.nan]], x0, lb=[0.0], ub=[1.0])
    w_diags = []
    factor = nlp._Kkt.factor
    monkeypatch.setattr(nlp._Kkt, "factor", lambda self, h, w_diag, *args: (
        w_diags.append(w_diag[0]) or factor(self, h, w_diag, *args)))
    sol = solve_nlp(prob)
    assert (sol.status, sol.iterations, sol.lus) == (nlp.NUMERICAL_FAILURE, 1, 18)
    np.testing.assert_allclose(np.subtract(w_diags, w_diags[0]),
                               [0.0] + [10.0 ** k for k in range(-4, 13)], rtol=1e-9)
    np.testing.assert_array_equal(sol.x, x0)
    assert np.all((prob.lb <= sol.x) & (sol.x <= prob.ub))


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

def lu_jacobian(jac, x0):
    """`jac`, a Jacobian that returns a matrix, as `solve_square` takes it:
    (pattern, vals) on the pattern of jac(x0), a full-grid `_DenseLuPattern`
    for a dense array or an `_LuPattern` of the stored CSC entries for a
    sparse matrix (whose later values keep those entries)."""
    J0 = jac(np.asarray(x0, float))
    n = J0.shape[0]
    if sparse.issparse(J0):
        J0 = J0.tocsc()
        pattern = nlp._LuPattern(J0.indices,
                                 np.repeat(np.arange(n), np.diff(J0.indptr)), n)
        return lambda x: (pattern, jac(x).tocsc().data)
    rows, cols = np.divmod(np.arange(n * n), n)
    pattern = nlp._DenseLuPattern(rows, cols, n)
    return lambda x: (pattern, np.asarray(jac(x), float).ravel())


def test_scalar_newton():
    jac = lu_jacobian(lambda x: np.array([[2 * x[0]]]), [3.0])
    res = solve_square(lambda x: np.array([x[0] ** 2 - 4]), jac, [3.0])
    assert res.status == nlp.SOLVED
    assert res.x[0] == pytest.approx(2.0, abs=1e-8)


def test_linear_system_one_step():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=4)
    res = solve_square(lambda x: A @ x - b, lu_jacobian(lambda x: A, np.zeros(4)),
                       np.zeros(4))
    assert res.status == nlp.SOLVED
    assert res.iterations == 1
    np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-10)


def test_square_sparse_jacobian_never_densified(monkeypatch):
    # a sparse Jacobian is factored on its `_LuPattern` as it is: densifying
    # any CSC or CSR matrix inside the solve fails the test
    rng = np.random.default_rng(3)
    A = (sparse.random(30, 30, density=0.1, random_state=4) + 4 * sparse.eye(30)).tocsc()
    b = rng.normal(size=30)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("solve_square densified a sparse matrix")

    for cls in (sparse.csc_matrix, sparse.csr_matrix):
        monkeypatch.setattr(cls, "toarray", forbidden)
        monkeypatch.setattr(cls, "todense", forbidden)
    res = solve_square(lambda x: A @ x - b, lu_jacobian(lambda x: A, np.zeros(30)),
                       np.zeros(30))
    assert res.status == nlp.SOLVED
    np.testing.assert_allclose(A @ res.x, b, atol=1e-8)


def test_square_jacobian_is_taken_at_the_last_residual_point():
    # Newton steps and backtracking (arctan from 3 overshoots): every jac
    # call comes at the point of the last fun call
    calls = []

    def recorded(f, kind):
        def call(x):
            calls.append((kind, np.array(x, float)))
            return f(x)
        return call

    x0 = [3.0, -2.0]
    jac = lu_jacobian(lambda x: np.diag(1.0 / (1.0 + x * x)), x0)
    solve_square(recorded(np.arctan, "fun"), recorded(jac, "jac"), x0, tol=1e-12)
    kinds = [kind for kind, _ in calls]
    assert kinds.count("jac") >= 2 and kinds.count("fun") > kinds.count("jac")
    for i, (kind, x) in enumerate(calls):
        if kind == "jac":
            last = next(y for k, y in reversed(calls[:i]) if k == "fun")
            np.testing.assert_array_equal(x, last)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_singular_jacobian_ends_the_solve_failed(monkeypatch, dense):
    # r = x0^2 + x1 - 3 written twice: the Jacobian is exactly singular, so
    # the solve ends `failed` after its first LU, at x0, with no
    # least-squares step; a dense pattern makes no SuperLU call
    def fun(x):
        r = x[0] ** 2 + x[1] - 3.0
        return np.array([r, r])

    rows, cols = [0, 0, 1, 1], [0, 1, 0, 1]
    if dense:
        pattern = nlp._DenseLuPattern(rows, cols, 2)

        def forbidden(*args, **kwargs):
            raise AssertionError("a dense Jacobian went to SuperLU")

        monkeypatch.setattr(nlp, "_splu", forbidden)
    else:
        pattern = nlp._LuPattern(rows, cols, 2)

    def jac(x):
        return pattern, np.array([2 * x[0], 1.0, 2 * x[0], 1.0])

    x0 = np.array([1.0, 1.0])
    assert pattern.solve(jac(x0)[1], -fun(x0)) is None
    res = solve_square(fun, jac, x0)
    assert res.status == nlp.FAILED
    assert res.iterations == 1
    np.testing.assert_array_equal(res.x, x0)
    assert res.residual == np.max(np.abs(fun(x0)))


def test_square_time_limit_returns_the_best_iterate(monkeypatch):
    # a clock that moves one second per Jacobian: a 2.5 s limit is found
    # exhausted before the fourth step, so the solve ends `failed` with the
    # three steps done, exactly as a solve cut at max_iter=3
    x0 = [3.0, -2.0]
    jac = lu_jacobian(lambda x: np.diag(1.0 / (1.0 + x * x)), x0)
    clock = [0.0]

    def ticking(x):
        clock[0] += 1.0
        return jac(x)

    monkeypatch.setattr(nlp, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    res = solve_square(np.arctan, ticking, x0, tol=1e-12, time_limit=2.5)
    cut = solve_square(np.arctan, jac, x0, tol=1e-12, max_iter=3)
    assert res.status == cut.status == nlp.FAILED
    assert res.iterations == cut.iterations == 3
    np.testing.assert_array_equal(res.x, cut.x)
    assert res.residual == cut.residual == np.max(np.abs(np.arctan(cut.x)))
    assert 1e-12 < res.residual < np.max(np.abs(np.arctan(x0)))


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("x0", [4.0, 1e200], ids=["finite", "overflowing"])
def test_square_backtracking_rejects_a_non_finite_residual(bad, x0):
    # F(x) = x, but `bad` inside |x| < 1: the full Newton step from x0 lands
    # at 0, its residual is rejected and the half step is taken.  From
    # 1e200, |F|^2 overflows, so the start's norm is inf, and an inf trial
    # residual would pass the norm test by itself
    def fun(x):
        return np.where(np.abs(x) < 1.0, bad, x)

    pattern = nlp._DenseLuPattern([0], [0], 1)
    with np.errstate(over="ignore"):
        res = solve_square(fun, lambda x: (pattern, np.ones(1)), [x0], max_iter=1)
    assert res.status == nlp.FAILED and res.iterations == 1
    np.testing.assert_array_equal(res.x, [x0 / 2])


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
    res = solve_square(mismatch, lu_jacobian(jac, z0), z0, tol=1e-10)
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
    res1 = solve_square(mismatch, lu_jacobian(jac, z0), z0, tol=1e-10)
    res2 = solve_square(lambda z: scale * mismatch(z),
                        lu_jacobian(lambda z: scale[:, None] * jac(z), z0), z0,
                        tol=1e-10)
    assert res1.status == res2.status == nlp.SOLVED
    np.testing.assert_allclose(res1.x, res2.x, atol=1e-8)


def saddle_inertia_ok(W, J, d):
    """Oracle: does [[W, J'], [J, -diag(d)]] have n positive and m negative
    eigenvalues?"""
    n, m = W.shape[0], J.shape[0]
    K = np.block([[W, J.T], [J, -np.diag(d)]])
    ev = np.linalg.eigvalsh(K)
    return int(np.sum(ev > 0)) == n and int(np.sum(ev < 0)) == m


def kkt_inertia_ok(W, J, d):
    """Whether the quasi-definite LU of `_Kkt` shows the inertia (n, m, 0)
    of the saddle-point matrix of dense W, J and d, built from the raw
    entries of W's lower triangle and of J as `solve_nlp` builds it."""
    (n, m), lower = (W.shape[0], J.shape[0]), np.tril_indices(W.shape[0])
    kkt = nlp._Kkt(n, lower, dense_entries(m, n), m)
    return kkt.quasi_definite(W[lower], np.zeros(n), J.ravel(), d)[2]


def test_inertia_counting_matches_eigvals():
    # the quasi-definite LU's verdict never accepts an inertia that the
    # eigenvalues of the saddle-point matrix reject, on both sides of the
    # boundary where the condensed matrix W + J' diag(1/d) J becomes
    # singular, and it does accept the right inertia
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
            seen.add(expected)
            qd = kkt_inertia_ok(Ws, J, d)
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


def scipy_csc(A):
    """The scipy matrix of the CSC arrays of an `_LuPattern` matrix."""
    n = len(A.indptr) - 1
    return sparse.csc_matrix((A.data, A.indices, A.indptr), shape=(n, n))


def max_rel_diff(A, B):
    diff = (sparse.csc_matrix(A) - B).tocoo()
    return np.max(np.abs(diff.data), initial=0.0) / np.max(np.abs(B.data))


@pytest.mark.parametrize("kind", ["base", "ctg", "master"])
def test_kkt_matches_reference_assembly(net5, kind):
    # the compiled quasi-definite matrix and K equal the sparse-algebra
    # assembly, before and after the first factorizations bake their
    # orderings in (the quasi-definite matrix on rows and columns, K on
    # columns); the quasi-definite LU, refined against its matrix, solves
    # like an LU of the reference quasi-definite matrix, and
    # the step of an attempt equals the step of an LU of the reference K
    # (on these random values, with condition numbers of 1e9-1e10, the
    # quasi-definite step misses the residual gate and K's own LU gives it)
    prob = scopf_problems(net5)[kind]
    rng = np.random.default_rng(5)
    lo = np.where(np.isfinite(prob.lb), prob.lb, prob.x0 - 1.0)
    hi = np.where(np.isfinite(prob.ub), prob.ub, prob.x0 + 1.0)
    n, me, m = prob.n, prob.n_eq, prob.n_eq + prob.n_ineq
    j_pattern = (np.concatenate((prob.jac_eq_pattern[0], me + prob.jac_ineq_pattern[0])),
                 np.concatenate((prob.jac_eq_pattern[1], prob.jac_ineq_pattern[1])))
    for x in (prob.x0, lo + rng.uniform(0.05, 0.95, prob.n) * (hi - lo)):
        y = rng.normal(size=me)
        w = rng.uniform(0.1, 2.0, prob.n_ineq)
        h = prob.hess(x, 1.0, y, w)
        j = np.concatenate((prob.jac_eq(x), prob.jac_ineq(x)))
        Hl = sparse.csc_matrix((h, prob.hess_pattern), shape=(n, n))
        J = sparse.csc_matrix((j, j_pattern), shape=(m, n))
        kkt = nlp._Kkt(n, prob.hess_pattern, j_pattern, m)
        for _ in range(2):
            for dc in (0.0, 1e-8):
                w_diag = rng.uniform(0.0, 10.0, prob.n) + 1e-4
                t = rng.uniform(0.01, 1.0, prob.n_ineq)
                d = np.concatenate([np.full(me, dc), t / w + dc])
                d_test = np.concatenate([np.full(me, dc or 1e-8), t / w + dc])
                W = Hl + Hl.T - sparse.diags(Hl.diagonal()) + sparse.diags(w_diag)
                K_ref = sparse.bmat([[W, J.T], [J, -sparse.diags(d)]], format="csc")
                Q_ref = sparse.bmat([[W, J.T], [J, -sparse.diags(d_test)]], format="csc")

                q_pos = kkt.Q.pos if kkt.Q.pos is not None else np.arange(K_ref.shape[0])
                Q = scipy_csc(kkt.Q.matrix(kkt.values(h, w_diag, j, d_test)))
                assert max_rel_diff(Q[q_pos][:, q_pos], Q_ref) <= 1e-14

                k_pos = kkt.K.pos if kkt.K.pos is not None else np.arange(K_ref.shape[0])
                K = scipy_csc(kkt.K.matrix(kkt.values(h, w_diag, j, d)))
                assert max_rel_diff(K[:, k_pos], K_ref) <= 1e-14
                rhs = rng.normal(size=K_ref.shape[0])
                lu, pos, _ = kkt.quasi_definite(h, w_diag, j, d_test)
                Q = kkt.Q.matrix(kkt.values(h, w_diag, j, d_test))
                b = np.empty_like(rhs)
                b[pos] = rhs
                ref = splu(Q_ref).solve(rhs)
                step = nlp._refine(Q, lu, b)[0][pos]
                assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))
                step = kkt.factor(h, w_diag, j, d, d_test)(rhs)
                ref = splu(K_ref).solve(rhs)
                assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))
        # the orderings of the patterns that were factored are baked in, and
        # are not the identity
        assert kkt.Q.pos is not None
        for pattern in (kkt.Q, kkt.K):
            if pattern.pos is not None:
                assert np.any(pattern.pos != np.arange(len(pattern.pos)))


def test_nlp_time_limit_returns_the_best_iterate(net5, monkeypatch):
    # a clock that moves one second per Hessian, one a step: a 2.5 s limit
    # is found exhausted at the fourth iterate, so the solve ends
    # `time_limit` with the three steps done and returns what a solve cut at
    # max_iter=3 returns: the best iterate, clipped into the true bounds
    prob = scopf_problems(net5)["base"]
    cut = solve_nlp(prob, tol=1e-8, max_iter=3)
    clock, iterates = [0.0], []
    hess, gradient = prob.hess, prob.gradient

    def ticking(*args):
        clock[0] += 1.0
        return hess(*args)

    def recording(x):
        iterates.append(x.copy())
        return gradient(x)

    prob.hess, prob.gradient = ticking, recording
    monkeypatch.setattr(nlp, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    res = solve_nlp(prob, tol=1e-8, time_limit=2.5)
    assert cut.status == nlp.MAX_ITER and res.status == nlp.TIME_LIMIT
    assert clock[0] == 3.0 and res.iterations == cut.iterations + 1 == len(iterates) == 4
    np.testing.assert_array_equal(res.x, cut.x)
    assert np.all(prob.lb <= res.x) and np.all(res.x <= prob.ub)
    assert any(np.array_equal(res.x, np.clip(x, prob.lb, prob.ub)) for x in iterates)
    assert res.objective == cut.objective == prob.objective(res.x)
    assert res.constraint_violation == cut.constraint_violation


def test_one_lu_per_attempt(net5, monkeypatch):
    # base, contingency and master solves make one LU per inertia-correction
    # attempt, of the quasi-definite matrix, plus the first LU of its
    # pattern, which finds its ordering; K's own LU never runs, and the
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
        assert sol.colamd_steps == 0, kind
        assert set(calls) <= {("MMD_AT_PLUS_A", True), ("NATURAL", True)}, kind
        assert calls.count(("MMD_AT_PLUS_A", True)) == 1, kind
        assert calls.count(("NATURAL", True)) == attempts, kind
        assert len(calls) == sol.lus, kind


def test_kkt_pattern_compiled_once(net5, monkeypatch):
    compiled = []
    init = nlp._Kkt.__init__

    def spy(self, *args):
        compiled.append(args)
        init(self, *args)

    monkeypatch.setattr(nlp._Kkt, "__init__", spy)
    for kind, prob in scopf_problems(net5).items():
        compiled.clear()
        sol = solve_nlp(prob, tol=1e-8)
        assert sol.iterations > 1, kind
        assert len(compiled) == 1, kind


def test_kkt_from_raw_entries_equals_the_dense_saddle_matrix():
    # K = [[W, J'], [J, -D]] from raw entries with a repeated (row, col)
    # pair in each of the Hessian and J, an explicit zero in each (which
    # keeps its slot in the pattern), and a Hessian entry above the
    # diagonal, which stands for its mirror as well; the values are exact
    # in binary, so every sum is exact
    n, m = 4, 2
    h_rows, h_cols = [0, 2, 0, 1, 3, 3, 2], [0, 1, 0, 2, 0, 3, 2]
    h = np.array([1.5, 0.25, 2.0, -0.5, 0.0, 3.0, 1.0])
    j_rows, j_cols = [0, 0, 0, 1, 1], [0, 2, 0, 1, 3]
    j = np.array([1.0, -2.0, 0.5, 4.0, 0.0])
    w_diag = np.array([0.5, 1.0, 1.5, 2.0])
    d = np.array([0.125, 0.75])
    W = np.diag(w_diag)
    for r, c, v in zip(h_rows, h_cols, h):
        W[r, c] += v
        if r != c:
            W[c, r] += v
    J = np.zeros((m, n))
    np.add.at(J, (j_rows, j_cols), j)
    K_dense = np.block([[W, J.T], [J, -np.diag(d)]])
    assert W[1, 2] == W[2, 1] == -0.25 and W[0, 0] == 4.0 and J[0, 0] == 1.5

    kkt = nlp._Kkt(n, (h_rows, h_cols), (j_rows, j_cols), m)
    vals = kkt.values(h, w_diag, j, d)
    # the explicit zeros of W[3, 0], W[0, 3] and of J[1, 3] and J'[3, 1]
    # are stored: the nonzero slots of the dense K and these 4
    assert scipy_csc(kkt.Q.matrix(vals)).nnz == np.count_nonzero(K_dense) + 4
    for pattern in (kkt.Q, kkt.K):
        for _ in range(2):  # before and after the first LU bakes its ordering in
            A, lu, pos = pattern.lu(vals)
            assert lu is not None
            A = scipy_csc(A).toarray()
            back = A[np.ix_(pos, pos)] if pattern is kkt.Q else A[:, pos]
            np.testing.assert_array_equal(back, K_dense)


def test_zero_hessian_value_on_a_fixed_pattern_ends_optimal(monkeypatch):
    # f = (x0 - 1)^2 + (x1 + 1)^2 + x0 max(x1, 0)^2 / 2: the mixed Hessian
    # entry max(x1, 0) is exactly 0 once x1 < 0, a value on the problem's
    # fixed pattern like any other, so the KKT pattern is compiled once
    def f(x):
        return (x[0] - 1) ** 2 + (x[1] + 1) ** 2 + x[0] * max(x[1], 0.0) ** 2 / 2

    def g(x):
        s = max(x[1], 0.0)
        return np.array([2 * (x[0] - 1) + s ** 2 / 2, 2 * (x[1] + 1) + x[0] * s])

    def H(x):
        s = max(x[1], 0.0)
        return np.array([[2.0, s], [s, 2.0 + (x[0] if x[1] > 0 else 0.0)]])

    prob = dense_problem(2, f, g, H, [0.5, 1.0], lb=[-2.0, -2.0], ub=[2.0, 2.0])
    mixed, hess = [], prob.hess
    prob.hess = lambda *args: mixed.append(hess(*args)[1]) or hess(*args)
    compiled = []
    init = nlp._Kkt.__init__
    monkeypatch.setattr(nlp._Kkt, "__init__",
                        lambda self, *args: compiled.append(args) or init(self, *args))
    sol = solve_nlp(prob)
    assert sol.status == nlp.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, -1.0], atol=1e-6)
    assert mixed[0] > 0.0 and 0.0 in mixed
    assert len(compiled) == 1


def test_gmres_calls_are_counted(net5, monkeypatch):
    # with no plain refinement step before it, GMRES refines every
    # quasi-definite step that misses the gate, and the solution counts
    # each call
    calls = []
    gmres = nlp._gmres
    monkeypatch.setattr(nlp, "_gmres", lambda *args: calls.append(1) or gmres(*args))
    prob = scopf_problems(net5)["base"]
    assert solve_nlp(prob, tol=1e-8).gmres_calls == len(calls) == 0
    monkeypatch.setattr(nlp, "QD_REFINE_STEPS", 0)
    sol = solve_nlp(prob, tol=1e-8)
    assert sol.status == nlp.OPTIMAL
    assert sol.gmres_calls == len(calls) > 0


def test_every_superlu_call_is_tuned(net5, monkeypatch):
    # base, contingency and master solves and a fast evaluation on SuperLU
    # factor with unrelaxed supernodes and one-column panels
    from scacopf import eval as ev
    from scacopf.scopf import default_start

    calls = []
    gstrf = nlp._gstrf

    def spy(*args, **kw):
        calls.append(kw["options"])
        return gstrf(*args, **kw)

    monkeypatch.setattr(nlp, "_gstrf", spy)
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
    assert all((o["Relax"], o["PanelSize"]) == (1, 1) for o in calls)


def test_square_jacobian_above_the_dense_limit_is_ordered_by_colamd(monkeypatch):
    # a square Jacobian is not structurally symmetric, so a sparse LU of one
    # finds its ordering with COLAMD, and every later LU runs in natural order
    from scacopf import eval as ev
    from scacopf.scopf import default_start

    specs = []
    real = nlp._splu

    def spy(A, permc_spec, symmetric=False):
        specs.append((permc_spec, symmetric))
        return real(A, permc_spec, symmetric)

    monkeypatch.setattr(nlp, "_splu", spy)
    monkeypatch.setattr(nlp, "DENSE_LU_MAX", 0)
    net = five_bus_net()
    for k in net.contingencies:
        ev.fast_evaluate(net, k, default_start(net))
    firsts = [spec for spec in specs if spec[0] != "NATURAL"]
    assert firsts and set(firsts) == {("COLAMD", False)}
    assert len(specs) > len(firsts)


class CountingLu:
    """An LU of M, with its back-solves counted."""

    def __init__(self, M):
        self.M, self.solves = M, 0

    def solve(self, b):
        self.solves += 1
        return np.linalg.solve(self.M, b)


def test_refine_stops_at_its_gate_and_at_a_step_that_does_not_halve():
    # with an LU of M = A / (1 - rate), the first solve leaves the residual
    # rate * b and each refinement step multiplies it by rate
    rng = np.random.default_rng(2)
    A = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    b = rng.normal(size=6)
    size = np.max(np.abs(b))

    def refine(rate, gate=0.0):
        """(back-solves, residual norm) of `_refine`."""
        lu = CountingLu(A / (1.0 - rate))
        x, r, norm = nlp._refine(A, lu, b, gate)
        np.testing.assert_array_equal(r, b - A @ x)
        assert norm == np.max(np.abs(r))
        return lu.solves, norm

    assert refine(0.1, gate=np.inf) == (1, pytest.approx(0.1 * size))
    # the gate is met after two steps
    assert refine(0.1, gate=1.5e-3 * size) == (3, pytest.approx(1e-3 * size))
    # with no gate, every step halves the residual until the steps run out
    n_steps = nlp.QD_REFINE_STEPS
    assert refine(0.4) == (1 + n_steps, pytest.approx(0.4 ** (1 + n_steps) * size))
    # a step that leaves 0.6 of the residual is not taken
    assert refine(0.6) == (2, pytest.approx(0.6 * size))


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


@pytest.mark.parametrize("kind", ["sparse", "symmetric", "dense"])
def test_lu_pattern_solves_like_splu_of_the_matrix(kind):
    # the first LU bakes the ordering that its kind picks in; it and every
    # later natural-order LU of the pre-permuted matrix solve like an LU of
    # the matrix itself, and a square step (`solve`) is that LU's solve
    # gathered back, bit for bit; the dense factorizer keeps the natural
    # order and solves in one call, leaving the matrix to `matrix`
    symmetric = kind == "symmetric"
    rows, cols, vals = random_pattern(symmetric)
    n = 40
    pattern = (nlp._DenseLuPattern(rows, cols, n) if kind == "dense" else
               nlp._LuPattern(rows, cols, n, symmetric=symmetric))
    rng = np.random.default_rng(1)
    for v in vals:
        M = sparse.csc_matrix((v, (rows, cols)), shape=(n, n))
        b = rng.normal(size=n)
        if kind == "dense":
            A, pos = pattern.matrix(v), np.arange(n)
            x = pattern.solve(v, b.copy())
        else:
            A, lu, pos = pattern.lu(v)
            A = scipy_csc(A)
            rhs = b
            if symmetric:
                rhs = np.empty(n)
                rhs[pos] = b
                assert np.array_equal(lu.perm_r, lu.perm_c)
            x = lu.solve(rhs)[pos]
            if not symmetric:
                assert pattern.solve(v, b).tobytes() == x.tobytes()
        assert max_rel_diff(A[pos][:, pos] if symmetric else A[:, pos], M) <= 1e-15
        ref = splu(M).solve(b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert kind == "dense" or np.any(pattern.pos != np.arange(n))


def test_square_step_is_getrf_then_getrs_or_none_if_singular():
    # a dense step is one gesv call: bit for bit getrf then getrs of the
    # same matrix, made in the rhs it is given; on an exactly singular
    # matrix (a row that is twice another, cancelled exactly) both kinds of
    # pattern give None
    from scipy.linalg import lapack
    rows, cols, vals = random_pattern(False)
    n = 40
    pattern = nlp._DenseLuPattern(rows, cols, n)
    rng = np.random.default_rng(2)
    for v in vals:
        b = rng.normal(size=n)
        lu, piv, info = lapack.dgetrf(pattern.matrix(v))
        assert info == 0
        ref = lapack.dgetrs(lu, piv, b)[0]
        rhs = b.copy()
        x = pattern.solve(v, rhs)
        assert x.tobytes() == ref.tobytes()
        assert np.shares_memory(x, rhs)
    rows, cols = np.divmod(np.arange(9), 3)
    singular = np.array([1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 1.0, 1.0, 1.0])
    for kind in (nlp._DenseLuPattern, nlp._LuPattern):
        assert kind(rows, cols, 3).solve(singular, np.ones(3)) is None


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


@pytest.mark.parametrize("symmetric", [False, True], ids=["sparse", "symmetric"])
def test_pattern_product_equals_the_scipy_product_bit_for_bit(symmetric):
    # a pattern's matrix, whose raw values repeat (row, col) pairs, sums
    # them and multiplies like a scipy matrix of the same raw entries, bit
    # for bit, before and after the first LU bakes its ordering in
    rows, cols, vals = random_pattern(symmetric)
    n = 40
    assert len(set(zip(rows.tolist(), cols.tolist()))) < len(rows)
    pattern = nlp._LuPattern(rows, cols, n, symmetric=symmetric)
    rng = np.random.default_rng(4)
    r, c = rows, cols
    for v in vals:
        x = rng.normal(size=n)
        ref = sparse.csc_matrix((v, (r, c)), shape=(n, n)) @ x
        assert np.array_equal(pattern.matrix(v) @ x, ref)
        _, _, pos = pattern.lu(v)
        r, c = (pos[rows] if symmetric else rows), pos[cols]


def test_quasi_definite_inertia_and_solves_equal_public_splu():
    # on random quasi-definite matrices, the raw SuperLU call's pivots, U
    # diagonal and verdict equal those of public `splu` on the same matrix
    # with the options `_splu` passes, and its solves equal public `splu`'s
    # bit for bit: W positive definite (the right inertia), W negative
    # definite (the wrong one, on diagonal pivots) and a zero first pivot,
    # which the LU must take off the diagonal
    n, m = 12, 4
    rng = np.random.default_rng(3)
    lower = np.tril_indices(n)
    kkt = nlp._Kkt(n, lower, dense_entries(m, n), m)
    seen = []
    for case in ("right", "wrong", "off-diagonal") * 3:
        B = rng.normal(size=(n, n))
        W = B @ B.T + n * np.eye(n)
        if case == "wrong":
            W = -W
        J, d = rng.normal(size=(m, n)), rng.uniform(1e-3, 1.0, m)
        if case == "off-diagonal":
            first = int(np.argmin(kkt.Q.pos))  # the column the LU takes first
            if first < n:
                W[first, first] = 0.0
            else:
                d[first - n] = 0.0
        lu, pos, ok = kkt.quasi_definite(W[lower], np.zeros(n), J.ravel(), d)
        ref = splu(scipy_csc(kkt.Q.matrix(kkt.values(W[lower], np.zeros(n),
                                                     J.ravel(), d))),
                   permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1,
                   panel_size=1, options={"SymmetricMode": True})
        diagonal = np.array_equal(ref.perm_r, ref.perm_c)
        assert np.array_equal(lu.perm_r, ref.perm_r)
        assert np.array_equal(lu.perm_c, ref.perm_c)
        assert np.array_equal(nlp._u_diagonal(lu), ref.U.diagonal())
        negative = np.count_nonzero(ref.U.diagonal() < 0.0)
        assert ok == (diagonal and negative == m)
        assert (ok, diagonal) == {"right": (True, True), "wrong": (False, True),
                                  "off-diagonal": (False, False)}[case]
        b = rng.normal(size=n + m)
        assert np.array_equal(lu.solve(b), ref.solve(b))
        seen.append(negative)
    assert len(set(seen)) > 2


def test_u_diagonal_raises_where_a_column_does_not_end_on_it():
    # column 1 stores its diagonal first, so its last entry is row 0
    U = (np.array([2.0, 3.0, 1.0]), np.array([0, 1, 0], dtype=np.int32),
         np.array([0, 1, 3], dtype=np.int32))
    with pytest.raises(RuntimeError):
        nlp._u_diagonal(SimpleNamespace(U=U))
