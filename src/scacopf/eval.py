"""Contingency evaluation engines.

Two engines estimate the post-contingency penalty of a base operating point:

* ``fast_evaluate`` repeatedly solves a square system of nonlinear equations
  (slack-free bus balance with the flows as functions of the voltages,
  response rows for the current complementarity segments, and the angle
  reference) with Newton steps, projects the result into bounds, and prices
  the residual slacks.  Each step's LU is dense (LAPACK) for a system of at
  most `nlp.DENSE_LU_MAX` = 128 rows (below about 50 buses), where
  SuperLU's fixed cost per call outweighs the elimination, and sparse
  (SuperLU) above it: the measured crossover, where screening takes as long
  either way, lies between 119 and 159 rows.  It is cheap and yields an
  upper bound on the optimal penalty.
* ``full_evaluate`` solves the penalty-minimization NLP in a loop with
  all-at-once complementarity segment updates.

``prescreen_then_evaluate`` runs the fast engine first and escalates to the
full engine only when the fast penalty exceeds a cutoff.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import compl as compl_mod
from . import nlp as nlp_mod
from .acpf import CaseLayout
from .case_model import Network
from .nlp import _DenseLuPattern, _LuPattern, solve_nlp, solve_square
from .scopf import (
    LOWER,
    MIDDLE,
    UPPER,
    OperatingPoint,
    build_contingency_problem,
    flows_from_state,
    penalty_cost,
    point_penalty,
    slacks_from_state,
)

__all__ = [
    "EvaluationResult",
    "fallback_result",
    "fast_evaluate",
    "full_evaluate",
    "prescreen_then_evaluate",
    "default_cutoff",
    "VIOLATION_CUTOFF",
]

# per-unit violation whose penalty is the default escalation cutoff
VIOLATION_CUTOFF = 2e-2

# fast loop: max segment-update rounds (guards cycling; the loop is otherwise
# bounded only by time and penalty decrease)
FAST_MAX_ROUNDS = 10
FULL_MAX_ROUNDS = 20
_BOUND_TOL = 1e-9


@dataclass
class EvaluationResult:
    contingency_id: str
    penalty: float
    point: OperatingPoint
    compl: compl_mod.ComplementarityState
    method: str  # "fast" | "full"
    base_tag: str = ""
    elapsed: float = 0.0
    status: str = "ok"
    # [status, iterations, kkt_error, lus, p_tests, colamd_steps] of the
    # NLP of each full-evaluation segment round (see `nlp.NlpSolution`)
    nlp: list = field(default_factory=list)


def default_cutoff(net: Network, violation=VIOLATION_CUTOFF):
    """Penalty a single slack of the given per-unit size would cost."""
    return penalty_cost(net.penalty_config, violation)


class _Budget:
    """Wall-clock or deterministic operation-count budget: of one evaluation,
    of a code1 run, or of code2's ``factor * |K|`` total.

    In deterministic mode one "second" buys ``OPS_PER_SECOND`` solver
    iterations, the limit is rounded to whole operations, and wall time is
    ignored.  A solver call is charged its iterations (`charge`); a phase of a
    run that hands its seconds on to nested evaluations is charged those
    seconds as whole operations (`spend`).
    """

    OPS_PER_SECOND = 50

    def __init__(self, time_limit, deterministic=False):
        self.deterministic = deterministic
        self.t0 = time.monotonic()
        if deterministic:
            self.ops_left = (None if time_limit is None
                             else round(time_limit * self.OPS_PER_SECOND))
        else:
            self.limit = time_limit

    def exhausted(self):
        if self.deterministic:
            return self.ops_left is not None and self.ops_left <= 0
        return (self.limit is not None
                and time.monotonic() - self.t0 >= self.limit)

    def solver_kwargs(self, max_iter):
        if self.deterministic:
            if self.ops_left is not None:
                max_iter = max(1, min(max_iter, self.ops_left))
            return {"max_iter": max_iter}
        kw = {"max_iter": max_iter}
        if self.limit is not None:
            kw["time_limit"] = self.remaining()
        return kw

    def charge(self, iterations):
        if self.deterministic and self.ops_left is not None:
            self.ops_left -= max(1, iterations)

    def spend(self, seconds):
        if self.deterministic and self.ops_left is not None:
            self.ops_left -= round(seconds * self.OPS_PER_SECOND)

    def elapsed(self):
        return time.monotonic() - self.t0

    def remaining(self):
        """The unspent budget as the time limit of a nested evaluation.  In
        deterministic mode it buys exactly the operations left, and the wall
        clock plays no part."""
        if self.deterministic:
            if self.ops_left is None:
                return None
            return max(0.0, self.ops_left / self.OPS_PER_SECOND)
        if self.limit is None:
            return None
        return max(0.0, self.limit - self.elapsed())


class _SquareStructure:
    """What a `_SquareSystem` compiles from its case alone: the unknown
    columns, the Jacobian pattern with its LU (dense up to
    `nlp.DENSE_LU_MAX` rows, else SuperLU with the ordering it keeps), and
    the Jacobian's signs and constant entries.  It depends on the layout, the
    responders and which of their segments are middle, and is kept in the
    layout's `compiled` cache under those (see `of`).

    Jacobian: each acpf flow-row entry, negated, goes into the P or Q
    balance row of its flow's end bus; the balance-row entries on unknown
    columns stay as they are; then the constant entries.  Repeated
    (row, col) pairs add up.  Every selected acpf entry (`sel`) is among the
    layout's `n_jac_head` leading ones.
    """

    @classmethod
    def of(cls, lay, ref, resp, p_mid, q_mid):
        key = ("square", resp.tobytes(), p_mid.tobytes(), q_mid.tobytes())
        st = lay.compiled.get(key)
        if st is None:
            st = lay.compiled[key] = cls(lay, ref, resp, p_mid, q_mid)
        return st

    def __init__(self, lay, ref, resp, p_mid, q_mid):
        nb, nfr = lay.nb, 4 * lay.m
        p_cols = lay.p0 + lay.gen_col[resp]
        q_cols = np.arange(lay.q0, lay.fl0)
        self.cols = np.concatenate((np.arange(lay.v0, lay.th0 + nb), p_cols, q_cols))
        col_pos = np.full(lay.nvar, -1, dtype=int)
        col_pos[self.cols] = np.arange(len(self.cols))
        delta_col = len(self.cols)
        self.n = delta_col + 1

        jr, jc = lay.jac_pattern()
        row_of = np.concatenate((lay.bal_row[lay.fl0 - lay.p0:], np.arange(2 * nb)))
        self.sel = np.flatnonzero((jr < nfr + 2 * nb) & (col_pos[jc] >= 0))
        self.sign = np.where(jr[self.sel] < nfr, -1.0, 1.0)
        r_ref = 2 * nb
        r_p = r_ref + 1 + np.arange(len(resp))
        r_q = r_ref + 1 + len(resp) + np.arange(len(lay.gens))
        pc, qc = col_pos[p_cols], col_pos[q_cols]
        rows = [row_of[jr[self.sel]], [r_ref], r_p[p_mid], r_p, r_q]
        cols = [col_pos[jc[self.sel]], [col_pos[lay.th0 + ref]],
                np.full(p_mid.sum(), delta_col),
                pc, np.where(q_mid, col_pos[lay.v0 + lay.gen_bus], qc)]
        self.const = np.concatenate((
            [1.0], lay.alpha[resp][p_mid], np.where(p_mid, -1.0, 1.0),
            np.where(q_mid, -1.0, 1.0)))
        # the one place a square system picks its LU by size
        lu_pattern = (_DenseLuPattern if self.n <= nlp_mod.DENSE_LU_MAX
                      else _LuPattern)
        self.pattern = lu_pattern(np.concatenate(rows), np.concatenate(cols), self.n)


class _SquareSystem:
    """Square response system for one contingency and one segment assignment.

    Unknowns: all bus voltages and angles, responder active powers, available
    generator reactive powers, and the response scalar.  Branch flows are
    functions of the voltages, not unknowns (the polar Newton power flow of
    MATPOWER's ``newtonpf``).  Shunt susceptances stay at the base values and
    non-responding generators keep their base active power.
    Rows: slack-free P/Q balance, the reference angle, one response row per
    responder, one per available generator.  The Jacobian comes as raw
    values on a pattern of the case's `_SquareStructure`, which factors it
    with a dense LU up to `nlp.DENSE_LU_MAX` rows and with SuperLU above
    (the crossover is measured at that constant); the
    base point's data (the fixed template, base outputs and voltages, and
    the pinned bounds) is the system's own.
    """

    def __init__(self, net, k, base, state):
        lay = CaseLayout.of(net, k.outaged)
        self.lay = lay
        self.ref = net.bus_index(net.reference_bus)

        # response rows: a middle segment follows the response rule (active)
        # or holds the base voltage (reactive); lower/upper pin the output
        resp = np.array([gi for gi, g in enumerate(net.generators)
                         if g.id in state.active], dtype=int)
        self.p_ids = [net.generators[gi].id for gi in resp]
        self.q_ids = [g.id for _, g in lay.avail_gens]
        seg_p = np.array([state.active[g] for g in self.p_ids], dtype=object)
        seg_q = np.array([state.reactive.get(g, MIDDLE) for g in self.q_ids],
                         dtype=object)
        self.p_mid, self.q_mid = seg_p == MIDDLE, seg_q == MIDDLE
        self.p_low, self.q_low = seg_p == LOWER, seg_q == LOWER
        self.st = _SquareStructure.of(lay, self.ref, resp, self.p_mid, self.q_mid)
        self.n = self.st.n
        self.p_box = lay.p_min[resp], lay.p_max[resp]
        self.q_box = lay.q_min[lay.gens], lay.q_max[lay.gens]
        self.p_pin = np.where(self.p_low, *self.p_box)
        self.q_pin = np.where(self.q_low, *self.q_box)
        self.alpha = lay.alpha[resp]
        # fixed layout template: base shunts, base non-responder output
        self.template = lay.pack(base.state)
        self.base_p = base.state.p_gen[resp]
        self.base_v = base.state.v[lay.gen_bus]

    def voltage_x(self, z):
        """The layout vector of z, flows still the template's."""
        x = self.template.copy()
        x[self.st.cols] = z[:-1]
        return x

    def full_x(self, z):
        x = self.voltage_x(z)
        x[self.lay.fl0:] = self.lay.flow_values(x).ravel()
        return x

    def start(self, point, delta):
        z = np.empty(self.n)
        z[:-1] = self.lay.pack(point.state)[self.st.cols]
        z[-1] = delta
        return z

    def residual(self, z):
        # z holds v, theta, the responders' p and every q, in that order
        nb, n_p = self.lay.nb, len(self.p_ids)
        p_gen, q_gen = z[2 * nb:2 * nb + n_p], z[2 * nb + n_p:-1]
        return np.concatenate((
            *self.lay.balance(self.full_x(z)), z[nb + self.ref:nb + self.ref + 1],
            np.where(self.p_mid, self.base_p + self.alpha * z[-1] - p_gen,
                     p_gen - self.p_pin),
            np.where(self.q_mid, self.base_v - z[self.lay.gen_bus], q_gen - self.q_pin)))

    def jacobian(self, z):
        """The Jacobian as `solve_square` takes it: the pattern and its raw
        values."""
        # every selected entry is a leading one, which reads no flow column
        st = self.st
        jv = self.lay.jac_head(self.voltage_x(z))
        return st.pattern, np.concatenate((jv[st.sel] * st.sign, st.const))

    def raw_point(self, z):
        """The point of the solution z for `compl.project_response`, which
        reads its voltages, angles, shunts and reactive outputs and
        recomputes the flows.  Its flows are NaN, not computed, so that any
        other reader fails loudly."""
        x = self.voltage_x(z)
        x[self.lay.fl0:] = np.nan
        st = self.lay.unpack(x)
        zero = np.zeros(self.lay.nb)
        return OperatingPoint(
            state=st, sig_p_plus=zero.copy(), sig_p_minus=zero.copy(),
            sig_q_plus=zero.copy(), sig_q_minus=zero.copy(),
            sig_s=np.zeros(self.lay.nbr), delta=float(z[-1]),
        )

    def updated_segments(self, state, z):
        """`state` after the pre-projection segment update at the solution z.

        A violated bound on a middle-segment variable pins it (upper bound
        violated -> upper segment, lower -> lower); a pinned segment whose
        one-sided response residual has the wrong sign releases back to
        middle so the loop can revisit it.
        """
        nb, n_p = self.lay.nb, len(self.p_ids)
        rho_p = self.base_p + self.alpha * z[-1] - self.p_pin
        rho_q = self.base_v - z[self.lay.gen_bus]
        new = state.copy()
        # a loop over plain floats: on arrays of about ten generators, each
        # numpy call would cost more than the scalar work it replaces
        for table, ids, mid, low, val, (lo, hi), rho in (
                (new.active, self.p_ids, self.p_mid, self.p_low,
                 z[2 * nb:2 * nb + n_p], self.p_box, rho_p),
                (new.reactive, self.q_ids, self.q_mid, self.q_low,
                 z[2 * nb + n_p:-1], self.q_box, rho_q)):
            for g, m, lw, v, vlo, vhi, r in zip(
                    ids, mid.tolist(), low.tolist(), val.tolist(), lo.tolist(),
                    hi.tolist(), rho.tolist()):
                if m:
                    if v > vhi + _BOUND_TOL:
                        table[g] = UPPER
                    elif v < vlo - _BOUND_TOL:
                        table[g] = LOWER
                elif r > _BOUND_TOL if lw else r < -_BOUND_TOL:
                    table[g] = MIDDLE
        return new


def fallback_result(net: Network, k, base: OperatingPoint, init_compl=None,
                    base_tag=""):
    """The guaranteed product of an evaluation: the base state projected into
    the response rules of the starting segments, with slacks absorbing every
    residual, priced."""
    state = compl_mod.initial_state(net, k, base, init_compl)
    point = compl_mod.project_response(state, net, k, base, base)
    return EvaluationResult(
        contingency_id=k.id, penalty=point_penalty(net, point, k.outaged),
        point=point, compl=state, method="fast", base_tag=base_tag,
        status="fallback")


def fast_evaluate(net: Network, k, base: OperatingPoint, time_limit=None,
                  cutoff=0.0, init_compl=None, base_tag="",
                  deterministic=False):
    """Upper-bound penalty estimate via the square-system response loop,
    starting from (and never worse than) `fallback_result`."""
    budget = _Budget(time_limit, deterministic)
    fallback = fallback_result(net, k, base, init_compl)
    state, point, best_pen = fallback.compl, fallback.point, fallback.penalty
    best = (point, state)
    status = "ok"

    # an infinite cutoff disables the cutoff exit entirely
    def below_cutoff(pen):
        return np.isfinite(cutoff) and pen <= cutoff

    prev_pen = None
    for round_no in range(FAST_MAX_ROUNDS):
        if budget.exhausted() or below_cutoff(best_pen):
            break
        sys_ = _SquareSystem(net, k, base, state)
        z0 = sys_.start(point, state.delta)
        res = solve_square(sys_.residual, sys_.jacobian, z0, tol=1e-10,
                           **budget.solver_kwargs(60))
        budget.charge(res.iterations)
        if not np.all(np.isfinite(res.x)):
            status = "fallback"
            break
        raw = sys_.raw_point(res.x)
        new_state = sys_.updated_segments(state, res.x)
        new_state.delta = raw.delta
        proj = compl_mod.project_response(new_state, net, k, base, raw)
        pen = point_penalty(net, proj, k.outaged)
        if pen < best_pen - 1e-15:
            best_pen = pen
            best = (proj, new_state)
        if prev_pen is not None and pen >= prev_pen - 1e-12:
            state = new_state
            point = proj
            break
        prev_pen = pen
        state = new_state
        point = proj
        if below_cutoff(pen):
            break

    return EvaluationResult(
        contingency_id=k.id, penalty=best_pen, point=best[0], compl=best[1],
        method="fast", base_tag=base_tag, elapsed=budget.elapsed(),
        status=status,
    )


def full_evaluate(net: Network, k, base: OperatingPoint, time_limit=None,
                  init_compl=None, base_tag="", deterministic=False,
                  segment_updates=True, start=None):
    """Penalty minimization with all-at-once complementarity updates.

    ``start`` warm-starts the first NLP (typically the fast engine's point,
    which anchors the search at an already-feasible penalty).  With
    ``segment_updates=False`` the initial segment assignment is kept and only
    a single solve is performed (used by the ablation harness).
    """
    budget = _Budget(time_limit, deterministic)
    state = compl_mod.initial_state(net, k, base, init_compl)

    best = None  # (penalty, point, state)
    prev_pen = None
    start_point = start
    rounds = []
    if start is not None:
        # the warm-start point is itself a feasible candidate; registering it
        # makes the returned penalty never worse than the seed's
        seeded = slacks_from_state(
            net, flows_from_state(net, start.state, k.outaged), k.outaged,
            delta=start.delta)
        best = (point_penalty(net, seeded, k.outaged), seeded, state.copy())
    for round_no in range(FULL_MAX_ROUNDS):
        if budget.exhausted():
            break
        prob = build_contingency_problem(net, k, base, state,
                                         start=start_point)
        sol = solve_nlp(prob, tol=1e-8, **budget.solver_kwargs(300))
        budget.charge(sol.iterations)
        rounds.append([sol.status, sol.iterations, sol.kkt_error, sol.lus,
                       sol.p_tests, sol.colamd_steps])
        if sol.status == "numerical_failure" or not np.all(np.isfinite(sol.x)):
            break

        point = prob.meta.extract_ctg(sol.x, k.id)
        # explicit penalty: price the minimal slacks of the solved state, never
        # the solver-reported objective
        repriced = slacks_from_state(
            net, flows_from_state(net, point.state, k.outaged), k.outaged,
            delta=point.delta)
        pen = point_penalty(net, repriced, k.outaged)

        state_now = state.copy()
        state_now.delta = repriced.delta
        if best is None or pen < best[0] - 1e-15:
            best = (pen, repriced, state_now)

        if not segment_updates:
            break
        signals = prob.meta.segment_signals(sol)
        new_state, changed = compl_mod.update_segments(state_now, signals)
        if prev_pen is not None:
            improvement = prev_pen - pen
            if improvement < 0:
                break  # restore previous best (already tracked)
            if improvement < max(1e-6, 1e-6 * abs(pen)):
                break
        if not changed:
            break
        prev_pen = pen
        state = new_state
        start_point = repriced

    if best is None:
        # degrade to the fast engine rather than report nothing
        result = fast_evaluate(net, k, base, time_limit=budget.remaining(),
                               init_compl=state, base_tag=base_tag,
                               deterministic=deterministic)
        result.elapsed = budget.elapsed()
        result.status = "degraded"
        result.nlp = rounds
        return result

    return EvaluationResult(
        contingency_id=k.id, penalty=best[0], point=best[1], compl=best[2],
        method="full", base_tag=base_tag, elapsed=budget.elapsed(),
        status="ok", nlp=rounds,
    )


def prescreen_then_evaluate(net: Network, k, base: OperatingPoint,
                            time_limit=None, cutoff=None, base_tag="",
                            deterministic=False):
    """Fast evaluation first; escalate to full when the penalty exceeds the
    cutoff, seeding the full engine with the fast result's segments.

    Each engine gets half of `time_limit`; in deterministic mode the halves
    are whole operations and the fast engine gets the odd one."""
    if cutoff is None:
        cutoff = default_cutoff(net)
    fast_limit = full_limit = None if time_limit is None else time_limit / 2
    if deterministic and time_limit is not None:
        ops = round(time_limit * _Budget.OPS_PER_SECOND)
        fast_limit = (ops - ops // 2) / _Budget.OPS_PER_SECOND
        full_limit = (ops // 2) / _Budget.OPS_PER_SECOND
    fast = fast_evaluate(net, k, base, time_limit=fast_limit, cutoff=cutoff,
                         base_tag=base_tag, deterministic=deterministic)
    if fast.penalty <= cutoff:
        return fast
    full = full_evaluate(net, k, base, time_limit=full_limit,
                         init_compl=fast.compl, start=fast.point,
                         base_tag=base_tag, deterministic=deterministic)
    return full
