"""Contingency evaluation engines.

Two engines estimate the post-contingency penalty of a base operating point:

* ``fast_evaluate`` packs the base point once and starts from
  `fallback_result`, that packed base projected into the response rules
  and priced.  Each round starts from the last projection's layout vector,
  solves a square system (the reduced polar power flow of `_SquareSystem`,
  with the response rule) with Newton steps, updates the segments, and
  projects and prices the solution alike, all on layout vectors and slack
  arrays; the result's point is built once, from the best.  The loop stops
  after a round priced at most the cutoff, or no more than 1e-12 of its
  size below the round before, or whose update kept its segments, or whose
  square solve failed (priced and kept if best), or when the budget or its
  rounds run out.  Each step's LU is dense (LAPACK) for a system of at most
  `nlp.DENSE_LU_MAX` = 150 rows (up to about 90 buses), where SuperLU's
  fixed cost per call outweighs the elimination, and sparse (SuperLU) above
  it: the crossover was measured between 151 and 168 rows (see
  `nlp.DENSE_LU_MAX` for how it has moved since).  Each round looks up its
  segment state's `_SegmentPlan` once, for its square system and its
  projection.  A Newton step's Jacobian is one fill of
  `CaseLayout.branch_jac`'s (4, 4, m) block, gathered at positions that
  `_SquareStructure` compiles, and the shunt entries, whose slopes are
  fixed per system; the values are the same floats, summed in the same
  order, as the selected entries of `CaseLayout.jac_head`.  It is cheap and
  yields an upper bound on the optimal penalty.
* ``full_evaluate`` solves the penalty-minimization NLP in a loop with
  all-at-once complementarity segment updates; without a given start, its
  first NLP starts from the same projected base point.

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
    _point,
    _projection,
    _SegmentPlan,
    _slack_penalty,
    build_contingency_problem,
    penalty_cost,
    reprice,
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
    """One contingency's evaluation: its penalty, operating point and
    segment state; the response perturbation δ is `compl.delta`."""
    contingency_id: str
    penalty: float
    point: OperatingPoint
    compl: compl_mod.ComplementarityState
    method: str  # "fast" | "full"
    base_tag: str = ""  # the evaluated base point's tag; set by the caller
    status: str = "ok"
    # [status, iterations, kkt_error, lus, colamd_steps, gmres_calls] of the
    # NLP of each full-evaluation segment round (see `nlp.NlpSolution`)
    nlp: list = field(default_factory=list)


def default_cutoff(net: Network):
    """Penalty a single slack of `VIOLATION_CUTOFF` per unit would cost."""
    return penalty_cost(net.penalty_config, VIOLATION_CUTOFF)


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
    """What a `_SquareSystem` compiles from its case alone, kept in the
    layout's `compiled` cache under the responders and their middle masks
    (see `of`): the unknown columns and kept balance rows, the Jacobian
    pattern with its LU (dense up to `nlp.DENSE_LU_MAX` rows, else SuperLU
    with the ordering it keeps), where its values come from, and the
    reactive shares.  Jacobian: each acpf flow-row entry, negated, goes into
    the balance row of its flow's end bus, balance-row entries stay as they
    are, and those in a dropped row or on a parameter column are left out;
    then alpha in the P row of each middle responder's bus, on delta's
    column.  Repeated (row, col) pairs add up, in acpf's entry order.  The
    selected entries are flow-row entries, compiled as positions `blk_pos`
    in `CaseLayout.branch_jac`'s (4, 4, m) block, then the P and Q rows'
    shunt entries on v columns, as positions `shunt_pos` in the flattened
    (2, nb) `CaseLayout.shunts` (the other balance-row entries lie on bcs,
    p or q columns, which are parameters).  The middle generators at
    a PV bus supply its Q together, each its q_min plus a share of the rest
    in proportion to its reactive range (equal shares if all are 0), as
    MATPOWER's ``pfsoln`` does: q = q_floor + q_share * Q."""

    @classmethod
    def of(cls, lay, ref, resp, p_mid, q_mid):
        key = ("square", resp.tobytes(), p_mid.tobytes(), q_mid.tobytes())
        st = lay.compiled.get(key)
        if st is None:
            st = lay.compiled[key] = cls(lay, ref, resp, p_mid, q_mid)
        return st

    def __init__(self, lay, ref, resp, p_mid, q_mid):
        nb, m = lay.nb, lay.m
        pq_bus = np.setdiff1d(np.arange(nb), lay.gen_bus[q_mid])
        self.cols = np.concatenate((lay.v0 + pq_bus,
                                    lay.th0 + np.delete(np.arange(nb), ref)))
        # balance rows kept, P then Q, as indices of `lay.balance`'s (P, Q)
        self.rows = np.concatenate((np.arange(nb), nb + pq_bus))
        self.n = len(self.rows)
        col_pos = np.full(lay.nvar, -1)
        col_pos[self.cols] = np.arange(self.n - 1)
        # system row of each acpf row (-1 for the rating rows and dropped ones)
        row_pos = np.full(2 * nb + 1, -1)
        row_pos[self.rows] = np.arange(self.n)
        jr, jc = lay.jac_pattern()
        r = row_pos[np.concatenate((lay.bal_row[lay.fl0 - lay.p0:], np.arange(2 * nb),
                                    np.full(lay.nrows - 4 * m - 2 * nb, 2 * nb)))[jr]]
        sel = np.flatnonzero((r >= 0) & (col_pos[jc] >= 0))
        n_blk = np.searchsorted(sel, 16 * m)
        b, side, wrt = np.unravel_index(sel[:n_blk], (m, 4, 4))
        self.blk_pos = np.ravel_multi_index((wrt, side, b), (4, 4, m))
        self.shunt_pos = sel[n_blk:] - 16 * m
        self.shunt_v = lay.v0 + self.shunt_pos % nb
        mid = resp[p_mid]
        self.const = lay.alpha[mid]
        # the one place a square system picks its LU by size
        lu_pattern = (_DenseLuPattern if self.n <= nlp_mod.DENSE_LU_MAX
                      else _LuPattern)
        self.pattern = lu_pattern(
            np.concatenate((r[sel], lay.gen_bus[lay.gen_col[mid]])),
            np.concatenate((col_pos[jc[sel]], np.full(len(mid), self.n - 1))),
            self.n)
        g = np.flatnonzero(q_mid)
        bus, q_min = lay.gen_bus[g], lay.q_min[lay.gens[g]]
        self.q_cols, self.q_rows = lay.q0 + g, nb + bus
        span = lay.q_max[lay.gens[g]] - q_min
        total = np.bincount(bus, span, nb)[bus]
        self.q_share = np.divide(span, total, where=total > 0,
                                 out=1.0 / np.bincount(bus, minlength=nb)[bus])
        self.q_floor = q_min - self.q_share * np.bincount(bus, q_min, nb)[bus]


class _SquareSystem:
    """Square response system for one contingency and one segment
    assignment, in the reduced polar form of the Newton power flow (Tinney
    & Hart 1967; MATPOWER's ``newtonpf``).

    A PV bus is the bus of an available generator whose reactive segment is
    middle.  Unknowns: v at the other buses, theta at all but the reference
    bus, and the response scalar delta.  Rows: slack-free P balance at every
    bus and Q balance at the non-PV buses, 2 nb - |PV| each way.  The rest
    are parameters in the template that each evaluation starts from, a copy
    of `base_x` (the base point packed in k's layout, which is never
    changed): theta_ref = 0, base voltages at PV buses, base shunts,
    non-responders' base output, lower/upper pins, and middle generators' q
    at 0.  An evaluation writes p = p_base + alpha delta for middle
    responders and computes the flows from the voltages.  `expand` recovers the middle
    generators' q from their buses' Q mismatch (see `_SquareStructure`).
    The segment assignment comes as its `_SegmentPlan` `plan`.
    """

    def __init__(self, net, k, base_x, plan):
        lay = self.lay = CaseLayout.of(net, k.outaged)
        self.ref = net.bus_index(net.reference_bus)

        # a middle segment follows the response rule (active) or holds the
        # base voltage (reactive: a PV bus); lower/upper pin the output.
        # The segments' compiled arrays are the plan's and the structure's;
        # only base-point data is built here
        self.plan = plan
        st = self.st = _SquareStructure.of(lay, self.ref, plan.resp, plan.p_mid,
                                           plan.q_mid)
        self.n = st.n
        self.base_p = base_x[plan.p_cols]
        self.base_v = base_x[lay.v0 + lay.gen_bus]
        x = self.template = base_x.copy()
        x[lay.th0 + self.ref] = 0.0
        x[plan.pin_cols] = plan.pins
        x[lay.q0:lay.fl0] = plan.q_pins
        self._mid = (plan.mid_cols, base_x[plan.mid_cols], plan.mid_alpha)
        self._at = (None,)  # (z, x, terms, balance) of the last residual
        # the shunt entries' slopes in v, 2 shunts(x): bcs is a parameter
        self._dshunt = (2.0 * lay.shunts(x)).ravel()[st.shunt_pos]
        self._blk = np.empty((4, 4, lay.m))
        n_blk, n_sel = len(st.blk_pos), len(st.blk_pos) + len(st.shunt_pos)
        self._vals = np.concatenate((np.empty(n_sel), st.const))
        self._vals_blk, self._vals_shunt = self._vals[:n_blk], self._vals[n_blk:n_sel]

    def start(self, x, delta):
        """The unknowns at layout vector x and response delta."""
        z = np.empty(self.n)
        x.take(self.st.cols, out=z[:-1])
        z[-1] = delta
        return z

    def residual(self, z):
        # z holds v at non-PV buses, theta at non-reference buses, and delta;
        # the flows go straight into the balance, and x's stay unread
        lay, (cols, base_p, alpha) = self.lay, self._mid
        x = self.template.copy()
        x[self.st.cols] = z[:-1]
        x[cols] = base_p + alpha * z[-1]
        terms = lay.branch_terms(x)
        bal = lay.balance(x, lay.flow_values(x, terms))
        self._at = (z, x, terms, bal)
        return bal[self.st.rows]

    def _evaluated(self, z):
        # the last residual's work if it was given this very array (which
        # its caller must not have changed since), else redone at z
        if self._at[0] is not z:
            self.residual(z)
        return self._at

    def jacobian(self, z):
        """The Jacobian as `solve_square` takes it, the pattern and its raw
        values, from the layout vector and branch terms of the residual at
        z (`solve_square` asks for it only at the array its last residual
        call was given, so that call's work is reused).  The values are an
        array of the system's own, which the next call overwrites: the
        selected entries of the branch block, negated, the shunt entries,
        then the constants."""
        st, blk = self.st, self._blk
        _, x, terms, _ = self._evaluated(z)
        self.lay.branch_jac(blk, terms)
        np.negative(blk.take(st.blk_pos), out=self._vals_blk)
        np.multiply(self._dshunt, x[st.shunt_v], out=self._vals_shunt)
        return st.pattern, self._vals

    def expand(self, z):
        """The full point of z: its layout vector, with the parameters, the
        unknowns, the middle responders' p and the middle generators'
        recovered q, but NaN flows; then delta."""
        st, fl0 = self.st, self.lay.fl0
        _, x, _, bal = self._evaluated(z)
        w = np.empty(len(x) + 1)
        w[:fl0] = x[:fl0]
        w[fl0:-1] = np.nan
        w[-1] = z[-1]
        w[st.q_cols] = st.q_floor - st.q_share * bal[st.q_rows]
        return w

    def updated_segments(self, state, w):
        """`state` after the pre-projection segment update at the full point
        w (see `expand`): a violated bound on a middle-segment variable pins
        it (upper bound violated -> upper segment, lower -> lower); a pinned
        segment whose one-sided response residual has the wrong sign
        releases back to middle so the loop can revisit it."""
        lay, plan = self.lay, self.plan
        rho_p = self.base_p + plan.alpha * w[-1] - plan.p_pin
        rho_q = self.base_v - w[lay.v0 + lay.gen_bus]
        new = state.copy()
        # a loop over plain floats: on arrays of about ten generators, each
        # numpy call would cost more than the scalar work it replaces
        for table, ids, mid, low, val, (lo, hi), rho in (
                (new.active, plan.p_ids, plan.p_mid, plan.p_low,
                 w[plan.p_cols], plan.p_box, rho_p),
                (new.reactive, plan.q_ids, plan.q_mid, plan.q_low,
                 w[lay.q0:lay.fl0], plan.q_box, rho_q)):
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


def fallback_result(net: Network, k, base: OperatingPoint):
    """The guaranteed product of an evaluation: the base state projected into
    the response rules of the starting segments, with slacks absorbing every
    residual, priced; the fast engine with no budget."""
    res = fast_evaluate(net, k, base, time_limit=0, deterministic=True)
    res.status = "fallback"
    return res


def fast_evaluate(net: Network, k, base: OperatingPoint, time_limit=None,
                  cutoff=0.0, init_compl=None, deterministic=False):
    """Upper-bound penalty estimate via the square-system response loop,
    starting from (and never worse than) `fallback_result`."""
    budget = _Budget(time_limit, deterministic)
    lay = CaseLayout.of(net, k.outaged)
    base_x, p_base = lay.pack(base.state), base.state.p_gen
    state = compl_mod.initial_state(net, k, base, init_compl)
    # the plan of `state`, for its projection and its round's square system
    plan = _SegmentPlan.of(lay, state)
    x, slacks = _projection(lay, plan, state.delta, p_base, base_x)
    best_pen, best = _slack_penalty(net, slacks), (x, slacks, state)
    status = "ok"

    # an infinite cutoff disables the cutoff exit entirely
    def below_cutoff(pen):
        return np.isfinite(cutoff) and pen <= cutoff

    prev_pen = None
    for round_no in range(FAST_MAX_ROUNDS):
        if budget.exhausted() or below_cutoff(best_pen):
            break
        sys_ = _SquareSystem(net, k, base_x, plan)
        res = solve_square(sys_.residual, sys_.jacobian, sys_.start(x, state.delta),
                           tol=1e-10, **budget.solver_kwargs(60))
        budget.charge(res.iterations)
        if not np.isfinite(res.x).all():
            status = "fallback"
            break
        full = sys_.expand(res.x)
        new_state = sys_.updated_segments(state, full)
        new_state.delta = float(full[-1])
        plan = _SegmentPlan.of(lay, new_state)
        x, slacks = _projection(lay, plan, new_state.delta, p_base, full)
        pen = _slack_penalty(net, slacks)
        if pen < best_pen - 1e-15:
            best_pen, best = pen, (x, slacks, new_state)
        # a failed solve's point is priced but starts no other round, nor
        # does one whose update kept its segments (the next would re-solve them)
        kept = (new_state.active, new_state.reactive) == (state.active, state.reactive)
        if res.status == nlp_mod.FAILED or kept:
            break
        state = new_state
        # no decrease beyond rounding, relative to the penalty's size
        if prev_pen is not None and pen >= prev_pen - 1e-12 * max(1.0, prev_pen):
            break
        prev_pen = pen
        if below_cutoff(pen):
            break

    x, slacks, state = best
    return EvaluationResult(
        contingency_id=k.id, penalty=best_pen,
        point=_point(lay, slacks, lay.unpack(x)), compl=state,
        method="fast", status=status,
    )


def full_evaluate(net: Network, k, base: OperatingPoint, time_limit=None,
                  init_compl=None, deterministic=False, segment_updates=True,
                  start=None):
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
        seeded, pen = reprice(net, start.state, k.outaged)
        best = (pen, seeded, state.copy())
    for round_no in range(FULL_MAX_ROUNDS):
        if budget.exhausted():
            break
        prob = build_contingency_problem(net, k, base, state,
                                         start=start_point)
        sol = solve_nlp(prob, tol=1e-8, **budget.solver_kwargs(300))
        budget.charge(sol.iterations)
        rounds.append([sol.status, sol.iterations, sol.kkt_error, sol.lus,
                       sol.colamd_steps, sol.gmres_calls])
        if sol.status == "numerical_failure" or not np.all(np.isfinite(sol.x)):
            break

        point, delta = prob.meta.extract_ctg(sol.x, k.id)
        # explicit penalty: price the minimal slacks of the solved state, never
        # the solver-reported objective
        repriced, pen = reprice(net, point.state, k.outaged)

        state_now = state.copy()
        state_now.delta = delta
        if best is None or pen < best[0] - 1e-15:
            best = (pen, repriced, state_now)

        if not segment_updates:
            break
        evidence = prob.meta.segment_evidence(sol, k.id)
        new_state, changed = compl_mod.update_segments(state_now, evidence)
        # a rise, or a fall below the tolerance (the best is already kept)
        if prev_pen is not None and prev_pen - pen < max(1e-6, 1e-6 * abs(pen)):
            break
        if not changed:
            break
        prev_pen = pen
        state = new_state
        start_point = repriced

    if best is None:
        # degrade to the fast engine rather than report nothing
        result = fast_evaluate(net, k, base, time_limit=budget.remaining(),
                               init_compl=state, deterministic=deterministic)
        result.status = "degraded"
        result.nlp = rounds
        return result

    return EvaluationResult(
        contingency_id=k.id, penalty=best[0], point=best[1], compl=best[2],
        method="full", status="ok", nlp=rounds,
    )


def prescreen_then_evaluate(net: Network, k, base: OperatingPoint,
                            time_limit=None, cutoff=None, deterministic=False):
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
                         deterministic=deterministic)
    if fast.penalty <= cutoff:
        return fast
    full = full_evaluate(net, k, base, time_limit=full_limit,
                         init_compl=fast.compl, start=fast.point,
                         deterministic=deterministic)
    return full
