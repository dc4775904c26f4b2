"""Concrete NLP instances: base-case dispatch, single-contingency penalty
minimization, and the master problem over a selected contingency subset.

Piecewise-linear generation costs and constraint-violation penalties are
realized with epigraph auxiliary variables and affine inequalities.  Flow
definitions stay as explicit equations over flow variables (no elimination).
Every branch rating pair shares one nonnegative slack entering inside the
square of the rating bound; bus balance carries split +/- slack pairs.  The
base case is held to the normal ratings and every contingency to the
emergency ratings: the outage picks the set (see `acpf.CaseLayout`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acpf import CaseLayout, FlowState
from .case_model import Network, PenaltyConfig

__all__ = [
    "OperatingPoint",
    "MasterSpec",
    "CaseStructure",
    "generation_cost",
    "penalty_cost",
    "point_penalty",
    "slacks_from_state",
    "reprice",
    "project_response",
    "build_base_problem",
    "build_contingency_problem",
    "build_master_problem",
    "total_score",
]

INF = float("inf")

LOWER, MIDDLE, UPPER = "lower", "middle", "upper"

# widest response perturbation considered anywhere (shared with compl)
DELTA_MAX = 1e3


@dataclass
class OperatingPoint:
    """A flow state plus the slacks of one case (base or contingency).

    `slacks` has length 4 nb + nbr: the P+, P-, Q+ and Q- balance slacks per
    bus, then one rating slack per branch in network order, 0 for an outaged
    branch and for one whose rating row a block skips (`CaseLayout.slack_pos`
    places `_slacks`' entries).  A contingency point's response perturbation
    is its segment state's `delta`.
    """

    state: FlowState
    slacks: np.ndarray

    def copy(self):
        return OperatingPoint(self.state.copy(), self.slacks.copy())

    def slack_vector(self):
        """All slacks in canonical order: bus P, bus Q, line, transformer."""
        nb4 = 4 * len(self.state.v)
        p_plus, p_minus, q_plus, q_minus = self.slacks[:nb4].reshape(4, -1)
        return np.concatenate((p_plus + p_minus, q_plus + q_minus, self.slacks[nb4:]))


# --- piecewise-linear functions ----------------------------------------------

class _Curve:
    """Convex piecewise-linear curve through (0, 0): slopes[i] holds up to
    breaks[i], the last slope beyond the last break, and the first below 0.
    `line_slopes`/`line_icpts` are its supporting lines, whose max is the
    curve (a repeat of the line before it is dropped)."""

    def __init__(self, breaks, slopes):
        starts, vals = [0.0], [0.0]
        for brk, slope in zip(breaks, slopes):
            vals.append(vals[-1] + slope * (brk - starts[-1]))
            starts.append(brk)
        self.starts, self.vals = np.array(starts), np.array(vals)
        self._ends = self.starts[1:]
        self.slopes = np.array(list(slopes[:len(breaks)]) + [slopes[-1]], dtype=float)
        icpts = self.vals - self.slopes * self.starts
        new = np.ones(len(icpts), dtype=bool)
        new[1:] = (self.slopes[1:] != self.slopes[:-1]) | (icpts[1:] != icpts[:-1])
        self.line_slopes, self.line_icpts = self.slopes[new], icpts[new]

    def value(self, x):
        """Curve value at x (a scalar or an array)."""
        # the last start at or below x, the first below 0 (starts[0] is 0)
        i = self._ends.searchsorted(x, side="right")
        return self.vals[i] + self.slopes[i] * (x - self.starts[i])

    def of_slacks(self, slacks):
        """Value at each nonnegative slack; 0 at and below 0."""
        return np.where(slacks <= 0.0, 0.0, self.value(slacks))

    def total(self, slacks):
        """``float(of_slacks(slacks).sum())`` in fewer numpy calls, the same
        float for any array: np.maximum(s, 0.0) takes each entry at or below
        0, -0.0 included, to a zero that the first segment prices at
        0.0 + slopes[0] * (+-0.0), which is of_slacks' +0.0 for a finite
        slope; NaN stays NaN, and the sum adds the same entries in the same
        order."""
        s = np.maximum(slacks, 0.0)
        i = self._ends.searchsorted(s, side="right")
        s -= self.starts.take(i)
        s *= self.slopes.take(i)
        s += self.vals.take(i)
        return float(s.sum())


def _curves(net: Network):
    """(penalty curve, cost curve per generator or None without one),
    compiled once per network into its base layout's `compiled`."""
    compiled = CaseLayout.of(net).compiled
    if "curves" not in compiled:
        compiled["curves"] = (
            _Curve(net.penalty_config.breakpoints, net.penalty_config.slopes),
            [_Curve(*zip(*g.cost_curve)) if g.cost_curve else None
             for g in net.generators])
    return compiled["curves"]


def generation_cost(net: Network, p_gen):
    """Total convex piecewise-linear generation cost at active outputs p_gen."""
    total = 0.0
    for curve, p in zip(_curves(net)[1], p_gen):
        if curve is not None:
            total += float(curve.value(float(p)))
    return total


def penalty_cost(cfg: PenaltyConfig, slack_total):
    """Convex piecewise-linear penalty of one nonnegative slack value."""
    curve = _Curve(cfg.breakpoints, cfg.slopes)
    return float(curve.of_slacks(np.asarray(slack_total, dtype=float)))


def point_penalty(net: Network, point: OperatingPoint, outaged=None):
    """Explicit penalty of an operating point: sum over its slacks, gathered
    into `_slacks`' order (the outaged branch's 0 left out)."""
    return _slack_penalty(net, point.slacks[CaseLayout.of(net, outaged).slack_pos])


def _slack_penalty(net: Network, slacks):
    """Penalty of slacks in `point_penalty`'s (and `_slacks`') order."""
    return _curves(net)[0].total(slacks)


# the signs of `_slacks`' balance entries: -P, +P, -Q, +Q
_BALANCE_SIGNS = np.array([[-1.0], [1.0]])


def _slacks(lay: CaseLayout, x, flows=None):
    """The slacks that exactly absorb layout vector x's residuals, the unique
    minimal-slack assignment: the P+, P-, Q+ and Q- balance slacks per bus,
    then the rating slack per in-service branch, at `lay.slack_pos`
    of an `OperatingPoint`'s slacks.  x's flows, or `flows` if given (as
    `CaseLayout.balance` takes them, equal to x's), are trusted as given.
    One new array, filled in place: the signed mismatches, the larger
    end's rating excess, then ``np.maximum(0.0, s)``."""
    nb = lay.nb
    s = np.empty(4 * nb + lay.m)
    np.multiply(lay.balance(x, flows).reshape(2, 1, nb), _BALANCE_SIGNS,
                out=s[:4 * nb].reshape(2, 2, nb))
    lhs, rhs = lay.ratings(x, flows)
    over = np.sqrt(lhs)
    over -= rhs
    np.maximum(over[0], over[1], out=s[4 * nb:])
    return np.maximum(0.0, s, out=s)


def _point(lay: CaseLayout, slacks, state: FlowState):
    """The operating point of `state` with `_slacks`' array `slacks`,
    scattered to `lay.slack_pos`."""
    full = np.zeros(4 * lay.nb + lay.nbr)
    full[lay.slack_pos] = slacks
    return OperatingPoint(state, full)


class _SegmentPlan:
    """What one segment assignment compiles from a contingency's
    `CaseLayout`, cached in its `compiled` under the active and reactive
    segment of every available generator (see `of`); no base-point data.
    A generator with an active segment responds; a missing reactive segment
    is middle.  `_projection` reads the middle responders' columns,
    generators, alpha and box, the pinned ones' columns and pins, and the
    reactive pins with the middle q's columns and box;
    `compl.init_generator_outage` reads the responders' ids, generators,
    alpha and box; `eval._SquareSystem` reads the rest."""

    @classmethod
    def of(cls, lay, state):
        key = ("plan", tuple(map(state.active.get, lay.gen_ids)),
               tuple(map(state.reactive.get, lay.gen_ids)))
        plan = lay.compiled.get(key)
        if plan is None:
            plan = lay.compiled[key] = cls(lay, *key[1:])
        return plan

    def __init__(self, lay, seg_p, seg_q):
        pos = np.flatnonzero([s is not None for s in seg_p])
        seg_p = np.array(seg_p, dtype=object)[pos]
        seg_q = np.array([MIDDLE if s is None else s for s in seg_q], dtype=object)
        self.resp, self.p_cols = lay.gens[pos], lay.p0 + pos
        self.p_ids, self.q_ids = [lay.gen_ids[i] for i in pos], lay.gen_ids
        self.p_mid, self.q_mid = seg_p == MIDDLE, seg_q == MIDDLE
        self.p_low, self.q_low = seg_p == LOWER, seg_q == LOWER
        self.p_box = lay.p_min[self.resp], lay.p_max[self.resp]
        self.q_box = lay.q_min[lay.gens], lay.q_max[lay.gens]
        self.p_pin = np.where(self.p_low, *self.p_box)
        self.alpha = lay.alpha[self.resp]
        mid, pin = self.p_mid, ~self.p_mid
        self.mid_cols, self.mid_gens = self.p_cols[mid], self.resp[mid]
        self.mid_alpha, self.mid_box = self.alpha[mid], (self.p_box[0][mid], self.p_box[1][mid])
        self.pin_cols, self.pins = self.p_cols[pin], self.p_pin[pin]
        # q of the pinned generators, and 0 (a parameter) at the middle ones
        self.q_pins = np.where(self.q_mid, 0.0, np.where(self.q_low, *self.q_box))
        self.q_mid_cols = lay.q0 + np.flatnonzero(self.q_mid)
        self.q_mid_box = self.q_box[0][self.q_mid], self.q_box[1][self.q_mid]
        # each family's (id, middle, lower, low, high) per member in plain
        # Python values, which the square system's segment update loops over
        self.p_rules, self.q_rules = (
            list(zip(ids, mid.tolist(), low.tolist(), lo.tolist(), hi.tolist()))
            for ids, mid, low, (lo, hi) in ((self.p_ids, self.p_mid, self.p_low, self.p_box),
                                            (self.q_ids, self.q_mid, self.q_low, self.q_box)))


def _clip(a, lo, hi):
    # np.clip's arithmetic, without the cost of its wrapper
    return np.minimum(np.maximum(a, lo), hi)


def _projection(lay: CaseLayout, plan, delta, p_base, raw):
    """(x, slacks): the layout vector `raw` of `lay`'s case projected into
    the response rules of a segment state's `_SegmentPlan` `plan` at base
    outputs `p_base`, and its `_slacks`.  v, bcs and middle q are clipped
    to their boxes, pinned segments sit on their bound, middle responders'
    p on the response rule at response `delta`, other p at base, and the
    flows are recomputed and handed to `_slacks` as they are, so pricing
    needs no transposes.  Only raw's v, theta, bcs and q columns are read,
    so its flows may be NaN and entries past `nvar` (as
    `eval._SquareSystem.expand`'s delta) stay unread."""
    x = np.empty(lay.nvar)
    x[lay.v0:lay.p0] = _clip(raw[lay.v0:lay.p0], *lay.bus_box)
    x[lay.p0:lay.q0] = p_base[lay.gens]
    x[plan.pin_cols] = plan.pins
    x[plan.mid_cols] = _clip(p_base[plan.mid_gens] + plan.mid_alpha * delta,
                             *plan.mid_box)
    x[lay.q0:lay.fl0] = plan.q_pins
    x[plan.q_mid_cols] = _clip(raw[plan.q_mid_cols], *plan.q_mid_box)
    flows = lay.flow_values(x)
    lay.flow_vars(x)[:] = flows
    return x, _slacks(lay, x, flows)


def project_response(state, net: Network, k, base: OperatingPoint, raw):
    """The operating point of `_projection` of the layout vector `raw` of k's
    `CaseLayout` into segment state `state` at base point `base`."""
    lay = CaseLayout.of(net, k.outaged)
    x, slacks = _projection(lay, _SegmentPlan.of(lay, state), state.delta,
                            base.state.p_gen, raw)
    return _point(lay, slacks, lay.unpack(x))


def slacks_from_state(net: Network, state: FlowState, outaged=None):
    """Operating point whose slacks exactly absorb the state's residuals.

    This is the unique minimal-slack assignment making the point feasible;
    flows in `state` are trusted as given.  Ratings are the base set for
    ``outaged is None`` and the contingency set otherwise.
    """
    lay = CaseLayout.of(net, outaged)
    return _point(lay, _slacks(lay, lay.pack(state)), state.copy())


def flows_from_state(net: Network, state: FlowState, outaged=None):
    """Recompute branch flows from the voltages."""
    return reprice(net, state, outaged)[0].state


def reprice(net: Network, state: FlowState, outaged=None):
    """(point, penalty): `state` with its flows recomputed from the voltages
    and the minimal slacks that absorb its residuals (`slacks_from_state`),
    and their penalty (`point_penalty`), from one packed vector and one
    `_slacks` array, priced before `_point` scatters it.  The point keeps
    every other entry of `state`."""
    lay = CaseLayout.of(net, outaged)
    x = lay.pack(state)
    flows = lay.flow_values(x)
    lay.flow_vars(x)[:] = flows
    slacks = _slacks(lay, x, flows)
    out = state.copy()
    out.flows[:] = 0.0
    out.flows[lay.svc] = lay.flow_vars(x)
    return _point(lay, slacks, out), _slack_penalty(net, slacks)


def default_start(net: Network):
    """Neutral interior base-case starting point: midpoints, zero angles,
    defined flows."""
    nb = len(net.buses)
    ng = len(net.generators)
    state = FlowState(
        v=np.array([(b.v_min + b.v_max) / 2 for b in net.buses]),
        theta=np.zeros(nb),
        bcs=np.array([(b.bcs_min + b.bcs_max) / 2 for b in net.buses]),
        p_gen=np.array([(g.p_min + g.p_max) / 2 for g in net.generators]),
        q_gen=np.array([(g.q_min + g.q_max) / 2 for g in net.generators]),
        flows=np.zeros((len(net.branches), 4)),
    )
    return reprice(net, state)[0]


# --- problem assembly --------------------------------------------------------

class _Block:
    """Variables and rows of one case (base or one contingency).

    Block-local variable order: the `CaseLayout` columns of the case (live
    columns only), bus slack quadruple, shared rating slacks for rated
    branches, penalty epigraph auxiliaries (one per slack), then cost
    epigraph auxiliaries (base block only).  The case's ratings follow
    `CaseLayout`: base set for the base case, contingency set otherwise.
    Equality rows: flow definitions, P/Q balance, reference angle.
    Inequality rows: rating pairs, penalty epigraph, cost epigraph.

    The Jacobian and Hessian patterns are fixed at construction, in
    block-local rows and columns: ``jac_eq_var``/``jac_ineq_var`` and
    ``hess_var`` hold the (rows, cols) of the entries that `jac_values` and
    `hess_values` fill, ``jac_eq_const``/``jac_ineq_const`` the (rows, cols,
    values) of the constant entries.
    """

    def __init__(self, net: Network, outaged=None, skip_rating=(),
                 with_cost=False, pen_weight=1.0):
        self.pen_weight = pen_weight
        lay = CaseLayout.of(net, outaged)
        self.layout = lay
        nb, m = lay.nb, lay.m

        skip = set(skip_rating)
        # in-service positions of the rated branches, and which are lines
        self.rated_j = np.array([j for j, (_, br) in enumerate(lay.in_service)
                                 if br.id not in skip], dtype=int)
        self.rated_lines = np.flatnonzero(lay.is_line[self.rated_j])
        self._line_rate = np.repeat(lay.rate[self.rated_j[self.rated_lines]], 2)
        nr = len(self.rated_j)
        o = lay.nvar
        self.sPp0, self.sPm0 = o, o + nb
        self.sQp0, self.sQm0 = o + 2 * nb, o + 3 * nb
        self.sS0 = o + 4 * nb
        self.n_slacks = 4 * nb + nr
        # positions of the slack columns in an `OperatingPoint`'s slacks
        self._slack_pos = np.concatenate((np.arange(4 * nb), 4 * nb + lay.svc[self.rated_j]))
        self.pen0 = self.sS0 + nr
        pen, costs = _curves(net)
        self.cost_gens = np.array([gi for gi in lay.gens if costs[gi] is not None]
                                  if with_cost else [], dtype=int)
        self.cost0 = self.pen0 + self.n_slacks
        self.nvar = self.cost0 + len(self.cost_gens)

        # epigraph rows: slope * x + intercept - aux <= 0
        self._pen = pen
        self._costs = [costs[gi] for gi in self.cost_gens]
        n_lines = [len(c.line_slopes) for c in self._costs]
        self._cost_p = np.repeat(lay.p0 + lay.gen_col[self.cost_gens], n_lines)
        self._cost_t = np.repeat(self.cost0 + np.arange(len(n_lines)), n_lines)
        self._cost_slope = np.concatenate([c.line_slopes for c in self._costs] + [[]])
        self._cost_icpt = np.concatenate([c.line_icpts for c in self._costs] + [[]])

        self.eq_bal0 = 4 * m
        self.eq_ref = 4 * m + 2 * nb
        self.n_eq = self.eq_ref + 1
        self.ineq_pen0 = 2 * nr
        self.ineq_cost0 = self.ineq_pen0 + self.n_slacks * len(pen.line_slopes)
        self.n_ineq = self.ineq_cost0 + len(self._cost_p)
        self.ref_idx = net.bus_index(net.reference_bus)

        # Jacobian: acpf flow rows enter negated as flow definitions, balance
        # rows as they are (same row numbers), rated rating rows as the
        # rating inequalities; each rating row also gets its slack term
        # d/ds -(rhs + s)^2 = -2 (rhs + s), plus -2 r s on v for a line
        jr, jc = lay.jac_pattern()
        nfb = 4 * m + 2 * nb
        self._w_rat = nfb + (2 * self.rated_j[:, None] + [0, 1]).ravel()
        iq_row = np.full(lay.nrows, -1)
        iq_row[self._w_rat] = np.arange(2 * nr)
        self._jeq = np.flatnonzero(jr < nfb)
        self._jeq_sign = np.where(jr[self._jeq] < 4 * m, -1.0, 1.0)
        self._jiq = np.flatnonzero(iq_row[jr] >= 0)
        s_cols = self.sS0 + np.arange(nr)
        line_rows = (2 * self.rated_lines[:, None] + [0, 1]).ravel()
        line_v = (lay.v0 + lay.ends[self.rated_j[self.rated_lines]]).ravel()
        self.jac_eq_var = (jr[self._jeq], jc[self._jeq])
        self.jac_ineq_var = (
            np.concatenate((iq_row[jr[self._jiq]], np.arange(2 * nr), line_rows)),
            np.concatenate((jc[self._jiq], np.repeat(s_cols, 2), line_v)))

        bus = np.arange(nb)
        self.jac_eq_const = (
            np.concatenate((np.arange(4 * m), np.tile(self.eq_bal0 + bus, 2),
                            np.tile(self.eq_bal0 + nb + bus, 2), [self.eq_ref])),
            np.concatenate((np.arange(lay.fl0, lay.nvar), self.sPp0 + bus,
                            self.sPm0 + bus, self.sQp0 + bus, self.sQm0 + bus,
                            [lay.th0 + self.ref_idx])),
            np.concatenate((np.ones(4 * m), np.repeat([1.0, -1.0, 1.0, -1.0], nb),
                            [1.0])))
        n_pen = self.n_slacks * len(pen.line_slopes)
        n_cost = len(self._cost_p)
        pen_rows = self.ineq_pen0 + np.arange(n_pen)
        cost_rows = self.ineq_cost0 + np.arange(n_cost)
        slack_j = np.repeat(np.arange(self.n_slacks), len(pen.line_slopes))
        self.jac_ineq_const = (
            np.concatenate((pen_rows, pen_rows, cost_rows, cost_rows)),
            np.concatenate((self.sPp0 + slack_j, self.pen0 + slack_j,
                            self._cost_p, self._cost_t)),
            np.concatenate((np.tile(pen.line_slopes, self.n_slacks), -np.ones(n_pen),
                            self._cost_slope, -np.ones(n_cost))))

        # Hessian: acpf curvature, plus the rating slack curvature -2 on s
        # and -2 r on (s, v) for a line
        hr, hc = lay.hess_pattern()
        self.hess_var = (
            np.concatenate((hr, np.repeat(s_cols, 2),
                            np.repeat(s_cols[self.rated_lines], 2))),
            np.concatenate((hc, np.repeat(s_cols, 2), line_v)))

    def bounds(self):
        lay = self.layout
        lb = np.full(self.nvar, -INF)
        ub = np.full(self.nvar, INF)
        lb[lay.v0:lay.p0], ub[lay.v0:lay.p0] = lay.bus_box
        lb[lay.p0:lay.q0], ub[lay.p0:lay.q0] = lay.p_min[lay.gens], lay.p_max[lay.gens]
        lb[lay.q0:lay.fl0], ub[lay.q0:lay.fl0] = lay.q_min[lay.gens], lay.q_max[lay.gens]
        # balance/rating slacks and penalty auxiliaries are nonnegative
        lb[self.sPp0:self.pen0 + self.n_slacks] = 0.0
        return lb, ub

    def objective_coefs(self):
        c = np.zeros(self.nvar)
        c[self.pen0:self.pen0 + self.n_slacks] = self.pen_weight
        c[self.cost0:] = 1.0
        return c

    def point_of(self, xb):
        slacks = np.zeros(4 * self.layout.nb + self.layout.nbr)
        slacks[self._slack_pos] = xb[self.sPp0:self.pen0]
        return OperatingPoint(self.layout.unpack(xb), slacks)

    def inject(self, point: OperatingPoint):
        xb = np.zeros(self.nvar)
        xb[:self.sPp0] = self.layout.pack(point.state)
        xb[self.sPp0:self.pen0] = point.slacks[self._slack_pos]
        xb[self.pen0:self.cost0] = self._pen.of_slacks(xb[self.sPp0:self.pen0])
        for j, (gi, curve) in enumerate(zip(self.cost_gens, self._costs)):
            xb[self.cost0 + j] = curve.value(point.state.p_gen[gi])
        return xb

    def eq_values(self, xb):
        lay = self.layout
        p, q = lay.balance(xb).reshape(2, -1)
        nb, r = lay.nb, self.eq_bal0
        out = np.empty(self.n_eq)
        out[:r] = (lay.flow_vars(xb) - lay.flow_values(xb)).ravel()
        out[r:r + nb] = p + xb[self.sPp0:self.sPp0 + nb] - xb[self.sPm0:self.sPm0 + nb]
        out[r + nb:r + 2 * nb] = q + xb[self.sQp0:self.sQp0 + nb] - xb[self.sQm0:self.sQm0 + nb]
        out[self.eq_ref] = xb[lay.th0 + self.ref_idx]
        return out

    def ineq_values(self, xb):
        lhs, rhs = (a.T for a in self.layout.ratings(xb))
        s = xb[self.sS0:self.pen0, None]
        slacks = xb[self.sPp0:self.pen0, None]
        aux = xb[self.pen0:self.cost0, None]
        return np.concatenate((
            (lhs[self.rated_j] - (rhs[self.rated_j] + s) ** 2).ravel(),
            (self._pen.line_slopes * slacks + self._pen.line_icpts - aux).ravel(),
            self._cost_slope * xb[self._cost_p] + self._cost_icpt - xb[self._cost_t]))

    def jac_values(self, xb):
        """(eq, ineq) values on the ``jac_eq_var``/``jac_ineq_var`` entries."""
        lay = self.layout
        jv = lay.jac_values(xb)
        s = xb[self.sS0:self.pen0]
        rhs = lay.ratings(xb)[1].T
        return jv[self._jeq] * self._jeq_sign, np.concatenate((
            jv[self._jiq], (-2.0 * (rhs[self.rated_j] + s[:, None])).ravel(),
            -2.0 * self._line_rate * np.repeat(s[self.rated_lines], 2)))

    def hess_values(self, xb, lam_eq, lam_ineq):
        """Values on the ``hess_var`` entries of this block's Lagrangian
        Hessian; lam_eq / lam_ineq are this block's multiplier slices.  The
        objective is linear, so only constraint curvature contributes."""
        lay = self.layout
        nfl, nfb = 4 * lay.m, 4 * lay.m + 2 * lay.nb
        lam_rat = lam_ineq[:self.ineq_pen0]
        weights = np.zeros(lay.nrows)
        weights[:nfl] = -lam_eq[:nfl]
        weights[nfl:nfb] = lam_eq[nfl:nfb]
        weights[self._w_rat] = lam_rat
        line_lam = lam_rat.reshape(-1, 2)[self.rated_lines].ravel()
        return np.concatenate((lay.hess_values(xb, weights),
                               -2.0 * lam_rat, -2.0 * self._line_rate * line_lam))


@dataclass
class CaseStructure:
    """Layout metadata of a built problem: block offsets, and per contingency
    its delta column and, for its active and then its reactive segment
    family, the members' ids and middle mask and their evidence columns with
    those columns' bounds (see `segment_evidence`)."""
    base_block: _Block = None
    base_off: int = 0
    ctg_blocks: dict = field(default_factory=dict)  # id -> (_Block, off)
    delta_cols: dict = field(default_factory=dict)  # id -> column
    # id -> per family (ids, middle mask, evidence columns, lb, ub)
    families: dict = field(default_factory=dict)

    def extract_base(self, x):
        return self.base_block.point_of(x[self.base_off:self.base_off + self.base_block.nvar])

    def extract_ctg(self, x, ctg_id):
        """(point, delta): contingency ctg_id's operating point in solution
        x and its response perturbation, the value of its delta column."""
        block, off = self.ctg_blocks[ctg_id]
        return block.point_of(x[off:off + block.nvar]), float(x[self.delta_cols[ctg_id]])

    def segment_evidence(self, solution, ctg_id):
        """For contingency ctg_id's active and then reactive family: (member
        ids, middle mask, (gap, multiplier) at the evidence columns' lower
        bounds, and at their upper ones).  A middle member's evidence column
        is its p or q, a pinned member's its rho slack."""
        x, z_lo, z_up = solution.x, solution.z_lower, solution.z_upper
        return [(ids, mid, (x[cols] - lb, z_lo[cols]), (ub - x[cols], z_up[cols]))
                for ids, mid, cols, lb, ub in self.families[ctg_id]]


class _Assembler:
    """One NLP over the given blocks.  Columns are laid out up front: every
    block's columns in the given order, then the variables of `add_var`, so
    a column number is final when it is handed out.  Rows are laid out in
    the order of the `add_block` and `add_eq` calls; blocks are added in
    the given order."""

    def __init__(self, blocks):
        self.structure = CaseStructure()
        self.col_offs = np.cumsum([0] + [b.nvar for b in blocks]).tolist()
        self.nvar = self.col_offs[-1]
        lb, ub = zip(*(b.bounds() for b in blocks))
        self.lb, self.ub = np.concatenate(lb), np.concatenate(ub)
        self.obj = np.concatenate([b.objective_coefs() for b in blocks])
        self.n_eq = 0
        self.n_ineq = 0
        self.blocks = []  # (block, col_off, eq_off, ineq_off)
        self.x0_parts = []
        # extra affine equality rows beyond block cores:
        # (row, entries [(col, coef)], constant)
        self.extra_eq = []
        self.extra_lb = []
        self.extra_ub = []
        self.extra_x0 = []

    def add_block(self, block, x0_block):
        off = self.col_offs[len(self.blocks)]
        self.blocks.append((block, off, self.n_eq, self.n_ineq))
        self.x0_parts.append(x0_block)
        self.n_eq += block.n_eq
        self.n_ineq += block.n_ineq
        return off

    def add_var(self, lb, ub, x0):
        col = self.nvar
        self.nvar += 1
        self.extra_lb.append(lb)
        self.extra_ub.append(ub)
        self.extra_x0.append(x0)
        return col

    def add_eq(self, entries, const=0.0):
        row = self.n_eq
        self.extra_eq.append((row, entries, const))
        self.n_eq += 1
        return row

    def finish(self):
        # the solver is imported here, where an NLP is built, so that pricing
        # and projection load with numpy alone
        from .nlp import NlpProblem

        nvar = self.nvar
        lb = np.concatenate((self.lb, self.extra_lb))
        ub = np.concatenate((self.ub, self.extra_ub))
        obj = np.concatenate((self.obj, np.zeros(len(self.extra_x0))))
        x0v = np.concatenate(self.x0_parts + [self.extra_x0])
        blocks = self.blocks
        n_eq, n_ineq = self.n_eq, self.n_ineq

        # extra affine equality rows: out[x_rows] = x_const + A @ x, A's
        # entries (e_i, e_c, e_v)
        x_rows = np.array([row for row, _, _ in self.extra_eq], dtype=int)
        x_const = np.array([const for _, _, const in self.extra_eq], dtype=float)
        ents = [(i, c, v) for i, (_, row_ents, _) in enumerate(self.extra_eq)
                for c, v in row_ents]
        e_i, e_c, e_v = (np.array([e[k] for e in ents], dtype=t)
                         for k, t in enumerate((int, int, float)))

        # fixed Jacobian and Hessian patterns over all blocks: the entries
        # each block fills per call, then the constant ones with their values
        def moved(entries, row_off, col_off):
            return (entries[0] + row_off, entries[1] + col_off) + tuple(entries[2:])

        def stack(parts):
            return tuple(np.concatenate(p) for p in zip(*parts))

        eq_r, eq_c = stack([moved(b.jac_eq_var, e, c) for b, c, e, _ in blocks])
        iq_r, iq_c = stack([moved(b.jac_ineq_var, i, c) for b, c, _, i in blocks])
        eq_fr, eq_fc, eq_fixed = stack([moved(b.jac_eq_const, e, c) for b, c, e, _ in blocks]
                                       + [(x_rows[e_i], e_c, e_v)])
        iq_fr, iq_fc, iq_fixed = stack([moved(b.jac_ineq_const, i, c)
                                        for b, c, _, i in blocks])

        def eq(x):
            out = np.empty(n_eq)
            for block, off, eq_off, _ in blocks:
                out[eq_off:eq_off + block.n_eq] = block.eq_values(x[off:off + block.nvar])
            out[x_rows] = x_const + np.bincount(e_i, weights=e_v * x[e_c],
                                                minlength=len(x_rows))
            return out

        def ineq(x):
            out = np.empty(n_ineq)
            for block, off, _, iq_off in blocks:
                out[iq_off:iq_off + block.n_ineq] = block.ineq_values(x[off:off + block.nvar])
            return out

        # one evaluation of both Jacobians' values per distinct x
        memo = {}

        def jacobians(x):
            if "x" not in memo or not np.array_equal(memo["x"], x):
                parts = [block.jac_values(x[off:off + block.nvar])
                         for block, off, _, _ in blocks]
                memo["x"] = np.array(x, dtype=float)
                memo["J"] = (np.concatenate([e for e, _ in parts] + [eq_fixed]),
                             np.concatenate([i for _, i in parts] + [iq_fixed]))
            return memo["J"]

        def hess(x, sigma_f, lam_eq, lam_ineq):
            return np.concatenate([
                block.hess_values(x[off:off + block.nvar],
                                  lam_eq[eq_off:eq_off + block.n_eq],
                                  lam_ineq[iq_off:iq_off + block.n_ineq])
                for block, off, eq_off, iq_off in blocks])

        return NlpProblem(
            n=nvar, x0=x0v, lb=lb, ub=ub,
            objective=lambda x: float(obj @ x),
            gradient=lambda x: obj.copy(),
            eq=eq, ineq=ineq, jac_eq=lambda x: jacobians(x)[0],
            jac_ineq=lambda x: jacobians(x)[1], hess=hess,
            jac_eq_pattern=stack([(eq_r, eq_c), (eq_fr, eq_fc)]),
            jac_ineq_pattern=stack([(iq_r, iq_c), (iq_fr, iq_fc)]),
            hess_pattern=stack([moved(b.hess_var, c, c) for b, c, _, _ in blocks]),
            n_eq=n_eq, n_ineq=n_ineq, meta=self.structure,
        )


def _add_coupling(asm, net, k, off, state, base):
    """Complementarity rows linking contingency k's block, at column offset
    off, to the base values, read off the `_SegmentPlan` of `state`.

    `base` is an `OperatingPoint` whose values are data (standalone
    contingency problem) or the base block's column offset (master).  Per
    available generator, in generator order: a non-responder's p equals its
    base output, and a responder's rho = p_base + alpha delta - p is 0 in its
    middle segment; the reactive rho_q = v_base - v at its bus is 0 in the
    middle segment.  A pinned segment pins p or q at its bound and moves rho
    into a slack of the segment's sign.  The rows come in that order, and
    the slack columns after the delta column.

    Every column that a row pins to a value within its bounds has them
    dropped: p and q at a pinned segment's bound, a non-responder's p at its
    base output, and v at a middle reactive segment's base voltage.  A bound
    that an equality already enforces is a degenerate (LICQ-violating)
    constraint wherever it is active.  Base and contingency share their
    voltage and output bounds, and the base value keeps them; a middle
    responder's p, which its row does not pin, keeps its bounds.
    """
    lay = CaseLayout.of(net, k.outaged)
    plan = _SegmentPlan.of(lay, state)
    # bounding the response scalar keeps the KKT system nonsingular when every
    # responder is saturated (shortfall case), where delta would otherwise be
    # a free ray through the one-sided coupling rows
    dcol = asm.add_var(-DELTA_MAX, DELTA_MAX, state.delta)
    asm.structure.delta_cols[k.id] = dcol
    # per available generator, the base p and v as ((col, coef) entries,
    # constant)
    if isinstance(base, OperatingPoint):
        base_p = [([], p) for p in base.state.p_gen[lay.gens]]
        base_v = [([], v) for v in base.state.v[lay.gen_bus]]
    else:
        b_lay = CaseLayout.of(net)
        base_p = [([(base + b_lay.p0 + gi, 1.0)], 0.0) for gi in lay.gens]
        base_v = [([(base + b_lay.v0 + bus, 1.0)], 0.0) for bus in lay.gen_bus]

    def free(col):
        asm.lb[col], asm.ub[col] = -INF, INF

    def pin(col, value, low, rho, const):
        """Rows of a pinned member; its evidence column, the rho slack."""
        asm.add_eq([(col, 1.0)], -value)
        free(col)
        s_col = asm.add_var(*((-INF, 0.0) if low else (0.0, INF)), 0.0)
        asm.add_eq(rho + [(s_col, -1.0)], const)
        return s_col

    resp = dict(zip((plan.p_cols - lay.p0).tolist(), range(len(plan.resp))))
    evidence = ([], [])  # evidence column of each active and reactive member
    for i, bus in enumerate(lay.gen_bus):
        p_col, q_col, v_col = off + lay.p0 + i, off + lay.q0 + i, off + lay.v0 + bus
        (p_ents, p_const), (v_ents, v_const) = base_p[i], base_v[i]
        j = resp.get(i)
        if j is None:
            asm.add_eq([(p_col, 1.0)] + [(c, -v) for c, v in p_ents], -p_const)
            free(p_col)
        else:
            rho = [(p_col, -1.0), (dcol, plan.alpha[j])] + p_ents
            if plan.p_mid[j]:
                asm.add_eq(rho, p_const)
                evidence[0].append(p_col)
            else:
                evidence[0].append(pin(p_col, plan.p_pin[j], plan.p_low[j], rho, p_const))
        rho = [(v_col, -1.0)] + v_ents
        if plan.q_mid[i]:
            asm.add_eq(rho, v_const)
            free(v_col)
            evidence[1].append(q_col)
        else:
            evidence[1].append(pin(q_col, plan.q_pins[i], plan.q_low[i], rho, v_const))

    def family(ids, mid, low, box, cols):
        """(ids, middle mask, evidence columns, their lb and ub)."""
        return (ids, mid, np.array(cols, dtype=int),
                np.where(mid, box[0], np.where(low, -INF, 0.0)),
                np.where(mid, box[1], np.where(low, 0.0, INF)))

    asm.structure.families[k.id] = (
        family(plan.p_ids, plan.p_mid, plan.p_low, plan.p_box, evidence[0]),
        family(plan.q_ids, plan.q_mid, plan.q_low, plan.q_box, evidence[1]))


def build_base_problem(net: Network, report=None, start: OperatingPoint = None):
    """Base-case NLP: min cost + penalties s.t. flow/balance/rating/bounds."""
    skip = report.skip_rating_ids(None) if report is not None else ()
    block = _Block(net, with_cost=True, skip_rating=skip)
    if start is None:
        start = default_start(net)
    asm = _Assembler([block])
    asm.structure.base_block = block
    asm.structure.base_off = asm.add_block(block, block.inject(start))
    return asm.finish()


def build_contingency_problem(net: Network, k, base_point: OperatingPoint,
                              compl_state, report=None,
                              start: OperatingPoint = None):
    """Penalty-minimization NLP for one contingency with base values as data,
    started at `start` or else at `project_response` of the base point."""
    skip = report.skip_rating_ids(k.outaged) if report is not None else ()
    block = _Block(net, outaged=k.outaged, skip_rating=skip)
    if start is None:
        start = project_response(compl_state, net, k, base_point,
                                 block.layout.pack(base_point.state))
    asm = _Assembler([block])
    off = asm.add_block(block, block.inject(start))
    asm.structure.ctg_blocks[k.id] = (block, off)
    _add_coupling(asm, net, k, off, compl_state, base_point)
    return asm.finish()


def build_master_problem(spec: "MasterSpec"):
    """Problem over the base case plus the selected contingency subset.

    Contingency penalties are weighted by 1 / (full contingency count), so
    omitted contingencies implicitly contribute zero.  A contingency without
    a start in `spec.ctg_points` starts at `project_response` of the base.
    """
    net = spec.net
    n_total = len(net.contingencies)
    weight = 1.0 / n_total if n_total else 1.0
    skip_base = spec.report.skip_rating_ids(None) if spec.report is not None else ()

    base_block = _Block(net, with_cost=True, skip_rating=skip_base)
    base_start = spec.base_point if spec.base_point is not None else default_start(net)
    cases = []  # (contingency, block, start)
    for kid in spec.included:
        k = net.contingency(kid)
        skip = spec.report.skip_rating_ids(k.outaged) if spec.report is not None else ()
        block = _Block(net, outaged=k.outaged, skip_rating=skip, pen_weight=weight)
        start = spec.ctg_points.get(kid) if spec.ctg_points else None
        if start is None:
            start = project_response(spec.compl[kid], net, k, base_start,
                                     block.layout.pack(base_start.state))
        cases.append((k, block, start))

    asm = _Assembler([base_block] + [block for _, block, _ in cases])
    base_off = asm.add_block(base_block, base_block.inject(base_start))
    asm.structure.base_block = base_block
    asm.structure.base_off = base_off
    for k, block, start in cases:
        off = asm.add_block(block, block.inject(start))
        asm.structure.ctg_blocks[k.id] = (block, off)
        _add_coupling(asm, net, k, off, spec.compl[k.id], base_off)
    return asm.finish()


@dataclass
class MasterSpec:
    """Inputs of one master solve; complementarity states stay fixed in it."""
    net: Network
    included: tuple
    compl: dict  # contingency id -> ComplementarityState
    base_point: OperatingPoint = None
    ctg_points: dict = None  # contingency id -> OperatingPoint warm start
    report: object = None

    def __post_init__(self):
        ids = list(self.included)
        if len(set(ids)) != len(ids):
            raise ValueError("included contingency ids must be distinct")
        known = {k.id for k in self.net.contingencies}
        missing = [i for i in ids if i not in known]
        if missing:
            raise ValueError(f"unknown contingency ids: {missing}")


def total_score(net: Network, base: OperatingPoint, ctg_penalties):
    """Objective of the full problem: cost + base penalty + mean contingency
    penalty over the full contingency set."""
    missing = [k.id for k in net.contingencies if k.id not in ctg_penalties]
    if missing:
        raise KeyError(f"missing contingency penalties: {missing}")
    score = generation_cost(net, base.state.p_gen) + point_penalty(net, base)
    if net.contingencies:
        score += sum(ctg_penalties[k.id] for k in net.contingencies) / len(net.contingencies)
    return score
