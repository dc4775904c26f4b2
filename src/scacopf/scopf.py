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
from scipy import sparse

from .acpf import CaseLayout, FlowState
from .case_model import Network, PenaltyConfig
from .nlp import NlpProblem, _Pattern

__all__ = [
    "OperatingPoint",
    "MasterSpec",
    "CaseStructure",
    "generation_cost",
    "penalty_cost",
    "point_penalty",
    "slacks_from_state",
    "build_base_problem",
    "build_contingency_problem",
    "build_master_problem",
    "total_score",
]

INF = float("inf")


@dataclass
class OperatingPoint:
    """A flow state plus the slack bundles of one case (base or contingency).

    Slack arrays are indexed in network order; entries for an outaged branch
    are zero.  `delta` is the response perturbation of a contingency point.
    """

    state: FlowState
    sig_p_plus: np.ndarray
    sig_p_minus: np.ndarray
    sig_q_plus: np.ndarray
    sig_q_minus: np.ndarray
    sig_s: np.ndarray
    delta: float = 0.0

    def copy(self):
        return OperatingPoint(
            state=self.state.copy(),
            sig_p_plus=self.sig_p_plus.copy(),
            sig_p_minus=self.sig_p_minus.copy(),
            sig_q_plus=self.sig_q_plus.copy(),
            sig_q_minus=self.sig_q_minus.copy(),
            sig_s=self.sig_s.copy(),
            delta=self.delta,
        )

    def slack_vector(self):
        """All slacks in canonical order: bus P, bus Q, line, transformer."""
        return np.concatenate([
            self.sig_p_plus + self.sig_p_minus,
            self.sig_q_plus + self.sig_q_minus,
            self.sig_s,
        ])


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
        self.slopes = np.array(list(slopes[:len(breaks)]) + [slopes[-1]], dtype=float)
        icpts = self.vals - self.slopes * self.starts
        new = np.ones(len(icpts), dtype=bool)
        new[1:] = (self.slopes[1:] != self.slopes[:-1]) | (icpts[1:] != icpts[:-1])
        self.line_slopes, self.line_icpts = self.slopes[new], icpts[new]

    def value(self, x):
        """Curve value at x (a scalar or an array)."""
        i = np.maximum(np.searchsorted(self.starts, x, side="right") - 1, 0)
        return self.vals[i] + self.slopes[i] * (x - self.starts[i])

    def of_slacks(self, slacks):
        """Value at each nonnegative slack; 0 at and below 0."""
        return np.where(slacks <= 0.0, 0.0, self.value(slacks))


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
    """Explicit penalty of an operating point: sum over all its slacks."""
    svc = CaseLayout.of(net, outaged).svc
    slacks = np.concatenate((point.sig_p_plus, point.sig_p_minus, point.sig_q_plus,
                             point.sig_q_minus, point.sig_s[svc]))
    return float(np.sum(_curves(net)[0].of_slacks(slacks)))


def _priced(lay: CaseLayout, x, state: FlowState, delta):
    """Operating point of `state`, whose layout vector is x, with slacks that
    exactly absorb x's residuals: the unique minimal-slack assignment making
    the point feasible.  x's flow columns are trusted as given."""
    p, q = lay.balance(x)
    lhs, rhs = lay.ratings(x)
    over = np.sqrt(lhs) - rhs
    sig_s = np.zeros(lay.nbr)
    sig_s[lay.svc] = np.maximum(0.0, np.maximum(over[:, 0], over[:, 1]))
    return OperatingPoint(
        state=state,
        sig_p_plus=np.maximum(0.0, -p),
        sig_p_minus=np.maximum(0.0, p),
        sig_q_plus=np.maximum(0.0, -q),
        sig_q_minus=np.maximum(0.0, q),
        sig_s=sig_s,
        delta=delta,
    )


def slacks_from_state(net: Network, state: FlowState, outaged=None, delta=0.0):
    """Operating point whose slacks exactly absorb the state's residuals.

    This is the unique minimal-slack assignment making the point feasible;
    flows in `state` are trusted as given.  Ratings are the base set for
    ``outaged is None`` and the contingency set otherwise.
    """
    lay = CaseLayout.of(net, outaged)
    return _priced(lay, lay.pack(state), state.copy(), delta)


def flows_from_state(net: Network, state: FlowState, outaged=None):
    """Recompute branch flows from the voltages."""
    lay = CaseLayout.of(net, outaged)
    out = state.copy()
    out.flows[:] = 0.0
    out.flows[lay.svc] = lay.flow_values(lay.pack(state))
    return out


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
    return slacks_from_state(net, flows_from_state(net, state))


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
        lb[lay.v0:lay.th0], ub[lay.v0:lay.th0] = lay.v_min, lay.v_max
        lb[lay.bcs0:lay.p0], ub[lay.bcs0:lay.p0] = lay.bcs_min, lay.bcs_max
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
        nb = self.layout.nb
        sig_s = np.zeros(self.layout.nbr)
        sig_s[self.layout.svc[self.rated_j]] = xb[self.sS0:self.pen0]
        return OperatingPoint(
            state=self.layout.unpack(xb),
            sig_p_plus=xb[self.sPp0:self.sPp0 + nb].copy(),
            sig_p_minus=xb[self.sPm0:self.sPm0 + nb].copy(),
            sig_q_plus=xb[self.sQp0:self.sQp0 + nb].copy(),
            sig_q_minus=xb[self.sQm0:self.sQm0 + nb].copy(),
            sig_s=sig_s,
        )

    def inject(self, point: OperatingPoint):
        xb = np.zeros(self.nvar)
        xb[:self.sPp0] = self.layout.pack(point.state)
        nb = self.layout.nb
        xb[self.sPp0:self.sPp0 + nb] = point.sig_p_plus
        xb[self.sPm0:self.sPm0 + nb] = point.sig_p_minus
        xb[self.sQp0:self.sQp0 + nb] = point.sig_q_plus
        xb[self.sQm0:self.sQm0 + nb] = point.sig_q_minus
        xb[self.sS0:self.pen0] = point.sig_s[self.layout.svc[self.rated_j]]
        xb[self.pen0:self.cost0] = self._pen.of_slacks(xb[self.sPp0:self.pen0])
        for j, (gi, curve) in enumerate(zip(self.cost_gens, self._costs)):
            xb[self.cost0 + j] = curve.value(point.state.p_gen[gi])
        return xb

    def eq_values(self, xb):
        lay = self.layout
        p, q = lay.balance(xb)
        nb, r = lay.nb, self.eq_bal0
        out = np.empty(self.n_eq)
        out[:r] = (lay.flow_vars(xb) - lay.flow_values(xb)).ravel()
        out[r:r + nb] = p + xb[self.sPp0:self.sPp0 + nb] - xb[self.sPm0:self.sPm0 + nb]
        out[r + nb:r + 2 * nb] = q + xb[self.sQp0:self.sQp0 + nb] - xb[self.sQm0:self.sQm0 + nb]
        out[self.eq_ref] = xb[lay.th0 + self.ref_idx]
        return out

    def ineq_values(self, xb):
        lhs, rhs = self.layout.ratings(xb)
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
        _, rhs = lay.ratings(xb)
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


LOWER, MIDDLE, UPPER = "lower", "middle", "upper"

# widest response perturbation considered anywhere (shared with compl)
DELTA_MAX = 1e3


@dataclass
class _CouplingRecord:
    """Bookkeeping of one complementarity family member inside a built problem."""
    ctg_id: str
    gen_id: str
    family: str  # "active" | "reactive"
    segment: str
    chi_col: int
    chi_lb: float
    chi_ub: float
    s_col: int = -1  # rho slack column for lower/upper segments


@dataclass
class CaseStructure:
    """Layout metadata of a built problem: block offsets, coupling records."""
    base_block: _Block = None
    base_off: int = 0
    ctg_blocks: dict = field(default_factory=dict)  # id -> (_Block, off)
    delta_cols: dict = field(default_factory=dict)  # id -> column
    couplings: list = field(default_factory=list)

    def extract_base(self, x):
        return self.base_block.point_of(x[self.base_off:self.base_off + self.base_block.nvar])

    def extract_ctg(self, x, ctg_id):
        block, off = self.ctg_blocks[ctg_id]
        point = block.point_of(x[off:off + block.nvar])
        point.delta = float(x[self.delta_cols[ctg_id]])
        return point

    def segment_signals(self, solution):
        """Per (ctg, gen, family): evidence tuples for segment transitions.

        Returns dict key -> {"segment", "to_middle" | ("to_lower","to_upper")}
        where each evidence is (gap, multiplier) for the activity test.
        """
        out = {}
        for rec in self.couplings:
            key = (rec.ctg_id, rec.gen_id, rec.family)
            if rec.segment == MIDDLE:
                chi = solution.x[rec.chi_col]
                out[key] = {
                    "segment": MIDDLE,
                    "to_lower": (chi - rec.chi_lb, solution.z_lower[rec.chi_col]),
                    "to_upper": (rec.chi_ub - chi, solution.z_upper[rec.chi_col]),
                }
            elif rec.segment == LOWER:
                s = solution.x[rec.s_col]
                out[key] = {"segment": LOWER,
                            "to_middle": (-s, solution.z_upper[rec.s_col])}
            else:
                s = solution.x[rec.s_col]
                out[key] = {"segment": UPPER,
                            "to_middle": (s, solution.z_lower[rec.s_col])}
        return out


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
        nvar = self.nvar
        lb = np.concatenate((self.lb, self.extra_lb))
        ub = np.concatenate((self.ub, self.extra_ub))
        obj = np.concatenate((self.obj, np.zeros(len(self.extra_x0))))
        x0v = np.concatenate(self.x0_parts + [self.extra_x0])
        blocks = self.blocks
        n_eq, n_ineq = self.n_eq, self.n_ineq

        # extra affine equality rows: out[x_rows] = x_const + A @ x
        x_rows = np.array([row for row, _, _ in self.extra_eq], dtype=int)
        x_const = np.array([const for _, _, const in self.extra_eq], dtype=float)
        ents = [(i, c, v) for i, (_, row_ents, _) in enumerate(self.extra_eq)
                for c, v in row_ents]
        e_i, e_c, e_v = (np.array([e[k] for e in ents], dtype=t)
                         for k, t in enumerate((int, int, float)))
        A = sparse.csr_matrix((e_v, (e_i, e_c)), shape=(len(x_rows), nvar))

        # fixed Jacobian and Hessian patterns over all blocks: the entries
        # each block fills per call, then the constant ones with their values
        def moved(entries, row_off, col_off):
            return (entries[0] + row_off, entries[1] + col_off) + tuple(entries[2:])

        def stack(parts):
            return [np.concatenate(p) for p in zip(*parts)]

        eq_r, eq_c = stack([moved(b.jac_eq_var, e, c) for b, c, e, _ in blocks])
        iq_r, iq_c = stack([moved(b.jac_ineq_var, i, c) for b, c, _, i in blocks])
        eq_fr, eq_fc, eq_fixed = stack([moved(b.jac_eq_const, e, c) for b, c, e, _ in blocks]
                                       + [(x_rows[e_i], e_c, e_v)])
        iq_fr, iq_fc, iq_fixed = stack([moved(b.jac_ineq_const, i, c)
                                        for b, c, _, i in blocks])
        jac_eq_pattern = _Pattern(np.concatenate((eq_r, eq_fr)),
                                  np.concatenate((eq_c, eq_fc)), (n_eq, nvar))
        jac_ineq_pattern = _Pattern(np.concatenate((iq_r, iq_fr)),
                                    np.concatenate((iq_c, iq_fc)), (n_ineq, nvar))
        hess_pattern = _Pattern(*stack([moved(b.hess_var, c, c) for b, c, _, _ in blocks]),
                                (nvar, nvar), csc=True)

        def eq(x):
            out = np.empty(n_eq)
            for block, off, eq_off, _ in blocks:
                out[eq_off:eq_off + block.n_eq] = block.eq_values(x[off:off + block.nvar])
            out[x_rows] = x_const + A @ x
            return out

        def ineq(x):
            out = np.empty(n_ineq)
            for block, off, _, iq_off in blocks:
                out[iq_off:iq_off + block.n_ineq] = block.ineq_values(x[off:off + block.nvar])
            return out

        # one evaluation of both Jacobians per distinct x
        memo = {}

        def jacobians(x):
            if "x" not in memo or not np.array_equal(memo["x"], x):
                parts = [block.jac_values(x[off:off + block.nvar])
                         for block, off, _, _ in blocks]
                memo["x"] = np.array(x, dtype=float)
                memo["J"] = (
                    jac_eq_pattern.matrix(np.concatenate([e for e, _ in parts] + [eq_fixed])),
                    jac_ineq_pattern.matrix(np.concatenate([i for _, i in parts] + [iq_fixed])))
            return memo["J"]

        def hess(x, sigma_f, lam_eq, lam_ineq):
            return hess_pattern.matrix(np.concatenate([
                block.hess_values(x[off:off + block.nvar],
                                  lam_eq[eq_off:eq_off + block.n_eq],
                                  lam_ineq[iq_off:iq_off + block.n_ineq])
                for block, off, eq_off, iq_off in blocks]))

        prob = NlpProblem(
            n=nvar, x0=x0v, lb=lb, ub=ub,
            objective=lambda x: float(obj @ x),
            gradient=lambda x: obj.copy(),
            eq=eq, ineq=ineq, jac_eq=lambda x: jacobians(x)[0],
            jac_ineq=lambda x: jacobians(x)[1], hess=hess,
            n_eq=n_eq, n_ineq=n_ineq, meta=self.structure,
        )
        return prob


def _lift(asm, col):
    """Drop the bounds of a column that an equality row pins to a value
    within them: a bound that an equality already enforces is a degenerate
    (LICQ-violating) constraint wherever it is active."""
    asm.lb[col], asm.ub[col] = -INF, INF


def _add_coupling(asm, net, k, block, off, compl_state, base_ref):
    """Complementarity rows linking one contingency block to the base values.

    base_ref is either ("block", base_block, base_off) (master) or
    ("fixed", OperatingPoint) (standalone contingency problem).  Every column
    that a row pins to a bounded value has its bounds lifted (`_lift`): p
    and q at a LOWER or UPPER segment's limit, a non-responder's p at its
    base output, and v at a MIDDLE reactive segment's base voltage; base and
    contingency share their voltage and output bounds, and the base value
    keeps them.
    """
    st = asm.structure
    lay = block.layout

    delta0 = compl_state.delta if compl_state is not None else 0.0
    # bounding the response scalar keeps the KKT system nonsingular when every
    # responder is saturated (shortfall case), where delta would otherwise be
    # a free ray through the one-sided coupling rows
    dcol = asm.add_var(-DELTA_MAX, DELTA_MAX, delta0)
    st.delta_cols[k.id] = dcol

    def base_term(kind, idx):
        """((col, coef) entries, constant) for a base-side value."""
        if base_ref[0] == "fixed":
            point = base_ref[1]
            if kind == "p":
                return [], point.state.p_gen[idx]
            return [], point.state.v[idx]
        base_block, base_off = base_ref[1], base_ref[2]
        base_lay = base_block.layout
        if kind == "p":
            col = base_off + base_lay.p0 + base_lay.gen_col[idx]
        else:
            col = base_off + base_lay.v0 + idx
        return [(col, 1.0)], 0.0

    responding = set(k.responding_gens)
    for gi, g in lay.avail_gens:
        p_col = off + lay.p0 + lay.gen_col[gi]
        q_col = off + lay.q0 + lay.gen_col[gi]
        bus_i = net.bus_index(g.bus)
        v_col = off + lay.v0 + bus_i
        b_entries_p, b_const_p = base_term("p", gi)
        b_entries_v, b_const_v = base_term("v", bus_i)

        if g.id not in responding:
            # fixed rule: contingency output equals the base value
            asm.add_eq([(p_col, 1.0)] + [(c, -v) for c, v in b_entries_p],
                       -b_const_p)
            _lift(asm, p_col)
        else:
            seg = compl_state.active[g.id]
            rho = ([(p_col, -1.0), (dcol, g.alpha)] +
                   [(c, v) for c, v in b_entries_p])
            if seg == MIDDLE:
                asm.add_eq(rho, b_const_p)
                st.couplings.append(_CouplingRecord(
                    k.id, g.id, "active", MIDDLE, p_col, g.p_min, g.p_max))
            else:
                pin = g.p_min if seg == LOWER else g.p_max
                asm.add_eq([(p_col, 1.0)], -pin)
                _lift(asm, p_col)
                s_lb, s_ub = (-INF, 0.0) if seg == LOWER else (0.0, INF)
                scol = asm.add_var(s_lb, s_ub, 0.0)
                asm.add_eq(rho + [(scol, -1.0)], b_const_p)
                st.couplings.append(_CouplingRecord(
                    k.id, g.id, "active", seg, p_col, g.p_min, g.p_max,
                    s_col=scol))

        seg = compl_state.reactive[g.id]
        # rho_q = v_base - v_ctg at the generator bus
        rho_q = [(v_col, -1.0)] + [(c, v) for c, v in b_entries_v]
        if seg == MIDDLE:
            asm.add_eq(rho_q, b_const_v)
            _lift(asm, v_col)
            st.couplings.append(_CouplingRecord(
                k.id, g.id, "reactive", MIDDLE, q_col, g.q_min, g.q_max))
        else:
            pin = g.q_min if seg == LOWER else g.q_max
            asm.add_eq([(q_col, 1.0)], -pin)
            _lift(asm, q_col)
            s_lb, s_ub = (-INF, 0.0) if seg == LOWER else (0.0, INF)
            scol = asm.add_var(s_lb, s_ub, 0.0)
            asm.add_eq(rho_q + [(scol, -1.0)], b_const_v)
            st.couplings.append(_CouplingRecord(
                k.id, g.id, "reactive", seg, q_col, g.q_min, g.q_max,
                s_col=scol))


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
    """Penalty-minimization NLP for one contingency with base values as data."""
    if isinstance(k, str):
        k = net.contingency(k)
    skip = report.skip_rating_ids(k.outaged) if report is not None else ()
    block = _Block(net, outaged=k.outaged, skip_rating=skip)
    if start is None:
        start = _seed_ctg_point(net, k, base_point, compl_state)
    asm = _Assembler([block])
    off = asm.add_block(block, block.inject(start))
    asm.structure.ctg_blocks[k.id] = (block, off)
    _add_coupling(asm, net, k, block, off, compl_state,
                  ("fixed", base_point))
    return asm.finish()


def _seed_ctg_point(net, k, base_point, compl_state):
    """Starting point for a contingency case: base state with the response
    rule applied and flows/slacks recomputed."""
    lay = CaseLayout.of(net, k.outaged)
    delta = compl_state.delta if compl_state is not None else 0.0
    responding = set(k.responding_gens)
    resp = np.array([gi for gi, g in lay.avail_gens if g.id in responding], dtype=int)
    x = lay.pack(base_point.state)
    x[lay.p0 + lay.gen_col[resp]] = np.clip(
        base_point.state.p_gen[resp] + lay.alpha[resp] * delta,
        lay.p_min[resp], lay.p_max[resp])
    x[lay.fl0:] = lay.flow_values(x).ravel()
    return _priced(lay, x, lay.unpack(x), delta)


def build_master_problem(spec: "MasterSpec"):
    """Problem over the base case plus the selected contingency subset.

    Contingency penalties are weighted by 1 / (full contingency count), so
    omitted contingencies implicitly contribute zero.
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
            start = _seed_ctg_point(net, k, base_start, spec.compl[kid])
        cases.append((k, block, start))

    asm = _Assembler([base_block] + [block for _, block, _ in cases])
    base_off = asm.add_block(base_block, base_block.inject(base_start))
    asm.structure.base_block = base_block
    asm.structure.base_off = base_off
    for k, block, start in cases:
        off = asm.add_block(block, block.inject(start))
        asm.structure.ctg_blocks[k.id] = (block, off)
        _add_coupling(asm, net, k, block, off, spec.compl[k.id],
                      ("block", base_block, base_off))
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
