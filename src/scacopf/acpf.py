"""Polar AC power-flow expressions, residuals, ratings, and sparse derivatives.

Every branch-side flow expression has the common form

    F = K v_x^2 + (P cos d + Q sin d) v_o v_d,      d = th_o - th_d - phi,

where (K, P, Q), the squared-voltage side x, and the phase offset phi depend
on the branch type and side.  `CaseLayout.of` compiles one case (network
and outage, which also picks the rating set) once per `Network` instance
into coefficient arrays and gather/scatter index maps: the voltage and
angle columns of every branch side, the balance row and sign of every
generator-output and flow column, and the constant Jacobian entries.  Every
value and first or second derivative is then a few whole-array numpy
operations on those maps (one gather per flow evaluation, one `bincount`
per balance), on a sparsity pattern that is fixed per case (the vectorized
``dSbus/dV`` of MATPOWER, Zimmerman et al. 2011).  The flows and their
first derivatives are computed side-major, as (4, m) rows over the m
in-service branches, with every operand gathered or stacked to one shape:
at these sizes a numpy operation that broadcasts costs two to three times
one on operands of equal shape, more than its arithmetic.  Each value is
the same float as in the branch-major form x[b, side], computed by the
same operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case_model import Line, Network

__all__ = [
    "FlowState",
    "BalanceResiduals",
    "CaseLayout",
    "branch_flows",
    "balance_residuals",
]


@dataclass
class FlowState:
    """Full per-case variable assignment (per-unit, angles in radians)."""

    v: np.ndarray
    theta: np.ndarray
    bcs: np.ndarray
    p_gen: np.ndarray
    q_gen: np.ndarray
    # flows[b] = (p_o, q_o, p_d, q_d) for branch b (lines then transformers)
    flows: np.ndarray

    def copy(self):
        return FlowState(self.v.copy(), self.theta.copy(), self.bcs.copy(),
                         self.p_gen.copy(), self.q_gen.copy(), self.flows.copy())


@dataclass
class BalanceResiduals:
    p_resid: np.ndarray
    q_resid: np.ndarray


def _coeffs(lines, xfs):
    """Per-side (K, P, Q) arrays of shape (branches, 4) for (p_o, q_o, p_d,
    q_d), and phi, for `lines` followed by `xfs`.  Components 0 and 1 take
    the squared voltage at the origin, 2 and 3 at the destination."""
    g, b, b_ch = np.array([(e.g, e.b, e.b_ch) for e in lines], dtype=float).reshape(-1, 3).T
    bs = b + b_ch / 2.0
    kpq = [np.array((g, -bs, g, -bs, -g, b, -g, b, -b, -g, b, g)).T]
    g, b, t, g_mag, b_mag, shift = np.array(
        [(f.g, f.b, f.tau, f.g_mag, f.b_mag, f.theta_shift) for f in xfs],
        dtype=float).reshape(-1, 6).T
    gt, bt = g / t, b / t
    kpq.append(np.array((g / t**2 + g_mag, -(b / t**2 + b_mag), g, -b,
                         -gt, bt, -gt, bt, -bt, -gt, bt, gt)).T)
    kpq = np.vstack(kpq).reshape(-1, 3, 4)
    return kpq[:, 0], kpq[:, 1], kpq[:, 2], np.concatenate((np.zeros(len(lines)), shift))


def branch_flows(br, v_o, v_d, th_o, th_d):
    """Flows (p_o, q_o, p_d, q_d) into a line or transformer from both ends."""
    K, P, Q, phi = _coeffs((br,), ()) if isinstance(br, Line) else _coeffs((), (br,))
    v_o, v_d = float(v_o), float(v_d)
    d = float(th_o) - float(th_d) - phi[0]
    vx = np.array([v_o, v_o, v_d, v_d])
    return K[0] * vx * vx + (P[0] * np.cos(d) + Q[0] * np.sin(d)) * (v_o * v_d)


class CaseLayout:
    """Compiled model of one case: flat variable layout, expression rows,
    and the branch, bus and generator arrays that every evaluation uses.

    Variable order, live columns only: v, theta, bcs (per bus), p_gen, then
    q_gen (per available generator), then (p_o, q_o, p_d, q_d) per
    in-service branch with lines before transformers.  `pack` drops the
    outaged generator's or branch's entries and `unpack` sets them to zero.
    Rows: flow expressions for in-service branches, then per-bus P and Q
    balance, then origin/destination rating expressions for in-service
    branches.  The base case (``outaged is None``) is rated by ``r_max``/
    ``s_max``, every contingency by ``r_max_ctg``/``s_max_ctg``.  Methods
    read a vector's first `nvar` entries only, so a longer vector whose
    head is the layout can be passed as it is.

    Build it with `CaseLayout.of`, which compiles each (network, outage)
    once and keeps the layout on the `Network` instance.  Its arrays never
    change afterwards; `compiled` holds what other layers compile from the
    layout, under keys of their own.
    """

    @classmethod
    def of(cls, net: Network, outaged=None):
        """The layout of (net, outaged), compiled at the first call for this
        `Network` instance and outage."""
        lay = net._layouts.get(outaged)
        if lay is None:
            lay = net._layouts[outaged] = cls(net, outaged)
        return lay

    def __init__(self, net: Network, outaged=None):
        self.in_service = [
            (bi, br) for bi, br in enumerate(net.branches) if br.id != outaged
        ]
        self.avail_gens = [
            (gi, g) for gi, g in enumerate(net.generators) if g.id != outaged
        ]
        self.gen_ids = [g.id for _, g in self.avail_gens]
        nb, na, m = len(net.buses), len(self.avail_gens), len(self.in_service)
        self.nb, self.m = nb, m
        self.ng, self.nbr = len(net.generators), len(net.branches)
        self.v0 = 0
        self.th0 = nb
        self.bcs0 = 2 * nb
        self.p0 = 3 * nb
        self.q0 = 3 * nb + na
        self.fl0 = 3 * nb + 2 * na
        self.nvar = self.fl0 + 4 * m
        self.nrows = 6 * m + 2 * nb

        # branch arrays over in-service branches (lines first)
        brs = [br for _, br in self.in_service]
        is_line = np.array([isinstance(br, Line) for br in brs], dtype=bool)
        self.K, self.P, self.Q, self.phi = _coeffs(
            [br for br, line in zip(brs, is_line) if line],
            [br for br, line in zip(brs, is_line) if not line])
        attr = ("r_max", "s_max") if outaged is None else ("r_max_ctg", "s_max_ctg")
        svc, o, d, rate = np.array(
            [(bi, net.bus_index(br.origin), net.bus_index(br.destination),
              getattr(br, attr[not line])) for (bi, br), line in zip(self.in_service, is_line)],
            dtype=float).reshape(-1, 4).T
        self.svc, self.o, self.d = svc.astype(int), o.astype(int), d.astype(int)
        # where an operating point's slacks (4 per bus, then one per branch
        # in network order) hold the bus slacks and in-service rating slacks
        self.slack_pos = np.concatenate((np.arange(4 * nb), 4 * nb + self.svc))
        # rating base: rate * v at the end for a line, rate for a transformer
        self.rate = rate
        self.is_line = is_line
        self.line_pos = np.flatnonzero(is_line)
        self.ends = np.column_stack((self.o, self.d))

        # bus and generator arrays; gen_col[gi] is generator gi's column
        # offset from p0 (and from q0), -1 for the outaged one
        self.p_load, self.q_load, self.g_fs, self.b_fs = np.array(
            [(bus.p_load, bus.q_load, bus.g_fs, bus.b_fs) for bus in net.buses],
            dtype=float).reshape(-1, 4).T
        self.gens, self.gen_bus = np.array(
            [(gi, net.bus_index(g.bus)) for gi, g in self.avail_gens],
            dtype=int).reshape(-1, 2).T
        self.gen_col = np.full(self.ng, -1)
        self.gen_col[self.gens] = np.arange(na)
        # bounds in network order, all buses and generators
        self.v_min, self.v_max, self.bcs_min, self.bcs_max = np.array(
            [(bus.v_min, bus.v_max, bus.bcs_min, bus.bcs_max) for bus in net.buses],
            dtype=float).reshape(-1, 4).T
        # (lower, upper) of the v, theta and bcs columns; theta is free
        free = np.full(nb, np.inf)
        self.bus_box = (np.concatenate((self.v_min, -free, self.bcs_min)),
                        np.concatenate((self.v_max, free, self.bcs_max)))
        self.p_min, self.p_max, self.q_min, self.q_max, self.alpha = np.array(
            [(g.p_min, g.p_max, g.q_min, g.q_max, g.alpha) for g in net.generators],
            dtype=float).reshape(-1, 5).T

        # gather/scatter maps: per branch the columns of (v_o, v_o, v_d, v_d,
        # th_o, th_d), the first four each flow side's squared voltage; per
        # column from p0 on its balance row (P rows, then nb Q rows)
        side = self.ends[:, [0, 0, 1, 1]]
        self._branch_cols = np.column_stack((self.v0 + side, self.th0 + self.ends))
        self.bal_row = np.concatenate((self.gen_bus, nb + self.gen_bus,
                                       (side + [0, nb, 0, nb]).ravel()))
        self._bal_rows = np.concatenate((np.arange(2 * nb), self.bal_row))
        # the values work side-major, on whole (4, m) rows over the
        # branches, so that each numpy operation takes operands of one shape
        # (see `branch_terms`): the gathered columns, where cos d and sin d
        # go in a (2, 4, m) block, K, (P, Q) and (Q, P), and d(K v_x^2)/dv_o
        # and /dv_d per side
        vo, vd = self.v0 + self.ends.T
        self._side_cols = np.concatenate((
            np.stack((vo, vo, vd, vd, vo, vo, vo, vo, vd, vd, vd, vd)), self.th0 + self.ends.T))
        self._cs_rep = np.arange(2 * m).reshape(2, 1, m).repeat(4, axis=1)
        self._KT, PT, QT = (np.ascontiguousarray(a.T) for a in (self.K, self.P, self.Q))
        self._PQ, self._QP = np.stack((PT, QT)), np.stack((QT, PT))
        self._dK = np.stack((2.0 * self._KT * [[1], [1], [0], [0]],
                             2.0 * self._KT * [[0], [0], [1], [1]]))
        # the P and Q rows' bus terms: v's columns, load, and shunt before
        # adding bcs, each (2, nb)
        self._v2 = np.tile(self.v0 + np.arange(nb), (2, 1))
        self._neg_load = np.stack((-self.p_load, -self.q_load))
        self._shunt0 = np.stack((-self.g_fs, self.b_fs))
        # rating base per end, (2, m): rate times the voltage at index
        # _rate_v of v with 1.0 appended (index nb, for a transformer)
        self._rate2 = np.repeat(rate[None, :], 2, axis=0)
        self._rate_v = np.where(is_line, self.ends.T, nb)
        self._one = np.ones(1)
        r = rate[self.line_pos]
        self._line_v = (self.v0 + self.ends[self.line_pos]).ravel()
        self._line_r2 = np.repeat(-2.0 * r * r, 2)
        # Jacobian values with the constant entries set: the generator
        # outputs' balance entries, the last of the n_jac_head leading ones
        # (flow rows, shunts, generator outputs), then the flows'
        self.n_jac_head = 16 * m + 3 * nb + 2 * na
        self._jac_const = np.zeros(self.n_jac_head + 8 * m + len(self._line_v))
        self._jac_const[16 * m + 3 * nb:self.n_jac_head + 4 * m] = np.repeat(
            [1.0, -1.0], (2 * na, 4 * m))
        self.compiled = {}

    def pack(self, state: FlowState):
        x = np.empty(self.nvar)
        nb = self.nb
        x[self.v0:self.v0 + nb] = state.v
        x[self.th0:self.th0 + nb] = state.theta
        x[self.bcs0:self.bcs0 + nb] = state.bcs
        x[self.p0:self.q0] = state.p_gen[self.gens]
        x[self.q0:self.fl0] = state.q_gen[self.gens]
        x[self.fl0:] = state.flows[self.svc].reshape(-1)
        return x

    def unpack(self, x):
        nb = self.nb
        p_gen, q_gen = np.zeros(self.ng), np.zeros(self.ng)
        p_gen[self.gens] = x[self.p0:self.q0]
        q_gen[self.gens] = x[self.q0:self.fl0]
        flows = np.zeros((self.nbr, 4))
        flows[self.svc] = self.flow_vars(x)
        return FlowState(
            v=x[self.v0:self.v0 + nb].copy(),
            theta=x[self.th0:self.th0 + nb].copy(),
            bcs=x[self.bcs0:self.bcs0 + nb].copy(),
            p_gen=p_gen, q_gen=q_gen, flows=flows,
        )

    def flow_vars(self, x):
        """The flow variables, shape (in-service branches, 4)."""
        return x[self.fl0:self.nvar].reshape(-1, 4)

    # --- values on a flat layout vector x ---------------------------------

    def branch_terms(self, x):
        """(g, cs, vv, T): the per-branch work that `flow_values` and
        `branch_jac` (through `jac_head`) share as `terms`, so a caller that
        needs both at one x gathers and evaluates it once.  Side-major, a
        row per flow side over the m in-service branches: g (14, m) holds
        the voltage at each side's squared-voltage end (v_o, v_o, v_d, v_d),
        v_o and v_d on every side (rows 4-7 and 8-11), and th_o and th_d;
        cs (2, 4, m) cos d and sin d on every side; vv (4, m) v_o v_d; and
        T (4, m) = P cos d + Q sin d."""
        m = self.m
        g = x[self._side_cols]
        d = g[12] - g[13]
        d -= self.phi
        cs = np.empty(2 * m)
        np.cos(d, out=cs[:m])
        np.sin(d, out=cs[m:])
        cs = cs[self._cs_rep]
        pq = self._PQ * cs
        return g, cs, g[4:8] * g[8:12], np.add(pq[0], pq[1])

    def flow_values(self, x, terms=None):
        """Flow expressions, shape (in-service branches, 4): the transpose
        of a new side-major array."""
        g, _, vv, T = self.branch_terms(x) if terms is None else terms
        vx = g[:4]
        f = self._KT * vx
        f *= vx
        f += T * vv
        return f.T

    def shunts(self, x):
        """(2, nb): the P and Q balance's shunt coefficient per bus, -g_fs and
        b_fs + bcs, so that the shunt terms are ``shunts(x) * v * v``; a new
        array."""
        y = self._shunt0.copy()
        y[1] += x[self.bcs0:self.p0]
        return y

    def balance(self, x, flows=None):
        """Per-bus mismatch before slacks, from the flow variables or the given
        `flows` (in-service branches, 4): P at every bus, then Q, as one flat
        vector (``reshape(2, -1)`` splits it).  One `bincount` of the bus
        terms, then the generator outputs and negated flows, in column order.
        The bus terms are ``-load + shunts(x) * v * v`` for P and Q at once,
        the same floats as ``-p_load - g_fs * v * v`` (negation is exact)."""
        nb, n_bus_gen = self.nb, self.fl0 - self.p0 + 2 * self.nb
        w = np.empty(len(self._bal_rows))
        v2 = x[self._v2]
        bus = w[:2 * nb].reshape(2, nb)
        np.multiply(self.shunts(x), v2, out=bus)
        bus *= v2
        bus += self._neg_load
        w[2 * nb:n_bus_gen] = x[self.p0:self.fl0]
        fl = w[n_bus_gen:]
        fl.reshape(-1, 4)[:] = self.flow_vars(x) if flows is None else flows
        np.negative(fl, out=fl)
        return np.bincount(self._bal_rows, w, 2 * nb)

    def ratings(self, x):
        """(lhs, rhs): squared flow magnitudes and rating bases, shape
        (in-service branches, 2) for (origin, destination), each the
        transpose of a new (2, m) array."""
        fl = self.flow_vars(x)
        f2 = (fl * fl).T
        v1 = np.concatenate((x[self.v0:self.th0], self._one))
        return (f2[0::2] + f2[1::2]).T, (self._rate2 * v1[self._rate_v]).T

    # --- first derivatives ----------------------------------------------

    def jac_pattern(self):
        """(rows, cols) of the expression Jacobian, in `jac_values` order;
        no (row, col) pair repeats."""
        m, nb = self.m, self.nb
        rP, rQ, r0 = 4 * m, 4 * m + nb, 4 * m + 2 * nb
        bus = np.arange(nb)
        fc = np.arange(self.fl0, self.nvar)
        rows = [np.repeat(np.arange(4 * m), 4),
                rP + bus, rQ + bus, rQ + bus, rP + self.bal_row,
                np.repeat(r0 + 2 * np.arange(m)[:, None] + [0, 1], 2, axis=1).ravel(),
                (r0 + 2 * self.line_pos[:, None] + [0, 1]).ravel()]
        cols = [self._branch_cols[:, [0, 2, 4, 5]].repeat(4, axis=0).ravel(),
                self.v0 + bus, self.v0 + bus, self.bcs0 + bus,
                np.arange(self.p0, self.nvar), fc, self._line_v]
        return np.concatenate(rows), np.concatenate(cols)

    def jac_head(self, x, terms=None):
        """The first `n_jac_head` entries of `jac_values`: the flow rows, the
        shunt entries and the generator outputs' entries."""
        return self._fill_head(x, self._jac_const[:self.n_jac_head].copy(), terms)

    def jac_values(self, x):
        """Expression-Jacobian values on the `jac_pattern` entries."""
        out = self._fill_head(x, self._jac_const.copy())
        n = self.n_jac_head + 4 * self.m
        out[n:n + 4 * self.m] = 2.0 * x[self.fl0:self.nvar]
        out[n + 4 * self.m:] = self._line_r2 * x[self._line_v]
        return out

    def branch_jac(self, blk, terms):
        """Fill blk, any (4, 4, m) view, with the flow rows' derivatives from
        `branch_terms`: blk[k, j, b] is the derivative of in-service branch
        b's flow side j in (v_o, v_d, th_o, th_d)[k]."""
        g, cs, vv, T = terms
        np.multiply(T, g[8:12], out=blk[0])
        np.multiply(T, g[4:8], out=blk[1])
        blk[:2] += self._dK * g[4:12].reshape(2, 4, -1)
        qp = self._QP * cs
        np.subtract(qp[0], qp[1], out=blk[2])
        blk[2] *= vv
        np.negative(blk[2], out=blk[3])

    def _fill_head(self, x, out, terms=None):
        m, nb = self.m, self.nb
        self.branch_jac(out[:16 * m].reshape(m, 4, 4).transpose(2, 1, 0),
                        self.branch_terms(x) if terms is None else terms)
        v = x[self.v0:self.th0]
        n = 16 * m
        np.multiply(2.0 * self.shunts(x), v, out=out[n:n + 2 * nb].reshape(2, nb))
        out[n + 2 * nb:n + 3 * nb] = v * v
        return out

    # --- second derivatives ---------------------------------------------

    # per-branch Hessian entries over (v_o, v_d, th_o, th_d)
    _HESS_PAIRS = np.array([(0, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 2),
                            (1, 3), (2, 2), (3, 3), (2, 3)])

    def hess_pattern(self):
        """(rows, cols) with rows >= cols of the weighted expression
        Hessian, in `hess_values` order; pairs may repeat (they add up)."""
        nb = self.nb
        bus = np.arange(nb)
        cv = self._branch_cols[:, [0, 2, 4, 5]]
        a, b = cv[:, self._HESS_PAIRS[:, 0]], cv[:, self._HESS_PAIRS[:, 1]]
        fc = np.arange(self.fl0, self.nvar)
        rows = [np.maximum(a, b).ravel(), self.v0 + bus, self.bcs0 + bus, fc, self._line_v]
        cols = [np.minimum(a, b).ravel(), self.v0 + bus, self.v0 + bus, fc, self._line_v]
        return np.concatenate(rows), np.concatenate(cols)

    def hess_values(self, x, weights):
        """Values on the `hess_pattern` entries of
        ``sum_r weights[r] * hess(expr_r)``."""
        m, nb = self.m, self.nb
        v = x[self.v0:self.v0 + nb]
        g, cs, _, T = self.branch_terms(x)
        # branch-major, T as a new C-ordered array, as the sums below take it
        vx, c, s, T = g[:4].T, cs[0, 0, :, None], cs[1, 0, :, None], T.T.copy()
        w = weights[:4 * m].reshape(m, 4)
        wK = 2.0 * w * self.K
        wT = (w * T).sum(axis=1)
        wTp = (w * (self.Q * c - self.P * s)).sum(axis=1)
        wP, wQ = weights[4 * m:4 * m + nb], weights[4 * m + nb:4 * m + 2 * nb]
        w_rat = weights[4 * m + 2 * nb:].reshape(m, 2)
        out = np.empty(14 * m + 2 * nb + len(self._line_v))
        blk = out[:10 * m].reshape(m, 10)
        blk[:, :2] = wK[:, 0::2] + wK[:, 1::2]
        blk[:, 2] = wT
        blk[:, 3:7] = wTp[:, None] * vx[:, ::-1] * [1.0, -1.0, 1.0, -1.0]
        blk[:, 7:] = (wT * (vx[:, 0] * vx[:, 2]))[:, None] * [-1.0, -1.0, 1.0]
        n = 10 * m
        bcs = x[self.bcs0:self.bcs0 + nb]
        out[n:n + nb] = -2.0 * self.g_fs * wP + 2.0 * (self.b_fs + bcs) * wQ
        out[n + nb:n + 2 * nb] = 2.0 * v * wQ
        out[n + 2 * nb:n + 2 * nb + 4 * m].reshape(m, 2, 2)[:] = 2.0 * w_rat[:, :, None]
        out[n + 2 * nb + 4 * m:] = self._line_r2 * w_rat[self.line_pos].ravel()
        return out


def balance_residuals(net, state, outaged=None):
    """Per-bus active/reactive mismatch before slacks, excluding the outage."""
    lay = CaseLayout.of(net, outaged)
    return BalanceResiduals(*lay.balance(lay.pack(state)).reshape(2, -1))
