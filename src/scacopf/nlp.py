"""Generic smooth NLP interface, a primal-dual interior-point solver, and a
damped Newton solver for square nonlinear systems whose steps are solved
with a dense LU when the system is small and a sparse LU otherwise.

The interior-point method uses a monotone barrier schedule, one sparse LU
per inertia-correction attempt in the common case, inertia correction via
Levenberg regularization, a fraction-to-boundary rule, and the filter line
search with second-order corrections of Waechter & Biegler (Math. Program.
106, 2006, Sec. 2.3-2.4), without its feasibility restoration phase: a step
is accepted if it reduces the constraint violation or the barrier objective
enough and is not barred by the filter of earlier iterates.  Bounds are
relaxed slightly on the inside; reported objectives are always the true
(unrelaxed) ones.

Each attempt factors the quasi-definite KKT matrix, K with its equality
block regularized to -delta_c, once: a symmetric LU with diagonal pivots
only, under MMD on A'+A.  That LU gives the inertia (right when no pivot
left the diagonal and exactly m pivots are negative) and the step, which is
refined against K with its unregularized dual block and, where plain
refinement stalls, by restarted GMRES preconditioned with the same LU; the
step is accepted at a residual of at most `STEP_GATE` = 1e-14 times
max(1, |rhs|_inf).  Two fallbacks keep the earlier two-LU path: where that
LU pivots off the diagonal or counts other than m negative pivots, an LU of
the primal Schur complement P decides the inertia (the KKT matrix has the
wanted inertia iff P is positive definite, which a no-pivot LU decides);
where the step misses the gate, an LU of K itself with COLAMD and partial
pivoting gives it.  `NlpSolution` counts the LUs, the P tests and the
COLAMD steps of a solve.

A solve starts cold by default, for an x0 far from the optimum such as a
flat start: the barrier parameter at mu0 = 1 and every bound and
inequality-slack multiplier at 1 (Waechter & Biegler 2006, Sec. 3.6).
`warm_start=True` starts at mu0 = 0.1 with those multipliers at mu0 over
their gaps, for an x0 that is already a solved point.  Equality multipliers
start at 0 either way.  A solve is `optimal` only when its KKT error is at
or below `tol` and the barrier parameter has reached its floor tol/10, so a
cold start that meets `tol` early still ends on the same barrier problem as
a warm one.

The KKT matrix and its Schur complement have one sparsity pattern for as
long as the Hessian and Jacobian patterns stay the same, which for the
problems of `scopf` is the whole solve.  `_Kkt` compiles the quasi-definite
pattern once, and each fallback's pattern on its first use, and fills each
attempt's values with one `np.bincount`.  These three patterns and the
Jacobians of `solve_square` above `DENSE_LU_MAX` rows are each factored by
an `_LuPattern`: its first LU finds a fill-reducing ordering and bakes it
into the pattern, and every LU then factors the pre-permuted matrix in
natural order.  Every sparse LU goes through `_splu`, which calls SuperLU
(Li 2005, ACM TOMS 31(3)) with relax=1 and panel_size=1.  These matrices have a few nonzeros per column,
and against SuperLU's default supernode relaxation and panel size the two
settings take 20-40 % off each LU, on a 2-core x86 host: 48 against 62 us
for an 80-row screening Jacobian, 24-27 against 29-35 ms for a 300-bus base
KKT matrix and 5.3-6.4 against 7.8-8.6 ms for its Schur complement.

A SuperLU call also pays a fixed cost of about 30 us whatever the matrix,
so a square Jacobian of at most `DENSE_LU_MAX` = 128 rows (the fast
evaluation's Newton systems below about 50 buses; `eval._SquareStructure`
makes the choice) is factored by a `_DenseLuPattern` instead: one
`np.bincount` into an n x n array and LAPACK getrf, solved with getrs.  The
constant is the measured crossover: screening with dense LUs is faster up
to 119 rows, even at 159 and slower at 239 (figures at `DENSE_LU_MAX`).
`_Pattern` is the compiled sparsity pattern that every layer above fills
its matrices with.
"""

from __future__ import annotations

import copy
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
TIME_LIMIT = "time_limit"
NUMERICAL_FAILURE = "numerical_failure"
SOLVED = "solved"
FAILED = "failed"


@dataclass
class NlpProblem:
    """Smooth NLP: min f(x) s.t. eq(x)=0, ineq(x)<=0, lb<=x<=ub."""

    n: int
    x0: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    eq: Callable[[np.ndarray], np.ndarray]
    ineq: Callable[[np.ndarray], np.ndarray]
    jac_eq: Callable[[np.ndarray], sparse.spmatrix]
    jac_ineq: Callable[[np.ndarray], sparse.spmatrix]
    # hess(x, sigma_f, lam_eq, lam_ineq): lower triangle of the Lagrangian
    # Hessian sigma_f * hess(f) + sum lam_eq*hess(eq) + sum lam_ineq*hess(ineq)
    hess: Callable[..., sparse.spmatrix]
    n_eq: int = 0
    n_ineq: int = 0
    # opaque builder-owned handle (e.g. variable-layout metadata); unused here
    meta: object = None


@dataclass
class NlpSolution:
    x: np.ndarray
    lambda_eq: np.ndarray
    lambda_ineq: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray
    objective: float
    status: str
    iterations: int = 0
    constraint_violation: float = 0.0
    # the KKT error E0 and barrier parameter of the last iterate examined
    kkt_error: float = np.inf
    mu: float = 0.0
    # KKT LUs made (SuperLU calls, orderings included), attempts whose
    # inertia the Schur complement decided, and attempts whose step needed
    # K's own LU (see `_Kkt`)
    lus: int = 0
    p_tests: int = 0
    colamd_steps: int = 0


class _Pattern:
    """Fixed sparsity pattern: raw (row, col) entries, repeats allowed,
    compiled once to canonical CSR (or CSC) index arrays; `matrix` sums the
    raw values onto them, and `permuted` moves the raw entries.

    The index arrays are validated once, by the matrix built at compile
    time; every `matrix` is a shallow copy of it with data of its own, so it
    shares them read-only."""

    def __init__(self, rows, cols, shape, csc=False):
        major, minor = (cols, rows) if csc else (rows, cols)
        n_major, n_minor = shape[::-1] if csc else shape
        keys = np.asarray(major, dtype=np.int64) * n_minor
        keys += minor
        uniq, self.slot = np.unique(keys, return_inverse=True)
        self.indices = (uniq % n_minor).astype(np.int32)
        self.indptr = np.searchsorted(uniq // n_minor,
                                      np.arange(n_major + 1)).astype(np.int32)
        self.shape = shape
        self.csc = csc
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        fmt = sparse.csc_matrix if csc else sparse.csr_matrix
        self._empty = fmt((np.zeros(len(self.indices)), self.indices, self.indptr),
                          shape=shape)

    def matrix(self, vals):
        out = copy.copy(self._empty)
        out.data = np.bincount(self.slot, weights=vals, minlength=len(self.indices))
        return out

    def permuted(self, row_pos, col_pos):
        """The pattern with raw row i moved to row_pos[i] and raw column j to
        col_pos[j]; raw values keep their order."""
        major = np.repeat(np.arange(len(self.indptr) - 1, dtype=np.int32),
                          np.diff(self.indptr))[self.slot]
        minor = self.indices[self.slot]
        rows, cols = (minor, major) if self.csc else (major, minor)
        return _Pattern(row_pos[rows], col_pos[cols], self.shape, self.csc)


# ordering of square-system LUs: on A' + A, for a power-flow Jacobian is
# nearly structurally symmetric
SQUARE_ORDERING = "MMD_AT_PLUS_A"


class _LuPattern:
    """`_Pattern` of a square CSC matrix that is factored by a sparse LU
    again and again.  The first LU finds a fill-reducing ordering (a SuperLU
    `permc_spec`) and bakes it into the pattern: into the columns, or with
    `symmetric` into the rows and columns, for a no-pivot LU in
    SymmetricMode (an LDL' in disguise).  Every LU, the first one included,
    then factors the pre-permuted matrix in natural order.  So an LU depends
    on the pattern and the values alone, not on the values it was first
    ordered for."""

    def __init__(self, rows, cols, n, ordering=SQUARE_ORDERING, symmetric=False):
        self.pattern = _Pattern(rows, cols, (n, n), csc=True)
        self.ordering, self.symmetric = ordering, symmetric
        self.pos = None

    def lu(self, vals):
        """(A, lu, pos) for raw values vals: `lu` factors the matrix A, whose
        column pos[j] (and, if symmetric, row pos[i]) is column j (row i) of
        the matrix, or is None if the matrix is exactly singular."""
        if self.pos is None:
            A = self.pattern.matrix(vals)
            first = _splu(A, self.ordering, self.symmetric)
            if first is None:
                return A, None, np.arange(A.shape[0])
            # a copy: `perm_c` is a view that would keep the LU alive
            self.pos = first.perm_c.copy()
            rows = self.pos if self.symmetric else np.arange(A.shape[0])
            self.pattern = self.pattern.permuted(rows, self.pos)
        A = self.pattern.matrix(vals)
        return A, _splu(A, "NATURAL", self.symmetric), self.pos


# the most rows of a square Jacobian that `eval._SquareStructure` factors
# with a dense LU (`_DenseLuPattern`); larger ones go to SuperLU
# (`_LuPattern`).  The crossover, on a 2-core x86 host with BLAS at 1 thread,
# from the median time of `fast_evaluate` on every contingency of `gen-case`
# n --seed 3 with each factorizer (8 alternating sweeps a run): dense is 24 %
# faster at 35-37 rows (n = 14), 22 % at 79 (n = 30), 11-16 % at 119
# (n = 45), even at 159 (n = 60; four runs from 15 % faster to 4 % slower)
# and 28-63 % slower at 239 (n = 90).  At 79 rows an LU and one solve take
# 43-72 us dense against 61-107 us on SuperLU.
DENSE_LU_MAX = 128

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


class _DenseLuPattern:
    """Dense counterpart of `_LuPattern` for small square systems, with the
    same `lu`: the raw (row, col) entries are compiled once to flat indices
    of the Fortran-ordered n x n array, which each LU fills with one
    `np.bincount` and factors with LAPACK getrf.  Its partial pivoting needs
    no ordering, so pos is the identity."""

    def __init__(self, rows, cols, n):
        self.flat = np.asarray(cols, dtype=np.int64) * n + rows
        self.n = n
        self.pos = np.arange(n)

    def lu(self, vals):
        """(A, lu, pos) as `_LuPattern.lu` gives them, A a dense array."""
        n = self.n
        A = np.bincount(self.flat, weights=vals, minlength=n * n).reshape(
            (n, n), order="F")
        return A, _dense_lu(A), self.pos


class _DenseLu:
    """A getrf factorization with the `solve` of a SuperLU object."""

    def __init__(self, lu, piv):
        self.lu, self.piv = lu, piv

    def solve(self, rhs):
        return _getrs(self.lu, self.piv, rhs)[0]


def _dense_lu(A):
    """A dense LU of the square array A, or None if A is exactly singular."""
    lu, piv, info = _getrf(A)
    return _DenseLu(lu, piv) if info == 0 else None


def _splu(A, permc_spec, symmetric=False):
    """A sparse LU of the CSC matrix A, or None if A is exactly singular;
    `symmetric` takes diagonal pivots only.  Supernodes are not relaxed and
    panels are one column wide (see the module docstring)."""
    opts = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True}) \
        if symmetric else {}
    try:
        return splu(A, permc_spec=permc_spec, relax=1, panel_size=1, **opts)
    except RuntimeError:
        return None


def _row_stack(A, B):
    """[A; B] for CSR matrices A and B, from their index arrays."""
    return sparse.csr_matrix(
        (np.concatenate((A.data, B.data)), np.concatenate((A.indices, B.indices)),
         np.concatenate((A.indptr, B.indptr[1:] + A.nnz))),
        shape=(A.shape[0] + B.shape[0], A.shape[1]))


class _Kkt:
    """KKT matrix K = [[W, J'], [J, -diag(d)]] with W = Hs + diag(w_diag),
    where Hs is the symmetric matrix whose lower triangle is Hl, compiled for
    one pattern of Hl (CSC) and J (CSR), and the LUs of each
    inertia-correction attempt on it (`factor`).

    Each matrix is filled from the values of Hl, w_diag, J and d with one
    `np.bincount`: the raw entries of W are Hl's, the mirror of its
    off-diagonal ones and the diagonal.  An attempt makes one LU in the
    common case, of the quasi-definite matrix: K with its equality block
    regularized to -delta_c.  Where W is positive definite, that matrix is
    symmetric quasi-definite and has an LDL' factorization under any
    symmetric ordering (Vanderbei 1995, SIAM J. Optim. 5(1)), so its
    pattern `Q` is ordered by MMD on A'+A, baked into rows and columns, and
    factored with diagonal pivots only.  That one LU decides the inertia,
    which is right when no pivot left the diagonal and exactly m pivots are
    negative, and gives the step (`_KktSolve`).  Two fallbacks keep the
    two-LU path, each compiled on first use:

    - when the LU pivots off the diagonal or counts other than m negative
      pivots, the Schur complement P = W + J' diag(1/d) J decides the
      inertia; its raw entries add S[k,a] S[k,b] for every pair (a, b) of
      entries in one row k of S = diag(1/sqrt(d)) J, and `P` is ordered by
      MMD on rows and columns and factored without pivoting;
    - when the step misses `STEP_GATE`, an LU of K itself gives it; `K` is
      ordered by COLAMD on columns and factored with partial pivoting.

    `counts` tallies the LUs made, the P tests and the COLAMD steps.
    """

    def __init__(self, Hl, J):
        n, m = Hl.shape[0], J.shape[0]
        self.n, self.m = n, m
        self.structure = tuple(np.array(a) for a in self._structure(Hl, J))
        h_col = np.repeat(np.arange(n), np.diff(Hl.indptr))
        self._mirror = np.flatnonzero(Hl.indices != h_col)
        diag = np.arange(n)
        w_rows = np.concatenate((Hl.indices, h_col[self._mirror], diag))
        w_cols = np.concatenate((h_col, Hl.indices[self._mirror], diag))
        self._n_w = len(w_rows)
        self._j_row = np.repeat(np.arange(m), np.diff(J.indptr))
        j_row, dual = n + self._j_row, n + np.arange(m)
        self._entries = (np.concatenate((w_rows, j_row, J.indices, dual)),
                         np.concatenate((w_cols, J.indices, j_row, dual)))
        self.Q = _LuPattern(*self._entries, n + m, "MMD_AT_PLUS_A", symmetric=True)
        self.counts = Counter()

    @cached_property
    def _pairs(self):
        """Entry pairs (a, b) within a row of J: entry a once per entry b of
        its row."""
        indptr = self.structure[2]
        per_row = np.diff(indptr)[self._j_row]
        pa = np.repeat(np.arange(len(self._j_row)), per_row)
        first_pair = np.repeat(np.cumsum(per_row) - per_row, per_row)
        return pa, (np.repeat(indptr[self._j_row], per_row)
                    + np.arange(len(pa)) - first_pair)

    @cached_property
    def P(self):
        pa, pb = self._pairs
        j_cols = self.structure[3]
        rows, cols = (e[:self._n_w] for e in self._entries)
        return _LuPattern(np.concatenate((rows, j_cols[pa])),
                          np.concatenate((cols, j_cols[pb])),
                          self.n, "MMD_AT_PLUS_A", symmetric=True)

    @cached_property
    def K(self):
        return _LuPattern(*self._entries, self.n + self.m, "COLAMD")

    @staticmethod
    def _structure(Hl, J):
        return Hl.indptr, Hl.indices, J.indptr, J.indices

    def fits(self, Hl, J):
        """True iff Hl and J have the pattern this was compiled for."""
        return all(np.array_equal(a, b)
                   for a, b in zip(self.structure, self._structure(Hl, J)))

    def _lu(self, pattern, vals):
        """`pattern.lu(vals)`, its SuperLU calls tallied."""
        first = pattern.pos is None
        out = pattern.lu(vals)
        self.counts["lus"] += 1 + (first and pattern.pos is not None)
        return out

    def _w_values(self, h, w_diag):
        return np.concatenate((h, h[self._mirror], w_diag))

    def schur(self, h, w_diag, j, d):
        """P's raw values, for values h of Hl and j of J."""
        pa, pb = self._pairs
        scaled = j / np.sqrt(d[self._j_row])
        return np.concatenate((self._w_values(h, w_diag), scaled[pa] * scaled[pb]))

    def values(self, h, w_diag, j, d):
        """K's raw values."""
        return np.concatenate((self._w_values(h, w_diag), j, j, -d))

    def quasi_definite(self, h, w_diag, j, d):
        """(lu, pos, ok): the LU of K with dual block -diag(d) (d > 0) as
        `Q.lu` gives it, and whether it shows the inertia (n, m, 0).

        With diagonal pivots only (perm_r == perm_c) the LU is an LDL' of
        the symmetrically permuted K, whose D is U's diagonal, so by
        Sylvester's law of inertia K has m negative eigenvalues iff D has m
        negative entries (and none is 0, or the LU would have pivoted off
        the diagonal).  False does not show a wrong inertia."""
        _, lu, pos = self._lu(self.Q, self.values(h, w_diag, j, d))
        ok = lu is not None and bool(np.array_equal(lu.perm_r, lu.perm_c)) \
            and np.count_nonzero(lu.U.diagonal() < 0.0) == self.m
        return lu, pos, ok

    def inertia_ok(self, h, w_diag, j, d):
        """True iff K has inertia (n, m, 0), for d > 0.

        By Haynsworth's law the inertia is (0, m, 0) plus the inertia of P,
        so the answer is whether P is positive definite.  That is decided by
        an LU of P with symmetric ordering and no pivoting: P is positive
        definite iff no off-diagonal pivot was needed and every pivot is
        positive.
        """
        _, lu, _ = self._lu(self.P, self.schur(h, w_diag, j, d))
        return lu is not None and bool(np.array_equal(lu.perm_r, lu.perm_c)
                                       and np.all(lu.U.diagonal() > 0.0))

    def factor(self, h, w_diag, j, d, d_test):
        """One attempt: the `_KktSolve` of K with dual block -diag(d), or
        None if K with dual block -diag(d_test) has the wrong inertia.
        d_test > 0 is d with the equality block regularized; the
        quasi-definite LU is of that K, and P decides only where that LU
        does not show the inertia."""
        lu, pos, ok = self.quasi_definite(h, w_diag, j, d_test)
        if not ok:
            self.counts["p_tests"] += 1
            if not self.inertia_ok(h, w_diag, j, d_test):
                return None
        return _KktSolve(self, self.values(h, w_diag, j, d), lu, pos)


# a step from the quasi-definite LU is accepted when its residual against K
# is at most STEP_GATE * max(1, |rhs|_inf)
STEP_GATE = 1e-14
# refinement steps against K before GMRES takes over (each must at least
# halve the residual), and GMRES's Krylov vectors per cycle and cycles
QD_REFINE_STEPS = 4
GMRES_RESTART, GMRES_CYCLES = 20, 2


class _KktSolve:
    """Solver of K x = rhs for one attempt, a callable that returns x, or
    None if K is exactly singular.  x comes from the quasi-definite LU where
    `_gated_solve` meets the gate with it, else from an LU of K itself,
    made at most once per attempt; `qd` says which solved the last rhs."""

    def __init__(self, kkt, vals, lu, pos):
        self.kkt, self.vals, self.lu, self.pos = kkt, vals, lu, pos
        self.qd = False
        self._A = self._k = None

    def __call__(self, rhs):
        self.qd = False
        if self.lu is not None:
            if self._A is None:
                self._A = self.kkt.Q.pattern.matrix(self.vals)
            b = np.empty_like(rhs)
            b[self.pos] = rhs
            x = _gated_solve(self._A, self.lu, b)
            if x is not None:
                self.qd = True
                return x[self.pos]
        if self._k is None:
            self.kkt.counts["colamd_steps"] += 1
            self._k = self.kkt._lu(self.kkt.K, self.vals)
        K, lu, pos = self._k
        return None if lu is None else _refined_solve(K, lu, rhs)[pos]


def _gated_solve(A, lu, b):
    """x with |b - A x|_inf <= STEP_GATE * max(1, |b|_inf), or None, from
    an LU of a matrix near A: refined while each step at least halves the
    residual, then by restarted GMRES preconditioned on the right with the
    same LU (GMRES-based refinement, Carson & Higham 2017, SIAM J. Sci.
    Comput. 39(6))."""
    gate = STEP_GATE * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    x = lu.solve(b)
    r = b - A @ x
    norm = float(np.max(np.abs(r), initial=0.0))
    for _ in range(QD_REFINE_STEPS):
        if norm <= gate:
            break
        cand = x + lu.solve(r)
        cand_r = b - A @ cand
        cand_norm = float(np.max(np.abs(cand_r)))
        if not cand_norm <= 0.5 * norm:
            break
        x, r, norm = cand, cand_r, cand_norm
    if norm <= gate:
        return x
    return _gmres(A, lu, b, x, r, gate) if np.isfinite(norm) else None


def _gmres(A, lu, b, x, r, gate):
    """Restarted GMRES on A e = r, preconditioned on the right by lu, from
    x with residual r = b - A x: the corrected x once its residual's max
    norm is at most gate, or None after GMRES_CYCLES cycles."""
    rows = GMRES_RESTART + 1
    for _ in range(GMRES_CYCLES):
        beta = float(np.linalg.norm(r))
        V = np.empty((rows, len(b)))
        Z = np.empty((GMRES_RESTART, len(b)))
        H = np.zeros((rows, GMRES_RESTART))
        e1 = np.zeros(rows)
        e1[0] = beta
        V[0] = r / beta
        for k in range(GMRES_RESTART):
            Z[k] = lu.solve(V[k])
            v = A @ Z[k]
            for i in range(k + 1):  # modified Gram-Schmidt
                H[i, k] = V[i] @ v
                v -= H[i, k] * V[i]
            H[k + 1, k] = np.linalg.norm(v)
            y = np.linalg.lstsq(H[:k + 2, :k + 1], e1[:k + 2], rcond=None)[0]
            if np.linalg.norm(e1[:k + 2] - H[:k + 2, :k + 1] @ y) <= gate \
                    or not H[k + 1, k] > 0.0:
                break
            V[k + 1] = v / H[k + 1, k]
        x = x + y @ Z[:k + 1]
        r = b - A @ x
        if np.max(np.abs(r)) <= gate:
            return x
    return None


# iterative refinement steps after each back-solve of K's own LU
REFINE_STEPS = 2


def _refined_solve(K, lu, rhs):
    """Solve K sol = rhs with an LU of K and up to REFINE_STEPS refinement
    steps."""
    sol = lu.solve(rhs)
    res = rhs - K @ sol
    for _ in range(REFINE_STEPS):
        cand = sol + lu.solve(res)
        cand_res = rhs - K @ cand
        if not np.max(np.abs(cand_res), initial=0.0) \
                < np.max(np.abs(res), initial=0.0):
            break
        sol, res = cand, cand_res
    return sol


def _relax_bounds(lb, ub, rel=1e-8):
    lb_r = lb.copy()
    ub_r = ub.copy()
    finite_l = np.isfinite(lb)
    finite_u = np.isfinite(ub)
    lb_r[finite_l] -= np.maximum(rel, rel * np.abs(lb[finite_l]))
    ub_r[finite_u] += np.maximum(rel, rel * np.abs(ub[finite_u]))
    return lb_r, ub_r


def _interior_start(x0, lb, ub):
    x = x0.astype(float).copy()
    both = np.isfinite(lb) & np.isfinite(ub)
    pad = np.zeros_like(x)
    pad[both] = np.minimum(1e-2, 0.25 * (ub[both] - lb[both]))
    only_l = np.isfinite(lb) & ~np.isfinite(ub)
    only_u = ~np.isfinite(lb) & np.isfinite(ub)
    with np.errstate(invalid="ignore"):
        lo = np.where(np.isfinite(lb), lb + np.where(both, pad, 0.0), -np.inf)
        hi = np.where(np.isfinite(ub), ub - np.where(both, pad, 0.0), np.inf)
    x = np.clip(x, lo, hi)
    x[only_l] = np.maximum(x[only_l], lb[only_l] + 1e-2)
    x[only_u] = np.minimum(x[only_u], ub[only_u] - 1e-2)
    return x


def _ftb_alpha(val, dval, tau):
    """Largest alpha in (0, 1] with val + alpha*dval >= (1 - tau) * val."""
    mask = dval < 0
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(-tau * val[mask] / dval[mask])))


# filter line search parameters (Waechter & Biegler 2006, Sec. 2.3-2.4)
GAMMA_THETA, GAMMA_PHI = 1e-5, 1e-8
S_THETA, S_PHI, DELTA = 1.1, 2.3, 1.0
ETA = 1e-4
KAPPA_SOC, MAX_SOC = 0.99, 4
MAX_TRIALS = 30
# initial barrier parameter of a cold start, and of a warm one
MU0, MU0_WARM = 1.0, 1e-1
EPS_MACH = np.finfo(float).eps


def _move_out(bound, gap, mu, sign):
    """Move `bound` by sign * eps^(3/4) * max(1, |bound|) wherever `gap`, the
    iterate's distance to it, is below eps * mu: a gap that rounds to
    nothing would keep the iterate on its bound for good (Waechter & Biegler
    2006, Sec. 3.5).  sign is -1 for lower bounds, +1 for upper ones."""
    stuck = gap < EPS_MACH * mu
    bound[stuck] += sign * EPS_MACH ** 0.75 * np.maximum(1.0, np.abs(bound[stuck]))


def solve_nlp(prob: NlpProblem, tol=1e-6, max_iter=300, time_limit=None,
              log=None, warm_start=False):
    """Solve an NlpProblem with a primal-dual interior-point method.

    Returns an NlpSolution; status `optimal` means that the max-norm KKT
    residual E0 is at or below `tol` and that the barrier parameter has
    reached its floor tol/10.  The best iterate found is always returned.

    The start is cold by default: mu0 = 1, and every bound and
    inequality-slack multiplier is 1 (Waechter & Biegler 2006, Sec. 3.6).
    `warm_start=True` is meant for an x0 that is already a solved point:
    it starts at mu0 = 0.1 with each of those multipliers at mu0 over its
    gap, on the central path of that x0.  Equality multipliers start at 0
    either way.

    `log`, if given, is called once per iteration with a dict: `iteration`,
    `objective`, `kkt_error` and `mu` at the current iterate, and
    `delta_w`, `delta_c`, `factor_attempts`, `alpha_primal` and
    `alpha_dual` of the step that led to it (all 0 at the first iterate).
    `delta_c` is the dual regularization of the LU that gave the step: the
    quasi-definite one's delta_c (or the larger dc of an exactly singular
    K), or K's own LU's dc, which is 0 unless K is exactly singular.
    """
    t_start = time.monotonic()
    n = prob.n
    me, mi = prob.n_eq, prob.n_ineq
    lb_true = np.asarray(prob.lb, float)
    ub_true = np.asarray(prob.ub, float)
    lb, ub = _relax_bounds(lb_true, ub_true, rel=min(1e-8, max(tol, 1e-14)))
    fin_l = np.isfinite(lb)
    fin_u = np.isfinite(ub)

    def values(xv):
        """(objective, eq, ineq) at xv."""
        return (prob.objective(xv), prob.eq(xv) if me else np.zeros(0),
                prob.ineq(xv) if mi else np.zeros(0))

    x = _interior_start(np.asarray(prob.x0, float), lb, ub)
    # the values at x, carried from where x was evaluated (the start, or the
    # accepted trial point), or None if it was not (a trial point off bounds)
    at_x = values(x)
    t = np.maximum(1e-2, -at_x[2])
    t_lo = np.zeros(mi)  # the slacks' lower bounds, moved by `_move_out`
    y = np.zeros(me)
    mu, w = MU0, np.ones(mi)
    zl, zu = fin_l.astype(float), fin_u.astype(float)
    if warm_start:
        mu = MU0_WARM
        w = np.maximum(mu / np.maximum(t, 1e-8), 1e-8)
        zl[fin_l] = mu / (x[fin_l] - lb[fin_l])
        zu[fin_u] = mu / (ub[fin_u] - x[fin_u])

    tau_ftb = 0.995
    delta_c = 1e-8
    delta_w_last = 0.0
    last_step = dict(delta_w=0.0, delta_c=0.0, factor_attempts=0,
                     alpha_primal=0.0, alpha_dual=0.0)

    best = None
    kkt = None
    counts = Counter()

    def viol(xv, cEv, cIv):
        v = 0.0
        if me:
            v = max(v, float(np.max(np.abs(cEv))))
        if mi:
            v = max(v, float(np.max(np.maximum(cIv, 0.0))))
        v = max(v, float(np.max(np.maximum(lb - xv, 0.0), initial=0.0)))
        v = max(v, float(np.max(np.maximum(xv - ub, 0.0), initial=0.0)))
        return v

    def consider(xv, cEv, cIv, fv):
        nonlocal best
        score = (viol(xv, cEv, cIv), fv)
        if best is None or score < best[0]:
            best = (score, xv.copy())

    def theta_of(cEv, cIv, tv):
        """l1 norm of the constraint residual (the filter's theta)."""
        return float(np.sum(np.abs(cEv)) + np.sum(np.abs(cIv + tv)))

    def barrier(xv, tv, fv):
        """Barrier objective phi at (xv, tv), whose objective value is fv."""
        return fv - mu * (np.sum(np.log(xv[fin_l] - lb[fin_l]))
                          + np.sum(np.log(ub[fin_u] - xv[fin_u]))
                          + np.sum(np.log(tv - t_lo)))

    def measures(xv, tv):
        """(theta, phi, `values`) at a trial point; theta and phi are inf and
        nothing is evaluated outside the bounds."""
        if np.any(xv[fin_l] <= lb[fin_l]) or np.any(xv[fin_u] >= ub[fin_u]) \
                or np.any(tv <= t_lo):
            return np.inf, np.inf, None
        vals = values(xv)
        return theta_of(vals[1], vals[2], tv), barrier(xv, tv, vals[0]), vals

    # the filter: (theta, phi) pairs that bar every trial point with a larger
    # theta and a larger phi; it starts empty at each barrier parameter
    filt = []
    theta_start = theta_of(at_x[1], at_x[2], t)
    theta_max = 1e4 * max(1.0, theta_start)
    theta_min = 1e-4 * min(1.0, theta_start)

    status = MAX_ITER
    it = 0
    e0 = np.inf
    for it in range(1, max_iter + 1):
        _move_out(lb, x - lb, mu, -1.0)
        _move_out(ub, ub - x, mu, 1.0)
        _move_out(t_lo, t - t_lo, mu, -1.0)
        if at_x is None:
            at_x = values(x)
        f, cE, cI = at_x
        g = prob.gradient(x)
        JE = prob.jac_eq(x).tocsr() if me else sparse.csr_matrix((0, n))
        JI = prob.jac_ineq(x).tocsr() if mi else sparse.csr_matrix((0, n))
        consider(x, cE, cI, f)

        gap_l = np.where(fin_l, x - lb, np.inf)
        gap_u = np.where(fin_u, ub - x, np.inf)
        gap_t = t - t_lo

        grad_lag = g + JE.T @ y + JI.T @ w
        r_d = grad_lag - zl + zu
        comp_t = gap_t * w if mi else np.zeros(0)
        comp_l = np.zeros(n)
        comp_l[fin_l] = gap_l[fin_l] * zl[fin_l]
        comp_u = np.zeros(n)
        comp_u[fin_u] = gap_u[fin_u] * zu[fin_u]

        def resid(mu_val):
            r = float(np.max(np.abs(r_d), initial=0.0))
            if me:
                r = max(r, float(np.max(np.abs(cE))))
            if mi:
                r = max(r, float(np.max(np.abs(cI + t))))
                r = max(r, float(np.max(np.abs(comp_t - mu_val))))
            r = max(r, float(np.max(np.abs(comp_l[fin_l] - mu_val), initial=0.0)))
            r = max(r, float(np.max(np.abs(comp_u[fin_u] - mu_val), initial=0.0)))
            return r

        e0 = resid(0.0)
        if log is not None:
            log(dict(iteration=it, objective=f, kkt_error=e0, mu=mu,
                     **last_step))
        if e0 <= tol and mu <= tol / 10.0:
            status = OPTIMAL
            break
        if time_limit is not None and time.monotonic() - t_start > time_limit:
            status = TIME_LIMIT
            break

        while resid(mu) <= 10.0 * mu and mu > tol / 10.0:
            mu = max(tol / 10.0, mu / 5.0)
            filt.clear()

        Hl = prob.hess(x, 1.0, y, w).tocsc()
        J = _row_stack(JE, JI)
        if kkt is None or not kkt.fits(Hl, J):
            kkt = _Kkt(Hl, J)
            kkt.counts = counts  # one tally across recompiled patterns
        sigma_x = np.where(fin_l, zl / np.maximum(gap_l, 1e-16), 0.0) \
            + np.where(fin_u, zu / np.maximum(gap_u, 1e-16), 0.0)

        # gradient of the barrier terms in x; with the Lagrangian's gradient
        # it is the KKT right-hand side, with the objective's the filter's
        bar_grad = np.where(fin_u, mu / np.maximum(gap_u, 1e-16), 0.0) \
            - np.where(fin_l, mu / np.maximum(gap_l, 1e-16), 0.0)
        gbar = grad_lag + bar_grad

        rhs = np.concatenate([
            -gbar,
            -cE,
            -(cI + t_lo + mu / w) if mi else np.zeros(0),
        ])

        # inertia-corrected factorization; dual regularization only kicks in
        # on singularity (e.g. duplicated equality rows) so well-posed
        # problems are solved without the delta_c bias.  The inertia test
        # and the quasi-definite LU put delta_c on the equality block even
        # while dc is 0.
        delta_w = 0.0
        dc = 0.0
        sol = None
        for attempt in range(1, 41):
            w_diag = sigma_x + delta_w
            d_dual = np.concatenate([np.full(me, dc), gap_t / w + dc])
            d_test = np.concatenate([np.full(me, dc or delta_c), gap_t / w + dc])
            solve = kkt.factor(Hl.data, w_diag, J.data, d_dual, d_test)
            if solve is not None:
                sol = solve(rhs)
                if sol is not None:
                    break
                dc = delta_c if dc == 0.0 else dc * 100.0  # K exactly singular
            if delta_w == 0.0:
                delta_w = 1e-4 if delta_w_last == 0.0 else max(1e-6, delta_w_last / 3.0)
            else:
                delta_w *= 10.0
            if delta_w > 1e12:
                break
        if sol is None or not np.all(np.isfinite(sol)):
            status = NUMERICAL_FAILURE
            break
        delta_w_last = delta_w
        # the dual regularization of the LU that gave the step
        dc_step = (dc or delta_c) if solve.qd else dc

        def split(sol):
            """(dx, dy, dw, dzl, dzu) of a KKT solution."""
            dx = sol[:n]
            dzl = np.where(fin_l, mu / np.maximum(gap_l, 1e-16) - zl
                           - zl / np.maximum(gap_l, 1e-16) * dx, 0.0)
            dzu = np.where(fin_u, mu / np.maximum(gap_u, 1e-16) - zu
                           + zu / np.maximum(gap_u, 1e-16) * dx, 0.0)
            return dx, sol[n:n + me], sol[n + me:], dzl, dzu

        def ftb_primal(dx, dt):
            a = _ftb_alpha(gap_t, dt, tau_ftb)
            a = min(a, _ftb_alpha(gap_l[fin_l], dx[fin_l], tau_ftb))
            return min(a, _ftb_alpha(gap_u[fin_u], -dx[fin_u], tau_ftb))

        def ftb_dual(dw, dzl, dzu):
            a = _ftb_alpha(w, dw, tau_ftb)
            a = min(a, _ftb_alpha(zl[fin_l], dzl[fin_l], tau_ftb))
            return min(a, _ftb_alpha(zu[fin_u], dzu[fin_u], tau_ftb))

        dx, dy, dw, dzl, dzu = split(sol)
        dt = -(cI + t) - JI @ dx
        a_pri = ftb_primal(dx, dt)
        a_dual = ftb_dual(dw, dzl, dzu)

        # filter line search (Waechter & Biegler 2006, Sec. 2.3-2.4); dphi is
        # the barrier objective's directional derivative along (dx, dt)
        theta0 = theta_of(cE, cI, t)
        phi0 = barrier(x, t, f)
        dphi = float((g + bar_grad) @ dx) - float(np.sum(mu / gap_t * dt))

        def accepts(theta_n, phi_n, alpha_test):
            """'f' (Armijo step), 'h' (filter step) or None for a trial point
            with measures (theta_n, phi_n); alpha_test is the step size of
            the switching condition and the Armijo test."""
            if not (theta_n <= theta_max and np.isfinite(phi_n)):
                return None
            if any(theta_n >= th and phi_n >= ph for th, ph in filt):
                return None
            # the epsilon slack keeps the tests passable when the predicted
            # decrease is below rounding noise in the barrier objective
            noise = 1e-12 * (1.0 + abs(phi0))
            if theta0 <= theta_min and dphi < 0.0 and \
                    alpha_test * (-dphi) ** S_PHI > DELTA * theta0 ** S_THETA:
                return "f" if phi_n <= phi0 + ETA * alpha_test * dphi + noise else None
            if theta_n <= (1.0 - GAMMA_THETA) * theta0 or \
                    phi_n <= phi0 - GAMMA_PHI * theta0 + noise:
                return "h"
            return None

        def soc_step(theta_n, cEn, cIn, tn):
            """Second-order correction of the rejected full step: the accepted
            (kind, alpha, solution, dt, values) or None."""
            c_soc_e = a_pri * cE + cEn
            c_soc_i = a_pri * (cI + t) + (cIn + tn)
            theta_old = theta_n
            for _ in range(MAX_SOC):
                sol_s = solve(np.concatenate([-gbar, -c_soc_e, -(c_soc_i - gap_t + mu / w)]))
                if sol_s is None or not np.all(np.isfinite(sol_s)):
                    return None
                dx_s = sol_s[:n]
                dt_s = -c_soc_i - JI @ dx_s
                a_soc = ftb_primal(dx_s, dt_s)
                xs, ts = x + a_soc * dx_s, t + a_soc * dt_s
                theta_s, phi_s, vals = measures(xs, ts)
                kind = accepts(theta_s, phi_s, a_pri)
                if kind:
                    return kind, a_soc, sol_s, dt_s, vals
                if not theta_s <= KAPPA_SOC * theta_old:
                    return None
                c_soc_e = a_soc * c_soc_e + vals[1]
                c_soc_i = a_soc * c_soc_i + (vals[2] + ts)
                theta_old = theta_s
            return None

        alpha = a_pri
        kind = None
        for trial in range(MAX_TRIALS):
            tn = t + alpha * dt
            theta_n, phi_n, vals = measures(x + alpha * dx, tn)
            if trial == 0:
                first_vals = vals
            kind = accepts(theta_n, phi_n, alpha)
            if kind:
                break
            # a correction of a zero residual would repeat the same step
            if trial == 0 and theta_n >= theta0 and theta_n > 0.0 \
                    and vals is not None:
                soc = soc_step(theta_n, vals[1], vals[2], tn)
                if soc:
                    kind, alpha, sol, dt, vals = soc
                    dx, dy, dw, dzl, dzu = split(sol)
                    a_dual = ftb_dual(dw, dzl, dzu)
                    break
            alpha *= 0.5
        if kind is None:
            # out of trials: take the fraction-to-boundary step and start
            # a new filter from it
            alpha, vals = a_pri, first_vals
            filt.clear()
        elif kind == "h":
            filt.append(((1.0 - GAMMA_THETA) * theta0, phi0 - GAMMA_PHI * theta0))

        x = x + alpha * dx
        at_x = vals
        t = t + alpha * dt
        y = y + alpha * dy
        # fraction-to-boundary keeps duals positive; the floor only guards
        # against underflow to exactly zero
        w = np.maximum(w + a_dual * dw, 1e-300) if mi else w
        zl = np.where(fin_l, np.maximum(zl + a_dual * dzl, 1e-300), 0.0)
        zu = np.where(fin_u, np.maximum(zu + a_dual * dzu, 1e-300), 0.0)
        last_step = dict(delta_w=delta_w, delta_c=dc_step, factor_attempts=attempt,
                         alpha_primal=alpha, alpha_dual=a_dual)

    f, cE, cI = at_x if at_x is not None else values(x)
    consider(x, cE, cI, f)
    # the best iterate unless optimal, clipped into the caller's true
    # (unrelaxed) bounds, a move of at most the bound relaxation
    x_out = np.clip(x if status == OPTIMAL else best[1], lb_true, ub_true)
    if not np.array_equal(x_out, x):
        x = x_out
        f, cE, cI = values(x)

    return NlpSolution(
        x=x, lambda_eq=y, lambda_ineq=w, z_lower=zl, z_upper=zu,
        objective=f, status=status, iterations=it,
        constraint_violation=viol(x, cE, cI), kkt_error=e0, mu=mu,
        lus=counts["lus"], p_tests=counts["p_tests"],
        colamd_steps=counts["colamd_steps"],
    )


@dataclass
class SquareResult:
    x: np.ndarray
    status: str
    iterations: int = 0
    residual: float = 0.0


def _lu(J):
    """(A, lu, pos) of a Jacobian as `solve_square`'s `jac` returns it: `lu`
    factors the matrix A (CSC, or a dense array from a `_DenseLuPattern`),
    whose column pos[j] is column j of J, or is None if J is exactly
    singular."""
    if isinstance(J, tuple):
        return J[0].lu(J[1])
    A = J.tocsc() if sparse.issparse(J) else sparse.csc_matrix(J)
    return A, _splu(A, SQUARE_ORDERING), np.arange(A.shape[0])


def _solution(lu, rhs, pos):
    """The solution in the Jacobian's column order, or None if not finite."""
    sol = lu.solve(rhs)[pos]
    return sol if np.all(np.isfinite(sol)) else None


def _levenberg(A, F, delta, pos):
    """Regularized least-squares step (J'J + delta I) d = -J'F, for J whose
    column j is column pos[j] of A; factored densely if A is dense."""
    if isinstance(A, np.ndarray):
        M = A.T @ A
        M.flat[::M.shape[0] + 1] += delta
        lu = _dense_lu(M)
    else:
        _, lu, _ = _lu(A.T @ A + delta * sparse.identity(A.shape[1]))
    return None if lu is None else _solution(lu, -(A.T @ F), pos)


def solve_square(fun, jac, x0, tol=1e-8, max_iter=100, time_limit=None):
    """Damped Newton for a square system fun(x) = 0 with Jacobian jac(x).

    jac(x) returns the Jacobian as a matrix, dense or sparse, which each step
    factors with SuperLU, or as a pair (pattern, vals) of a pattern and its
    raw values, factored by the pattern: an `_LuPattern` with SuperLU, in the
    column ordering it keeps from its first LU, or, for a system of at most
    `DENSE_LU_MAX` rows, a `_DenseLuPattern` with LAPACK's dense LU, which
    below that measured crossover costs less than SuperLU's fixed cost per
    call (see the constant).  Backtracks on the residual norm,
    with Levenberg-regularized least-squares steps, factored the same way, as
    a fallback for singular Jacobians.  Returns the best iterate.
    """
    t_start = time.monotonic()
    x = np.asarray(x0, float).copy()
    F = np.asarray(fun(x), float)
    best_x, best_norm = x.copy(), float(np.max(np.abs(F), initial=0.0))
    it = 0
    for it in range(1, max_iter + 1):
        norm_inf = float(np.max(np.abs(F), initial=0.0))
        if norm_inf < best_norm:
            best_x, best_norm = x.copy(), norm_inf
        if norm_inf <= tol:
            return SquareResult(x, SOLVED, it - 1, norm_inf)
        if time_limit is not None and time.monotonic() - t_start > time_limit:
            return SquareResult(best_x, FAILED, it - 1, best_norm)

        A, lu, pos = _lu(jac(x))
        d = None if lu is None else _solution(lu, -F, pos)
        delta = 1e-8
        for _ in range(20):
            if d is not None:
                break
            d = _levenberg(A, F, delta, pos)
            delta *= 10.0
        if d is None:
            return SquareResult(best_x, FAILED, it, best_norm)

        f0 = float(np.sqrt(F @ F))
        alpha = 1.0
        improved = False
        for _ in range(40):
            xn = x + alpha * d
            Fn = np.asarray(fun(xn), float)
            if np.all(np.isfinite(Fn)) and np.sqrt(Fn @ Fn) <= (1 - 1e-4 * alpha) * f0:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            # no progress along the Newton direction: try a regularized step
            d2 = _levenberg(A, F, max(1e-8, 1e-4 * f0), pos)
            if d2 is None:
                return SquareResult(best_x, FAILED, it, best_norm)
            xn = x + d2
            Fn = np.asarray(fun(xn), float)
            if not (np.all(np.isfinite(Fn)) and np.sqrt(Fn @ Fn) < f0):
                return SquareResult(best_x, FAILED, it, best_norm)
        x, F = xn, Fn

    norm_inf = float(np.max(np.abs(F), initial=0.0))
    if norm_inf < best_norm:
        best_x, best_norm = x.copy(), norm_inf
    status = SOLVED if best_norm <= tol else FAILED
    return SquareResult(best_x, status, it, best_norm)
