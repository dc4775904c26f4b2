"""Generic smooth NLP interface, a primal-dual interior-point solver, and a
damped Newton solver for square nonlinear systems whose steps are solved
with a dense LU when the system is small and a sparse LU otherwise.  The
square solver takes no Levenberg or other least-squares step: a solve whose
Jacobian is singular or whose backtracking stalls ends `failed` at its best
iterate.

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
only.  That LU is the attempt's one inertia test: the attempt goes on only
where no pivot left the diagonal and exactly m pivots are negative, and any
other outcome raises delta_w as a wrong inertia does (Waechter & Biegler
2006, Sec. 3.1).  The same LU gives the step, which is refined against K
with its unregularized dual block and, where plain refinement stalls, by
restarted GMRES preconditioned with the same LU; the step is accepted at a
residual of at most `STEP_GATE` = 1e-14 times max(1, |rhs|_inf).  Where the
step misses the gate, an LU of K itself with partial pivoting gives it,
refined by the same rule (`_refine`) with no gate.  `NlpSolution` counts
the LUs, the GMRES calls and the COLAMD steps of a solve.

A solve starts cold by default, for an x0 far from the optimum such as a
flat start: the barrier parameter at mu0 = 1 and every bound and
inequality-slack multiplier at 1 (Waechter & Biegler 2006, Sec. 3.6).
`warm_start=True` starts at mu0 = 0.1 with those multipliers at mu0 over
their gaps, for an x0 that is already a solved point.  Equality multipliers
start at 0 either way.  A solve is `optimal` only when its KKT error is at
or below `tol` and the barrier parameter has reached its floor tol/10, so a
cold start that meets `tol` early still ends on the same barrier problem as
a warm one.

An `NlpProblem` declares the sparsity of its Jacobians and its Hessian
once, as raw (row, col) entries, and its callbacks return only the values
on those entries, as Ipopt's TNLP interface asks for the structure once and
for values after that (Waechter & Biegler 2006).  So the KKT matrix has one
pattern per solve: `_Kkt` compiles the quasi-definite pattern from the raw
entries once, and K's on its first use, and fills each attempt's values
with one `np.bincount`.  J'y and J_I dx are `np.bincount`s on the raw
entries too, so no scipy.sparse matrix is built per iteration or attempt.

The interior point keeps one bound set: the inequality slacks' lower bounds
(0), then x's finite lower bounds, then its finite upper ones.  A bound's
sign is +1 if it is a lower bound and -1 if upper, its gap is sign * (value
- bound), and one vector z holds the multipliers, the slacks' first.  So
each per-bound step (the Sec. 3.5 bound move, complementarity, the barrier,
the fraction-to-boundary rule) is written once for the whole set.

The two KKT patterns and the Jacobians of `solve_square` above
`DENSE_LU_MAX` rows are each factored by an `_LuPattern`: its first LU finds
a fill-reducing ordering and bakes it into the pattern, and every LU then
factors the pre-permuted matrix in natural order.  The kind of LU picks the
ordering, and no caller does: the symmetric quasi-definite LU is ordered by
MMD on A'+A, and every other sparse LU (K's, and the square Jacobians') by
COLAMD.  Every sparse LU goes through `_splu`, which calls SuperLU (Li 2005,
ACM TOMS 31(3)) with relax=1 and panel_size=1.  These matrices have a few
nonzeros per column, and against SuperLU's default supernode relaxation and
panel size the two settings take 20-40 % off each LU, on a 2-core x86 host:
48 against 62 us for an 80-row screening Jacobian and 24-27 against 29-35 ms
for a 300-bus base KKT matrix.

Every sparse LU and product works on the pattern's compiled CSC arrays
(`indices`, `indptr`, and the values' `np.bincount`), held by a
`_CscMatrix`, and no scipy matrix is built: `_splu` makes one call of
SuperLU's `gstrf` per LU, with the options `scipy.sparse.linalg.splu`
builds for the same arguments (SymmetricMode for every NATURAL call), and
takes its factors back as raw arrays, so the inertia test reads U's diagonal
in O(n) (`_u_diagonal`), without the scipy copies of both factors that
`U.diagonal()` would build; refinement and GMRES products call scipy's own
CSC kernel.  Both are private scipy entry points, verified on scipy 1.17.1:
`scipy.sparse.linalg._dsolve._superlu.gstrf` and
`scipy.sparse._sparsetools.csc_matvec`.

A SuperLU call pays a fixed cost of about 12 us whatever the matrix (a
5 x 5 diagonal one on the 2-core host; about 15 us through `splu`), so a
square Jacobian of at most `DENSE_LU_MAX` = 120 rows (the fast
evaluation's Newton systems up to about 70 buses; `eval._SquareStructure`
makes the choice) is factored by a `_DenseLuPattern` instead: one
`np.bincount` into a fresh n x n array, which one LAPACK gesv call factors
in place (getrf) and solves with (getrs), with no permutation to undo.
Both kinds of pattern give a Newton step through one method, `solve`.  The
constant is the crossover measured against COLAMD-ordered SuperLU with
that one call: screening with dense LUs is faster up to 120 rows and
slower from 126 on (see `DENSE_LU_MAX`).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse._sparsetools import csc_matvec as _csc_matvec
from scipy.sparse.linalg._dsolve._superlu import gstrf as _gstrf

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
TIME_LIMIT = "time_limit"
NUMERICAL_FAILURE = "numerical_failure"
SOLVED = "solved"
FAILED = "failed"


@dataclass
class NlpProblem:
    """Smooth NLP: min f(x) s.t. eq(x)=0, ineq(x)<=0, lb<=x<=ub.

    The sparsity is declared once: each `*_pattern` holds the (rows, cols)
    of raw entries, in which a (row, col) pair may repeat (the values of a
    repeated pair are summed), and the callbacks of the same name return
    the raw values on those entries."""

    n: int
    x0: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    eq: Callable[[np.ndarray], np.ndarray]
    ineq: Callable[[np.ndarray], np.ndarray]
    # jac_eq(x), jac_ineq(x): values on jac_eq_pattern, jac_ineq_pattern
    jac_eq: Callable[[np.ndarray], np.ndarray]
    jac_ineq: Callable[[np.ndarray], np.ndarray]
    # hess(x, sigma_f, lam_eq, lam_ineq): values on hess_pattern of the
    # Lagrangian Hessian sigma_f * hess(f) + sum lam_eq*hess(eq) + sum
    # lam_ineq*hess(ineq)
    hess: Callable[..., np.ndarray]
    jac_eq_pattern: tuple
    jac_ineq_pattern: tuple
    # the Hessian's lower triangle: an off-diagonal entry (i, j) stands for
    # both (i, j) and (j, i), so one given above the diagonal counts as its
    # mirror
    hess_pattern: tuple
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
    # KKT LUs made (SuperLU calls, orderings included), GMRES calls, and
    # attempts whose step needed K's own LU (see `_Kkt`)
    lus: int = 0
    gmres_calls: int = 0
    colamd_steps: int = 0


class _LuPattern:
    """Fixed sparsity pattern of a square CSC matrix that is factored by a
    sparse LU again and again: raw (row, col) entries, repeats allowed,
    compiled once to canonical CSC index arrays, onto which `matrix` sums the
    raw values with one `np.bincount`.

    The kind of LU picks its fill-reducing ordering (a SuperLU
    `permc_spec`): a `symmetric` (quasi-definite) matrix is ordered by MMD
    on A'+A, baked into its rows and columns, for a no-pivot LU in
    SymmetricMode (an LDL' in disguise); any other by COLAMD, baked into its
    columns, for an LU with partial pivoting.  The first LU finds the
    ordering and compiles the pattern again with it baked in; every LU, the
    first one included, then factors the pre-permuted matrix in natural
    order.  So an LU depends on the pattern and the values alone, not on the
    values it was first ordered for.

    The index arrays are canonical by construction (sorted rows, no
    repeats), so no matrix built on them is checked again: `matrix` is a
    `_CscMatrix` that shares them read-only."""

    def __init__(self, rows, cols, n, symmetric=False):
        self.n, self.symmetric = n, symmetric
        self.pos = None
        self._compile(rows, cols)

    def _compile(self, rows, cols):
        n = self.n
        keys = np.asarray(cols, dtype=np.int64) * n
        keys += rows
        uniq, self.slot = np.unique(keys, return_inverse=True)
        self.indices = (uniq % n).astype(np.int32)
        self.indptr = np.searchsorted(uniq // n, np.arange(n + 1)).astype(np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def matrix(self, vals):
        data = np.bincount(self.slot, weights=vals, minlength=len(self.indices))
        return _CscMatrix(data, self.indices, self.indptr)

    def lu(self, vals):
        """(A, lu, pos) for raw values vals: A is `matrix(vals)`, which the
        refinement of a step multiplies by; `lu` factors A, whose column
        pos[j] (and, if symmetric, row pos[i]) is column j (row i) of the
        matrix, or is None if the matrix is exactly singular."""
        if self.pos is None:
            A = self.matrix(vals)
            ordering = "MMD_AT_PLUS_A" if self.symmetric else "COLAMD"
            first = _splu(A, ordering, self.symmetric)
            if first is None:
                return A, None, np.arange(self.n)
            # a copy: `perm_c` is a view that would keep the LU alive
            self.pos = first.perm_c.copy()
            # the raw entries, moved: raw values keep their order
            rows = self.indices[self.slot]
            cols = np.repeat(np.arange(self.n, dtype=np.int32),
                             np.diff(self.indptr))[self.slot]
            self._compile(self.pos[rows] if self.symmetric else rows, self.pos[cols])
        A = self.matrix(vals)
        return A, _splu(A, "NATURAL", self.symmetric), self.pos

    def solve(self, vals, rhs):
        """The solution x of A x = rhs for the matrix A of raw values vals,
        gathered back to the pattern's own order through `pos`, or None if A
        is exactly singular."""
        _, lu, pos = self.lu(vals)
        return None if lu is None else lu.solve(rhs)[pos]


class _CscMatrix:
    """A square matrix as the CSC arrays (data, indices, indptr) that
    SuperLU factors, with its product A @ x by scipy's own CSC kernel, the
    one that a scipy matrix's `@` calls."""

    __slots__ = ("data", "indices", "indptr")

    def __init__(self, data, indices, indptr):
        self.data, self.indices, self.indptr = data, indices, indptr

    def __matmul__(self, x):
        n = len(self.indptr) - 1
        out = np.zeros(n)
        _csc_matvec(n, n, self.indptr, self.indices, self.data, x, out)
        return out


# the most rows of a square Jacobian that `eval._SquareStructure` factors
# with a dense LU (`_DenseLuPattern`); larger ones go to SuperLU
# (`_LuPattern`, ordered by COLAMD).  The crossover, on a 2-core x86 host with
# BLAS at 1 thread, from the median time of `fast_evaluate` on every
# contingency of `gen-case` n --seed 3 at its solved base with each
# factorizer (6-10 alternating sweeps a run), with each dense step one gesv
# call: dense is 12-13 % faster at 101 rows (n = 60, two runs), 3-4 %
# faster at 117-120 (n = 70, two runs), 3 % faster to 9 % slower at 126
# (n = 75, four runs, median 3.5 % slower) and 10-24 % slower at 151
# (n = 90, two runs).  It was 150 when dense was faster at 151 rows; the
# rest of a Newton step has got cheaper since, so the LU is a larger share
# of it and the crossover has moved down.
DENSE_LU_MAX = 120

_gesv, = get_lapack_funcs(("gesv",), dtype=np.float64)


class _DenseLuPattern:
    """Dense counterpart of `_LuPattern` for small square systems: the raw
    (row, col) entries are compiled once to flat indices of the
    Fortran-ordered n x n array, which `matrix` fills with one
    `np.bincount`, and `solve` hands that fresh array and the right-hand
    side to one LAPACK gesv call, which factors the array in place (getrf)
    and solves (getrs).  Its partial pivoting needs no ordering."""

    def __init__(self, rows, cols, n):
        self.flat = np.asarray(cols, dtype=np.int64) * n + rows
        self.n = n

    def matrix(self, vals):
        """The dense matrix of raw values vals, a new Fortran-ordered array."""
        n = self.n
        return np.bincount(self.flat, weights=vals, minlength=n * n).reshape(
            (n, n), order="F")

    def solve(self, vals, rhs):
        """`_LuPattern.solve`: x in the rows' own order, or None if the
        matrix is exactly singular.  rhs must be a fresh float array: gesv
        overwrites it with x, which it returns."""
        x, info = _gesv(self.matrix(vals), rhs, overwrite_a=1, overwrite_b=1)[2:]
        return x if info == 0 else None


def _splu(A, permc_spec, symmetric=False):
    """A SuperLU factorization of the `_CscMatrix` A, or None if A is exactly
    singular; `symmetric` takes diagonal pivots only.  Supernodes are not
    relaxed and panels are one column wide (see the module docstring).  The
    options are the ones `scipy.sparse.linalg.splu` builds for these
    arguments, SymmetricMode included for a NATURAL ordering, less its
    `DiagPivotThresh=None`, which keeps SuperLU's default; the factors' `L`
    and `U` are the raw (data, indices, indptr) arrays."""
    options = dict(ColPerm=permc_spec, PanelSize=1, Relax=1)
    if symmetric:
        options["DiagPivotThresh"] = 0.0
    if symmetric or permc_spec == "NATURAL":
        options["SymmetricMode"] = True
    try:
        return _gstrf(len(A.indptr) - 1, len(A.data), A.data, A.indices, A.indptr,
                      csc_construct_func=_csc_arrays, ilu=False, options=options)
    except RuntimeError:
        return None


def _csc_arrays(arrays, shape):
    """SuperLU's `csc_construct_func`: a factor as its raw arrays."""
    return arrays


def _u_diagonal(lu):
    """The diagonal of a SuperLU factorization's U, each column's last stored
    entry; raises if any column does not end on its diagonal."""
    data, indices, indptr = lu.U
    last = indptr[1:] - 1
    if not np.array_equal(indices[last], np.arange(len(last))):
        raise RuntimeError("a column of SuperLU's U does not end on its diagonal")
    return data[last]


class _Kkt:
    """KKT matrix K = [[W, J'], [J, -diag(d)]] with W = Hs + diag(w_diag),
    where Hs is the symmetric n x n matrix whose lower triangle the raw
    entries `hess_pattern` give, and J the m x n matrix of the raw entries
    `jac_pattern`, compiled once for those entries, and the LUs of each
    inertia-correction attempt on it (`factor`).

    Each matrix is filled from the raw values of the Hessian, w_diag, J and d
    with one `np.bincount`: the raw entries of W are the Hessian's, the
    mirror of its off-diagonal ones and the diagonal.  An attempt makes one
    LU, of the quasi-definite matrix: K with its equality block regularized
    to -delta_c.  Where W is positive definite, that matrix is symmetric
    quasi-definite and has an LDL' factorization under any symmetric
    ordering (Vanderbei 1995, SIAM J. Optim. 5(1)), so its pattern `Q` is
    a symmetric `_LuPattern`: ordered by MMD on A'+A, baked into rows and
    columns, and factored with diagonal pivots only.  That one LU decides
    the inertia, which is right when no pivot left the diagonal and exactly
    m pivots are negative, and gives the step (`_KktSolve`).  When the step
    misses `STEP_GATE`, an LU of K itself gives it; `K`, compiled on first
    use, is a plain `_LuPattern`: ordered by COLAMD on columns and factored
    with partial pivoting.

    `counts` tallies the LUs made, the GMRES calls and the COLAMD steps.
    """

    def __init__(self, n, hess_pattern, jac_pattern, m):
        self.n, self.m = n, m
        h_rows, h_cols = (np.asarray(a, dtype=np.int64) for a in hess_pattern)
        j_rows, j_cols = (np.asarray(a, dtype=np.int64) for a in jac_pattern)
        self._mirror = np.flatnonzero(h_rows != h_cols)
        diag = np.arange(n)
        w_rows = np.concatenate((h_rows, h_cols[self._mirror], diag))
        w_cols = np.concatenate((h_cols, h_rows[self._mirror], diag))
        j_rows = n + j_rows
        dual = n + np.arange(m)
        self._entries = (np.concatenate((w_rows, j_rows, j_cols, dual)),
                         np.concatenate((w_cols, j_cols, j_rows, dual)))
        self.Q = _LuPattern(*self._entries, n + m, symmetric=True)
        self.counts = Counter()

    @cached_property
    def K(self):
        return _LuPattern(*self._entries, self.n + self.m)

    def _factor(self, pattern, vals):
        """`pattern.lu(vals)`, its SuperLU calls tallied."""
        first = pattern.pos is None
        out = pattern.lu(vals)
        self.counts["lus"] += 1 + (first and pattern.pos is not None)
        return out

    def values(self, h, w_diag, j, d):
        """K's raw values."""
        return np.concatenate((h, h[self._mirror], w_diag, j, j, -d))

    def quasi_definite(self, h, w_diag, j, d):
        """(lu, pos, ok): the LU of K with dual block -diag(d) (d > 0) as
        `Q.lu` gives it, and whether it shows the inertia (n, m, 0).

        With diagonal pivots only (perm_r == perm_c) the LU is an LDL' of
        the symmetrically permuted K, whose D is U's diagonal, so by
        Sylvester's law of inertia K has m negative eigenvalues iff D has m
        negative entries (and none is 0, or the LU would have pivoted off
        the diagonal).  False may also come from a K of the right inertia
        that the LU could not factor with diagonal pivots."""
        _, lu, pos = self._factor(self.Q, self.values(h, w_diag, j, d))
        ok = lu is not None and bool(np.array_equal(lu.perm_r, lu.perm_c)) \
            and np.count_nonzero(_u_diagonal(lu) < 0.0) == self.m
        return lu, pos, ok

    def factor(self, h, w_diag, j, d, d_test):
        """One attempt: the `_KktSolve` of K with dual block -diag(d), or
        None if the quasi-definite LU, of K with dual block -diag(d_test),
        does not show the inertia (n, m, 0).  d_test > 0 is d with the
        equality block regularized."""
        lu, pos, ok = self.quasi_definite(h, w_diag, j, d_test)
        return _KktSolve(self, self.values(h, w_diag, j, d), lu, pos) if ok else None


# a step from the quasi-definite LU is accepted when its residual against K
# is at most STEP_GATE * max(1, |rhs|_inf)
STEP_GATE = 1e-14
# the most steps of `_refine` (each must at least halve the residual), and
# GMRES's Krylov vectors per cycle and cycles
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
        self._A = kkt.Q.matrix(vals)
        self._k = None

    def __call__(self, rhs):
        b = np.empty_like(rhs)
        b[self.pos] = rhs
        x = _gated_solve(self._A, self.lu, b, self.kkt.counts)
        self.qd = x is not None
        if self.qd:
            return x[self.pos]
        if self._k is None:
            self.kkt.counts["colamd_steps"] += 1
            self._k = self.kkt._factor(self.kkt.K, self.vals)
        K, lu, pos = self._k
        return None if lu is None else _refine(K, lu, rhs)[0][pos]


def _refine(A, lu, b, gate=0.0):
    """(x, r, |r|_inf) for A x = b, r = b - A x, from an LU of a matrix near
    A: refined until the residual is at most gate, or a step does not at
    least halve it, or after QD_REFINE_STEPS steps."""
    x = lu.solve(b)
    r = b - A @ x
    norm = float(np.abs(r).max(initial=0.0))
    for _ in range(QD_REFINE_STEPS):
        if norm <= gate:
            break
        cand = x + lu.solve(r)
        cand_r = b - A @ cand
        cand_norm = float(np.abs(cand_r).max(initial=0.0))
        if not cand_norm <= 0.5 * norm:
            break
        x, r, norm = cand, cand_r, cand_norm
    return x, r, norm


def _gated_solve(A, lu, b, counts):
    """x with |b - A x|_inf <= STEP_GATE * max(1, |b|_inf), or None, from
    an LU of a matrix near A: `_refine`d to that gate, then by restarted
    GMRES preconditioned on the right with the same LU (GMRES-based
    refinement, Carson & Higham 2017, SIAM J. Sci. Comput. 39(6)), a call
    that `counts` tallies."""
    gate = STEP_GATE * max(1.0, float(np.abs(b).max(initial=0.0)))
    x, r, norm = _refine(A, lu, b, gate)
    if norm <= gate:
        return x
    if not np.isfinite(norm):
        return None
    counts["gmres_calls"] += 1
    return _gmres(A, lu, b, x, r, gate)


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
        if np.abs(r).max() <= gate:
            return x
    return None


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
    """Move each bound away from the iterate by eps^(3/4) * max(1, |bound|)
    wherever `gap`, the iterate's distance to it, is below eps * mu: a gap
    that rounds to nothing would keep the iterate on its bound for good
    (Waechter & Biegler 2006, Sec. 3.5).  sign is +1 for a lower bound, -1
    for an upper one."""
    stuck = gap < EPS_MACH * mu
    bound[stuck] -= sign[stuck] * EPS_MACH ** 0.75 * np.maximum(1.0, np.abs(bound[stuck]))


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
    gap (at least 1e-8), on the central path of that x0.  Equality multipliers start at 0
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
    x = _interior_start(np.asarray(prob.x0, float), lb, ub)
    # the bound set of the module docstring: x's lower bounds are on the
    # entries il of x and at the positions lo of the set, its upper ones on iu, up
    il, iu = np.flatnonzero(np.isfinite(lb)), np.flatnonzero(np.isfinite(ub))
    ix = np.concatenate((il, iu))
    lo, up = slice(mi, mi + len(il)), slice(mi + len(il), None)
    sign = np.concatenate((np.ones(mi + len(il)), -np.ones(len(iu))))
    bound = np.concatenate((np.zeros(mi), lb[il], ub[iu]))
    sign_x = sign[mi:]

    def gaps(tv, xv):
        """Every bound's gap, sign * (value - bound), at slacks tv and xv."""
        return sign * (np.concatenate((tv, xv[ix])) - bound)

    # J = [J_E; J_I] as raw entries, J_E's first
    je_rows, je_cols = (np.asarray(a, dtype=np.int64) for a in prob.jac_eq_pattern)
    ji_rows, ji_cols = (np.asarray(a, dtype=np.int64) for a in prob.jac_ineq_pattern)
    j_rows = np.concatenate((je_rows, me + ji_rows))
    j_cols = np.concatenate((je_cols, ji_cols))
    kkt = _Kkt(n, prob.hess_pattern, (j_rows, j_cols), me + mi)

    def values(xv):
        """(objective, eq, ineq) at xv."""
        return (prob.objective(xv), prob.eq(xv) if me else np.zeros(0),
                prob.ineq(xv) if mi else np.zeros(0))

    # the values at x, carried from where x was evaluated (the start, or the
    # accepted trial point), or None if it was not (a trial point off bounds)
    at_x = values(x)
    t = np.maximum(1e-2, -at_x[2])
    y = np.zeros(me)
    mu, z = MU0, np.ones(len(bound))
    if warm_start:
        mu = MU0_WARM
        z = np.maximum(mu / gaps(t, x), 1e-8)

    tau_ftb = 0.995
    delta_c = 1e-8
    delta_w_last = 0.0
    last_step = dict(delta_w=0.0, delta_c=0.0, factor_attempts=0,
                     alpha_primal=0.0, alpha_dual=0.0)

    best = None

    def viol(xv, cEv, cIv):
        v = 0.0
        if me:
            v = max(v, float(np.abs(cEv).max()))
        if mi:
            v = max(v, float(np.maximum(cIv, 0.0).max()))
        return max(v, float((-gaps(t, xv)[mi:]).max(initial=0.0)))

    def consider(xv, cEv, cIv, fv):
        nonlocal best
        score = (viol(xv, cEv, cIv), fv)
        if best is None or score < best[0]:
            best = (score, xv.copy())

    def theta_of(cEv, cIv, tv):
        """l1 norm of the constraint residual (the filter's theta)."""
        return float(np.sum(np.abs(cEv)) + np.sum(np.abs(cIv + tv)))

    def barrier(gap, fv):
        """Barrier objective phi at a point of gaps gap and objective fv."""
        return fv - mu * np.sum(np.log(gap))

    def measures(xv, tv):
        """(theta, phi, `values`) at a trial point; theta and phi are inf and
        nothing is evaluated outside the bounds."""
        gap = gaps(tv, xv)
        if np.any(gap <= 0.0):
            return np.inf, np.inf, None
        vals = values(xv)
        return theta_of(vals[1], vals[2], tv), barrier(gap, vals[0]), vals

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
        _move_out(bound, gaps(t, x), mu, sign)
        if at_x is None:
            at_x = values(x)
        f, cE, cI = at_x
        g = prob.gradient(x)
        jv = np.concatenate((prob.jac_eq(x) if me else np.zeros(0),
                             prob.jac_ineq(x) if mi else np.zeros(0)))
        ji = jv[len(je_rows):]
        consider(x, cE, cI, f)

        def ji_times(v):
            """J_I v."""
            return np.bincount(ji_rows, weights=ji * v[ji_cols], minlength=mi)

        gap, w = gaps(t, x), z[:mi]
        gap_t, gx = gap[:mi], np.maximum(gap[mi:], 1e-16)

        # g + J'[y; w]
        grad_lag = g + np.bincount(j_cols, weights=jv * np.concatenate((y, w))[j_rows],
                                   minlength=n)
        r_d = grad_lag.copy()
        r_d[il] -= z[lo]
        r_d[iu] += z[up]
        # the KKT error is the larger of its feasibility part and its
        # complementarity part, which depends on the barrier parameter
        feas = max(float(np.abs(r_d).max(initial=0.0)),
                   float(np.abs(cE).max(initial=0.0)),
                   float(np.abs(cI + t).max(initial=0.0)))
        comp = gap * z

        def resid(mu_val):
            return max(feas, float(np.abs(comp - mu_val).max(initial=0.0)))

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

        h = prob.hess(x, 1.0, y, w)
        sigma_x = np.bincount(ix, weights=z[mi:] / gx, minlength=n)

        # gradient of the barrier terms in x; with the Lagrangian's gradient
        # it is the KKT right-hand side, with the objective's the filter's
        bar_grad = np.bincount(ix, weights=-sign_x * mu / gx, minlength=n)
        gbar = grad_lag + bar_grad

        rhs = np.concatenate([-gbar, -cE, -(cI + bound[:mi] + mu / w)])

        # inertia-corrected factorization; dual regularization only kicks in
        # on singularity (e.g. duplicated equality rows) so well-posed
        # problems are solved without the delta_c bias.  The quasi-definite
        # LU, the inertia test, puts delta_c on the equality block even
        # while dc is 0.
        delta_w = 0.0
        dc = 0.0
        sol = None
        for attempt in range(1, 41):
            w_diag = sigma_x + delta_w
            d_dual = np.concatenate([np.full(me, dc), gap_t / w + dc])
            d_test = np.concatenate([np.full(me, dc or delta_c), gap_t / w + dc])
            solve = kkt.factor(h, w_diag, jv, d_dual, d_test)
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
            """(dx, dy, dz) of a KKT solution: x's bound multipliers step
            along dx as the barrier's complementarity asks."""
            dx = sol[:n]
            zx = z[mi:]
            dz_x = mu / gx - zx - zx / gx * (sign_x * dx[ix])
            return dx, sol[n:n + me], np.concatenate((sol[n + me:], dz_x))

        # fraction-to-boundary steps: one `_ftb_alpha` over the gaps, one
        # over the multipliers
        def ftb_primal(dx, dt):
            return _ftb_alpha(gap, sign * np.concatenate((dt, dx[ix])), tau_ftb)

        def ftb_dual(dz):
            return _ftb_alpha(z, dz, tau_ftb)

        dx, dy, dz = split(sol)
        dt = -(cI + t) - ji_times(dx)
        a_pri = ftb_primal(dx, dt)
        a_dual = ftb_dual(dz)

        # filter line search (Waechter & Biegler 2006, Sec. 2.3-2.4); dphi is
        # the barrier objective's directional derivative along (dx, dt)
        theta0 = theta_of(cE, cI, t)
        phi0 = barrier(gap, f)
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
                dt_s = -c_soc_i - ji_times(dx_s)
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
                    dx, dy, dz = split(sol)
                    a_dual = ftb_dual(dz)
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
        z = np.maximum(z + a_dual * dz, 1e-300)
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

    z_lower, z_upper = np.zeros(n), np.zeros(n)
    z_lower[il], z_upper[iu] = z[lo], z[up]
    return NlpSolution(
        x=x, lambda_eq=y, lambda_ineq=z[:mi], z_lower=z_lower, z_upper=z_upper,
        objective=f, status=status, iterations=it,
        constraint_violation=viol(x, cE, cI), kkt_error=e0, mu=mu,
        lus=kkt.counts["lus"], gmres_calls=kkt.counts["gmres_calls"],
        colamd_steps=kkt.counts["colamd_steps"],
    )


@dataclass
class SquareResult:
    x: np.ndarray
    status: str
    iterations: int = 0
    residual: float = 0.0


def solve_square(fun, jac, x0, tol=1e-8, max_iter=100, time_limit=None):
    """Damped Newton for a square system fun(x) = 0 with Jacobian jac(x).

    jac(x) returns a pair (pattern, vals): a `_DenseLuPattern` or
    `_LuPattern` and the Jacobian's raw values, and each step is one
    `pattern.solve(vals, -F)`: a `_DenseLuPattern` (at most `DENSE_LU_MAX`
    rows) makes one LAPACK gesv call, an `_LuPattern` one SuperLU LU in the
    COLAMD column ordering it keeps from its first LU.  jac is called only
    at the point of the last fun call, so it may reuse that call's work.
    The step is made in the array -F, which the pattern may overwrite, so
    neither F nor any array that fun returned is changed.  Each step
    backtracks on the residual's 2-norm and the best iterate has the least
    inf-norm, each norm taken once per iterate; no iterate is copied, as
    none is changed in place.  The solve ends `failed` at its best iterate
    when the LU is exactly singular or the step is not finite, when
    backtracking finds no decrease, or when `time_limit` seconds have
    passed; there is no least-squares fallback, as in MATPOWER's
    ``newtonpf``.
    """
    t_start = time.monotonic()
    x = np.array(x0, float)
    F = np.asarray(fun(x), float)
    norm_inf, f0 = float(np.abs(F).max(initial=0.0)), math.sqrt(F @ F)
    best_x, best_norm = x, norm_inf
    it = 0
    for it in range(1, max_iter + 1):
        if norm_inf < best_norm:
            best_x, best_norm = x, norm_inf
        if norm_inf <= tol:
            return SquareResult(x, SOLVED, it - 1, norm_inf)
        if time_limit is not None and time.monotonic() - t_start > time_limit:
            return SquareResult(best_x, FAILED, it - 1, best_norm)

        pattern, vals = jac(x)
        d = pattern.solve(vals, -F)
        if d is None or not np.isfinite(d).all():
            return SquareResult(best_x, FAILED, it, best_norm)

        # a NaN or inf in Fn fails the norm test against a finite f0
        f0_finite = math.isfinite(f0)
        alpha = 1.0
        for _ in range(40):
            xn = x + alpha * d
            Fn = np.asarray(fun(xn), float)
            fn = math.sqrt(Fn @ Fn)
            if fn <= (1 - 1e-4 * alpha) * f0 and (f0_finite or np.isfinite(Fn).all()):
                break
            alpha *= 0.5
        else:
            return SquareResult(best_x, FAILED, it, best_norm)
        x, F, f0 = xn, Fn, fn
        norm_inf = float(np.abs(F).max(initial=0.0))

    if norm_inf < best_norm:
        best_x, best_norm = x, norm_inf
    status = SOLVED if best_norm <= tol else FAILED
    return SquareResult(best_x, status, it, best_norm)
