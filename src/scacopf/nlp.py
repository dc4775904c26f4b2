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

The solve is one iteration object, `_Iterate`, which holds the iterate and
the state it carries between iterations (the barrier parameter, the
filter, the bound set, the best point and the last step's delta_w).
`solve_nlp` is the loop over its methods, split as Ipopt splits its
algorithm into search direction, line search and barrier update:
`evaluate` (the Sec. 3.5 bound move, the values and derivatives at x, the
KKT error), `update_mu`, `newton_step` (the inertia-corrected attempts),
`line_search` and `solution`.  The line search and its second-order
correction share one step rule, `direction` (a KKT solution's dx, dy, dz
and dt with both fraction-to-boundary step sizes), and one trial rule,
`trial` (a trial point's measures and the filter's verdict on them).

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
    """lb and ub, each bound moved out by max(rel, rel * |bound|); an
    infinite bound stays infinite."""
    return lb - np.maximum(rel, rel * np.abs(lb)), ub + np.maximum(rel, rel * np.abs(ub))


def _interior_start(x0, lb, ub):
    """x0 clipped to at least min(1e-2, (ub - lb) / 4) inside each finite
    bound."""
    pad = np.minimum(1e-2, 0.25 * (ub - lb))
    return np.clip(x0, lb + pad, ub - pad)


def _ftb_alpha(val, dval):
    """Largest alpha in (0, 1] with val + alpha*dval >= 0.005 * val: the
    fraction-to-boundary rule with tau = 0.995."""
    mask = dval < 0
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(-0.995 * val[mask] / dval[mask])))


def _theta(vals, t):
    """The filter's theta at a point of `_Iterate.values` vals and slacks t:
    the l1 norm of its constraint residual."""
    return float(np.sum(np.abs(vals[1])) + np.sum(np.abs(vals[2] + t)))


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


class _Iterate:
    """The interior point of one `solve_nlp` call (module docstring): x, the
    inequality slacks t, the multipliers y and z, mu, the filter, the bound
    set, the best point and `last_step`, the log record of the step that led
    to x.  `evaluate` keeps the derivatives and KKT error at x, which the
    other methods read; `line_search` moves the iterate and keeps `at_x`,
    the values at the new x."""

    def __init__(self, prob, tol, warm_start):
        self.prob, self.tol = prob, tol
        n, me, mi = self.n, self.me, self.mi = prob.n, prob.n_eq, prob.n_ineq
        self.lb_true, self.ub_true = np.asarray(prob.lb, float), np.asarray(prob.ub, float)
        lb, ub = _relax_bounds(self.lb_true, self.ub_true, rel=min(1e-8, max(tol, 1e-14)))
        self.x = _interior_start(np.asarray(prob.x0, float), lb, ub)
        # the bound set of the module docstring: x's lower bounds are on the
        # entries il of x and at the positions lo of the set, its upper ones
        # on iu, up
        il = self.il = np.flatnonzero(np.isfinite(lb))
        iu = self.iu = np.flatnonzero(np.isfinite(ub))
        self.ix = np.concatenate((il, iu))
        self.lo, self.up = slice(mi, mi + len(il)), slice(mi + len(il), None)
        self.sign = np.concatenate((np.ones(mi + len(il)), -np.ones(len(iu))))
        self.sign_x = self.sign[mi:]
        self.bound = np.concatenate((np.zeros(mi), lb[il], ub[iu]))
        # J = [J_E; J_I] as raw entries, J_E's first
        je_rows, je_cols = (np.asarray(a, dtype=np.int64) for a in prob.jac_eq_pattern)
        self.ji_rows, self.ji_cols = (np.asarray(a, dtype=np.int64)
                                      for a in prob.jac_ineq_pattern)
        self.j_rows = np.concatenate((je_rows, me + self.ji_rows))
        self.j_cols = np.concatenate((je_cols, self.ji_cols))
        self.kkt = _Kkt(n, prob.hess_pattern, (self.j_rows, self.j_cols), me + mi)
        self.at_x = self.values(self.x)
        self.t = np.maximum(1e-2, -self.at_x[2])
        self.y, self.mu, self.z = np.zeros(me), MU0, np.ones(len(self.bound))
        if warm_start:
            self.mu = MU0_WARM
            self.z = np.maximum(self.mu / self.gaps(self.t, self.x), 1e-8)
        self.last_step = dict(delta_w=0.0, delta_c=0.0, factor_attempts=0,
                              alpha_primal=0.0, alpha_dual=0.0)
        # the filter: (theta, phi) pairs that bar every trial point with a
        # larger theta and a larger phi; it starts empty at each barrier
        # parameter
        self.filt, self.best, self.e0 = [], None, np.inf
        theta = _theta(self.at_x, self.t)
        self.theta_max, self.theta_min = 1e4 * max(1.0, theta), 1e-4 * min(1.0, theta)

    def gaps(self, t, x):
        """Every bound's gap, sign * (value - bound), at slacks t and x."""
        return self.sign * (np.concatenate((t, x[self.ix])) - self.bound)

    def values(self, x):
        """(objective, eq, ineq) at x."""
        prob = self.prob
        return (prob.objective(x), prob.eq(x) if self.me else np.zeros(0),
                prob.ineq(x) if self.mi else np.zeros(0))

    def viol(self, x, vals):
        """The constraint violation at x of `values` vals: the largest
        residual of an equality, an inequality or a bound of x."""
        v = 0.0
        for part in (np.abs(vals[1]), np.maximum(vals[2], 0.0), -self.gaps(self.t, x)[self.mi:]):
            if len(part):
                v = max(v, float(part.max()))
        return v

    def consider(self, x, vals):
        """Keep x as the best point if its (violation, objective) is the
        least so far."""
        score = (self.viol(x, vals), vals[0])
        if self.best is None or score < self.best[0]:
            self.best = score, x

    def resid(self, mu):
        """The KKT error at x for the barrier parameter mu."""
        return max(self.feas, float(np.abs(self.comp - mu).max(initial=0.0)))

    def evaluate(self):
        """Move the bounds that x is stuck on (`_move_out`), keep x if it is
        the best point so far, and take the derivatives at x and its KKT
        error e0."""
        prob, x, z, mi = self.prob, self.x, self.z, self.mi
        _move_out(self.bound, self.gaps(self.t, x), self.mu, self.sign)
        f, cE, cI = self.at_x
        self.g = prob.gradient(x)
        jac_eq = prob.jac_eq(x) if self.me else np.zeros(0)
        self.jv = np.concatenate((jac_eq, prob.jac_ineq(x) if mi else np.zeros(0)))
        self.ji = self.jv[len(jac_eq):]
        self.consider(x, self.at_x)
        gap = self.gap = self.gaps(self.t, x)
        self.w, self.gap_t, self.gx = z[:mi], gap[:mi], np.maximum(gap[mi:], 1e-16)
        # g + J'[y; w]
        self.grad_lag = self.g + np.bincount(
            self.j_cols, weights=self.jv * np.concatenate((self.y, self.w))[self.j_rows],
            minlength=self.n)
        r_d = self.grad_lag.copy()
        r_d[self.il] -= z[self.lo]
        r_d[self.iu] += z[self.up]
        # the KKT error is the larger of its feasibility part and its
        # complementarity part, which depends on the barrier parameter
        self.feas = max(float(np.abs(r_d).max(initial=0.0)),
                        float(np.abs(cE).max(initial=0.0)),
                        float(np.abs(cI + self.t).max(initial=0.0)))
        self.comp = gap * z
        self.e0 = self.resid(0.0)

    def update_mu(self):
        """Divide mu by 5, down to its floor tol/10, while the KKT error at
        mu is at most 10 mu; each new mu starts an empty filter."""
        while self.resid(self.mu) <= 10.0 * self.mu and self.mu > self.tol / 10.0:
            self.mu = max(self.tol / 10.0, self.mu / 5.0)
            self.filt.clear()

    def newton_step(self):
        """(solve, sol): the Newton step sol of the barrier problem at x and
        `solve`, the `_KktSolve` of the attempt that gave it, or None if no
        attempt gives a finite step.

        The attempts shift W by delta_w: 0, then 1e-4, or a third of the
        last step's delta_w (at least 1e-6), then ten times more each time,
        up to 1e12.  The dual regularization dc only kicks in when K is
        exactly singular (e.g. duplicated equality rows), so well-posed
        problems are solved without its bias; the quasi-definite LU, the
        inertia test, puts delta_c on the equality block even while dc is
        0."""
        n, me, mi, mu, w, gx = self.n, self.me, self.mi, self.mu, self.w, self.gx
        h = self.prob.hess(self.x, 1.0, self.y, w)
        sigma_x = np.bincount(self.ix, weights=self.z[mi:] / gx, minlength=n)
        # gradient of the barrier terms in x; with the Lagrangian's gradient
        # it is the KKT right-hand side, with the objective's the filter's
        self.bar_grad = np.bincount(self.ix, weights=-self.sign_x * mu / gx, minlength=n)
        self.gbar = self.grad_lag + self.bar_grad
        rhs = np.concatenate([-self.gbar, -self.at_x[1],
                              -(self.at_x[2] + self.bound[:mi] + mu / w)])
        last, delta_c = self.last_step["delta_w"], 1e-8
        delta_w = dc = 0.0
        attempt = 0
        while delta_w <= 1e12:
            attempt += 1
            d_ineq = self.gap_t / w + dc
            solve = self.kkt.factor(h, sigma_x + delta_w, self.jv,
                                    np.concatenate([np.full(me, dc), d_ineq]),
                                    np.concatenate([np.full(me, dc or delta_c), d_ineq]))
            sol = None if solve is None else solve(rhs)
            if sol is not None:
                break
            if solve is not None:  # K exactly singular
                dc = delta_c if dc == 0.0 else dc * 100.0
            if delta_w:
                delta_w *= 10.0
            else:
                delta_w = max(1e-6, last / 3.0) if last else 1e-4
        if sol is None or not np.all(np.isfinite(sol)):
            return None
        # delta_c is the dual regularization of the LU that gave the step
        self.last_step = dict(delta_w=delta_w, delta_c=(dc or delta_c) if solve.qd else dc,
                              factor_attempts=attempt)
        return solve, sol

    def direction(self, sol, c_i):
        """(dx, dy, dz, dt, alpha_primal, alpha_dual) of a KKT solution sol
        whose inequality rows have the residual c_i: x's bound multipliers
        step along dx as the barrier's complementarity asks, the slacks so
        that J_I dx + dt = -c_i, and the step sizes are the fraction-to-
        boundary rule's, one over the gaps and one over the multipliers."""
        n, me, gx, zx = self.n, self.me, self.gx, self.z[self.mi:]
        dx = sol[:n]
        dz_x = self.mu / gx - zx - zx / gx * (self.sign_x * dx[self.ix])
        dz = np.concatenate((sol[n + me:], dz_x))
        dt = -c_i - np.bincount(self.ji_rows, weights=self.ji * dx[self.ji_cols],
                                minlength=self.mi)
        return (dx, sol[n:n + me], dz, dt,
                _ftb_alpha(self.gap, self.sign * np.concatenate((dt, dx[self.ix]))),
                _ftb_alpha(self.z, dz))

    def trial(self, x, t, alpha):
        """(kind, theta, `values`) of the trial point (x, t): kind is 'f'
        for an Armijo step, 'h' for a filter step and None for a rejected
        point, with alpha the step size of the switching condition and the
        Armijo test.  Outside the bounds theta is inf and nothing is
        evaluated."""
        gap = self.gaps(t, x)
        if np.any(gap <= 0.0):
            return None, np.inf, None
        vals = self.values(x)
        theta, phi = _theta(vals, t), vals[0] - self.mu * np.sum(np.log(gap))
        theta0, phi0, dphi = self.theta0, self.phi0, self.dphi
        kind = None
        if theta <= self.theta_max and np.isfinite(phi) and \
                not any(theta >= th and phi >= ph for th, ph in self.filt):
            # the epsilon slack keeps the tests passable when the predicted
            # decrease is below rounding noise in the barrier objective
            noise = 1e-12 * (1.0 + abs(phi0))
            if theta0 <= self.theta_min and dphi < 0.0 and \
                    alpha * (-dphi) ** S_PHI > DELTA * theta0 ** S_THETA:
                kind = "f" if phi <= phi0 + ETA * alpha * dphi + noise else None
            elif theta <= (1.0 - GAMMA_THETA) * theta0 or \
                    phi <= phi0 - GAMMA_PHI * theta0 + noise:
                kind = "h"
        return kind, theta, vals

    def line_search(self, solve, sol):
        """The filter line search (Waechter & Biegler 2006, Sec. 2.3-2.4)
        along the Newton step sol: backtracking from the fraction-to-
        boundary step, and second-order corrections, solved with `solve`,
        of a rejected full step.  Moves the iterate to the accepted point,
        or, when the trials run out, to the full step with a new filter."""
        (f, cE, cI), x, t, mu = self.at_x, self.x, self.t, self.mu
        dx, dy, dz, dt, a_pri, a_dual = self.direction(sol, cI + t)
        self.theta0, self.phi0 = _theta(self.at_x, t), f - mu * np.sum(np.log(self.gap))
        # the barrier objective's directional derivative along (dx, dt)
        self.dphi = float((self.g + self.bar_grad) @ dx) - float(np.sum(mu / self.gap_t * dt))
        alpha = a_pri
        for trial in range(MAX_TRIALS):
            point = x + alpha * dx, t + alpha * dt
            kind, theta, vals = self.trial(*point, alpha)
            if trial == 0:
                first = point, vals
            if kind:
                break
            # a correction of a zero residual would repeat the same step
            if trial == 0 and theta >= self.theta0 and theta > 0.0 and vals is not None:
                c_e, c_i = a_pri * cE + vals[1], a_pri * (cI + t) + (vals[2] + point[1])
                for _ in range(MAX_SOC):
                    sol = solve(np.concatenate([-self.gbar, -c_e,
                                                -(c_i - self.gap_t + mu / self.w)]))
                    if sol is None or not np.all(np.isfinite(sol)):
                        break
                    soc = dx_s, _, _, dt_s, a_soc, _ = self.direction(sol, c_i)
                    soc_point = x + a_soc * dx_s, t + a_soc * dt_s
                    kind, theta_s, soc_vals = self.trial(*soc_point, a_pri)
                    if kind or not theta_s <= KAPPA_SOC * theta:
                        break
                    c_e = a_soc * c_e + soc_vals[1]
                    c_i = a_soc * c_i + (soc_vals[2] + soc_point[1])
                    theta = theta_s
                if kind:
                    point, vals, (_, dy, dz, _, alpha, a_dual) = soc_point, soc_vals, soc
                    break
            alpha *= 0.5
        if kind is None:
            # out of trials: take the fraction-to-boundary step and start a
            # new filter from it
            (point, vals), alpha = first, a_pri
            self.filt.clear()
        elif kind == "h":
            self.filt.append(((1.0 - GAMMA_THETA) * self.theta0,
                              self.phi0 - GAMMA_PHI * self.theta0))
        self.x, self.t = point
        self.at_x = self.values(self.x) if vals is None else vals
        self.y = self.y + alpha * dy
        # fraction-to-boundary keeps duals positive; the floor only guards
        # against underflow to exactly zero
        self.z = np.maximum(self.z + a_dual * dz, 1e-300)
        self.last_step.update(alpha_primal=alpha, alpha_dual=a_dual)

    def solution(self, status, iterations):
        """The NlpSolution at x if optimal, else at the best point, clipped
        into the caller's true (unrelaxed) bounds, a move of at most the
        bound relaxation."""
        x, vals = self.x, self.at_x
        self.consider(x, vals)
        x_out = np.clip(x if status == OPTIMAL else self.best[1], self.lb_true, self.ub_true)
        if not np.array_equal(x_out, x):
            x, vals = x_out, self.values(x_out)
        z_lower, z_upper = np.zeros(self.n), np.zeros(self.n)
        z_lower[self.il], z_upper[self.iu] = self.z[self.lo], self.z[self.up]
        counts = self.kkt.counts
        return NlpSolution(
            x=x, lambda_eq=self.y, lambda_ineq=self.z[:self.mi], z_lower=z_lower,
            z_upper=z_upper, objective=vals[0], status=status, iterations=iterations,
            constraint_violation=self.viol(x, vals), kkt_error=self.e0, mu=self.mu,
            lus=counts["lus"], gmres_calls=counts["gmres_calls"],
            colamd_steps=counts["colamd_steps"])


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
    gap (at least 1e-8), on the central path of that x0.  Equality
    multipliers start at 0 either way.

    `log`, if given, is called once per iteration with a dict: `iteration`,
    `objective`, `kkt_error` and `mu` at the current iterate, and
    `delta_w`, `delta_c`, `factor_attempts`, `alpha_primal` and
    `alpha_dual` of the step that led to it (all 0 at the first iterate).
    `delta_c` is the dual regularization of the LU that gave the step: the
    quasi-definite one's delta_c (or the larger dc of an exactly singular
    K), or K's own LU's dc, which is 0 unless K is exactly singular.
    """
    t_start = time.monotonic()
    iterate = _Iterate(prob, tol, warm_start)
    status, it = MAX_ITER, 0
    for it in range(1, max_iter + 1):
        iterate.evaluate()
        if log is not None:
            log(dict(iteration=it, objective=iterate.at_x[0], kkt_error=iterate.e0,
                     mu=iterate.mu, **iterate.last_step))
        if iterate.e0 <= tol and iterate.mu <= tol / 10.0:
            status = OPTIMAL
            break
        if time_limit is not None and time.monotonic() - t_start > time_limit:
            status = TIME_LIMIT
            break
        iterate.update_mu()
        step = iterate.newton_step()
        if step is None:
            status = NUMERICAL_FAILURE
            break
        iterate.line_search(*step)
    return iterate.solution(status, it)


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
