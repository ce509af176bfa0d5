"""Solver routes to the ergodic pair (lambda, phi) and their plumbing.

Routes implemented here:

* ``solve_dirichlet``      fixed lambda, boundary data prescribed; Howard's policy
                           iteration on the interior rows of the reflecting (Neumann) operator
* ``solve_discounted``     discount term eps*phi replaces lambda; eps*phi(anchor)
                           estimates the critical value as eps -> 0; Newton with
                           a line search, and on a stall pseudo-transient
                           continuation, as newton_augmented
* ``solve_ergodic``        reflecting (Neumann) problem on the box; three methods:
                           augmented Newton, relative value iteration, policy
                           iteration (all fixed points of the same discrete system),
                           each solution carrying a certified enclosure
                           lambda_lo <= lambda_h <= lambda_hi (_finalize).
                           Newton and policy iteration are one route function on one
                           square system, lambda in the anchor's slot, with two
                           globalizations (line search, and on a stall
                           pseudo-transient continuation, vs full step), so their
                           agreement is not independent evidence. On a grid of more
                           than COARSE_MIN_NODES nodes both first solve the same
                           problem at spacing 2h and start from that solution
                           (nested iteration). Relative value iteration
                           (_relative_value_iteration) is the one march of
                           u_t = 1/2 Lap u - H(Du) + f: a plain step is IMEX
                           (backward Euler for 1/2 Lap, split by axes when m >= 2,
                           explicit upwind H) with
                           dt <= 0.9 h / (m max(1, max|p|)^(theta-1)), and each
                           iterate is the Anderson type-II combination of its last
                           plain steps' images (Anderson 1965; Walker & Ni 2011),
                           stopped once the rate spread -G_h[u] is <= tol/2

Every Newton-type route runs one driver (_damped_newton) with one stall policy:
a line-searched route goes on in pseudo-time where its line search stalls.
Every Newton-type step (Newton, pseudo-time, policy, Dirichlet, discount)
solves one linear system with the Jacobian (_linear_step). On a 1-d grid that
matrix is tridiagonal: LAPACK's ?gtsv solves it from the operator's three
diagonals, with no sparse matrix built (_tridiagonal_step). On larger
dimensions a sparse LU in nested-dissection order does, and may be reused
as GMRES's preconditioner (_nd_step) down to the linear residual the driver
allows: max(tol/4, FORCING |F|_inf) for a line-searched step (inexact
Newton), tol/4 for a pseudo-time or Howard step. The step alone counts its
fresh factors, held-LU solves and GMRES iterations into the trace. A march
rung factors the 1-d I/dt - 1/2 L once by ?pttrf and solves along every axis
in turn (_rung_solver); the march builds no sparse matrix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
from scipy.sparse.linalg import splu

from .grid import Field, Grid, dump_json
from .problem import ProblemSpec
from .scheme import DiscreteOperator, _slope_kernel

__all__ = [
    "SolverError",
    "TraceRecord",
    "ConvergenceTrace",
    "ErgodicSolution",
    "solve_dirichlet",
    "solve_discounted",
    "solve_ergodic",
    "discounted_lambda_path",
    "eikonal_initial_guess",
    "random_smooth_field",
]

# A line-search step cut below this fraction is a stall, as a non-finite step is;
# the solve then goes on in pseudo-time (_damped_newton). At
# 2^-20 random fields 8 and 9 of the verify instance crawled 35 and 53 steps at
# |F|_inf > 1.1e3; at 2^-10 both stall at once. At 2^-4 two configs of tier-1's
# specificity matrix change outcome; the shipped verify configs accept 2^-5.
BACKTRACK_FLOOR = 2.0**-10
# First pseudo-time step of the continuation that takes over when the line search
# stalls. From 60 random fields on the 1-d closed forms (h=0.01, theta 1.5/2/3),
# 1e-3 leaves 7 solves short of tolerance within the iteration budget; 1e-2 and
# 1e-1 converge on every field, and 1e-2 needs fewer iterations than 1e-1 on the
# 2-d theta=3 instance; 1 takes up to 246 iterations and twice the wall time.
PTC_TAU0 = 1e-2
MARCH_RECORD_EVERY = 200  # march steps between trace records and rate statistics
# Relative value iteration stops once its certified enclosure of lambda_h has
# not shrunk for this many iterations (not records). On the verify instance it
# last shrinks at iteration 1,874 and then stays put through iteration 21,874.
# The plateau is the rounding floor when its width is at most 2^10 eps max|u| / h^2,
# the rounding of the Laplacian's differences, and a stall otherwise. The floors
# of the three verify configs and of three closed forms (1-d R 4 h 0.1, R 8 h 0.01,
# 2-d R 3 h 0.1), marched at tol 1e-14, are 0.04-2.9 times eps max|u| / h^2
# (verify instance: 8.8e-13, 0.04 times); the plateau of the theta 3, alpha 3
# box from the eikonal guess is 0.23 wide, 1e10 times.
MARCH_FLOOR_STEPS = 2000
# Relative value iteration mixes its last ANDERSON_DEPTH + 1 plain images. From
# the zero start at tol 1e-8, on 16 1-d boxes (theta 1.5, 2, 2.5, 3; R 6, 8;
# h 0.02, 0.025) and 4 2-d closed forms, depth 3 settles in a median of 756
# iterations (at most 2,800), against 5,003 (at most 14,289) for plain steps.
# Depths 2, 4 and 5 take medians of 1,047, 995 and 745 (at most 2,753, 4,044
# and 3,528).
ANDERSON_DEPTH = 3
# _anderson_weights drops a difference whose Schur pivot is at most this share
# of its squared norm; any value from 1e-14 to 1e-6 gives the same iterations
# on those 20 instances, and a pivot of 0 (repeated residuals) is never divided by
ANDERSON_PIVOT = 1e-10
# solve_ergodic's budget when max_iter is not given: Newton iterations, policy
# sweeps, march steps
METHOD_BUDGETS = {
    "newton_augmented": 300,
    "policy_iteration": 100,
    "relative_value_iteration": 2_000_000,
}
DISCOUNTED_MAX_ITER = 200  # Newton iterations of one discounted solve
DIRICHLET_MAX_ITER = 80  # Howard sweeps of one Dirichlet solve
ND_LEAF = 16  # nested dissection stops at blocks of at most this many nodes
ND_LAYOUTS = 8  # _nd_matrix keeps the layouts of this many (grid, unknowns, anchor) keys
_LAYOUTS: dict = {}  # oldest first
# Reuse of the last LU (_nd_step, m >= 2). 1-d steps never reach _nd_step:
# _tridiagonal_step factors afresh at every step.
REUSE_CONTRACTION = 0.1  # try the held LU only after a step that cut |F|_2 tenfold
REUSE_ITERATIONS = 10  # GMRES iterations on a held LU before it is dropped
REUSE_BACKWARD_ERROR = 1e-10  # a fresh diagonal-pivot LU reaches 4e-16 to 5e-11 here
# Forcing term of a line-searched Newton step: its linear residual may be
# max(tol/4, FORCING |F|_inf) (inexact Newton: Dembo, Eisenstat & Steihaug 1982;
# Eisenstat & Walker 1996). Over the six 2-d closed-form Newton solves on
# 241 x 241 (three eikonal, three random starts) the 241 x 241 LU solves number
# 80 / 54 / 50 / 46 / 44 at FORCING 0 / 1e-4 / 1e-3 / 1e-2 / 1e-1; from 3e-2 on
# the 121 x 121 level takes 5-9 records instead of 4-5. Howard and pseudo-time
# steps keep tol/4: forced on the 1-d hard solves, policy iteration diverges.
FORCING = 1e-3
# Nested iteration (_coarse_start): a grid of more nodes than this is first
# solved at spacing 2h. Measured on the 2-d closed forms (2-vCPU host), one
# coarse level takes a random-field Newton solve on 81 x 81 from 0.23 to
# 0.07 s, and on 161 x 161 from 1.4-1.6 to 0.4-0.6 s; from the eikonal guess it
# moves 81 x 81 to 161 x 161 solves by -0.08 to +0.06 s. On 241 x 241 (nested to
# 61 x 61) the three random-field solves take 2.0 s instead of 9.6 s and the six
# eikonal-start ones 3.6 s instead of 4.1 s. Every 1-d grid of the package (at
# most 3,201 nodes) and the small 2-d ones keep the direct path.
COARSE_MIN_NODES = 10_000


class SolverError(RuntimeError):
    """A solve that stopped short of tol, with its trace: the records and counts it wrote, and
    a termination of "max_iterations", "non_finite_step", "blow_up", "rounding_floor" or
    "stalled"."""

    def __init__(self, message: str, trace: ConvergenceTrace):
        super().__init__(message)
        self.trace = trace


@dataclass
class TraceRecord:
    iteration: int
    residual_sup: float
    lambda_estimate: Optional[float] = None
    # Newton line-search fraction (0: step rejected), pseudo-time step tau, or march dt
    step_size: Optional[float] = None


@dataclass
class ConvergenceTrace:
    records: list[TraceRecord] = field(default_factory=list)
    termination: str = ""
    # Newton-type steps solved by a fresh factor and by the held LU, and the GMRES
    # iterations run on the held LU (one LU solve each), counted by the step
    # (_linear_step); and the coarser grids solved first, coarsest first
    # (_coarse_start); written to meta.json, not to trace.jsonl
    factorizations: int = 0
    reused_steps: int = 0
    reused_iterations: int = 0
    coarse_levels: list[dict] = field(default_factory=list)
    # relative value iteration's (iteration, min, mean, max) of the rate at every
    # record; written to neither file
    rate_stats: list[tuple[int, float, float, float]] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [dump_json(asdict(r)) for r in self.records]
        lines.append(dump_json({"event": "done", "termination": self.termination}))
        return "\n".join(lines) + "\n"

    def linear_counts(self) -> dict:
        """The step counts by name, as meta.json and each coarse_levels entry write them."""
        return {k: getattr(self, k) for k in ("factorizations", "reused_steps", "reused_iterations")}


@dataclass
class ErgodicSolution:
    lam: float
    phi: Field
    residual_sup: float
    # lambda_lo <= lambda_h <= lambda_hi up to rounding, by discrete comparison (_finalize)
    lambda_lo: float
    lambda_hi: float
    trace: ConvergenceTrace
    method: str
    spec: ProblemSpec
    tol: float = 0.0


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _linear_step(
    op: DiscreteOperator, at: Callable, keep: np.ndarray, ones_at: Optional[int] = None
):
    """step(x, shift, rhs, bound, trace) -> d of a Newton-type route: _tridiagonal_step in
    1-d, else _nd_step.

    Its matrix is op's Jacobian at at(x, shift) = (values, shift), restricted
    to the rows and columns keep.
    """
    return (_tridiagonal_step if op.spec.m == 1 else _nd_step)(op, at, keep, ones_at)


def _tridiagonal_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^(-1) b for the tridiagonal A of at least one row, with diagonal d and off-diagonals dl, du.

    dl[i] = A[i+1, i] and du[i] = A[i, i+1], as ?gtsv takes them. ?gtsv's
    elimination with partial pivoting; NaN if a pivot is exactly zero. Its
    wrapper needs 2 rows, so a 1-row system is divided out.
    """
    if d.size == 1:
        return b / d[0] if d[0] != 0.0 else np.full(b.shape, np.nan)
    *_, x, info = dgtsv(dl, d, du, b)
    return np.full(b.shape, np.nan) if info > 0 else x


def _tridiagonal_step(
    op: DiscreteOperator, at: Callable, keep: np.ndarray, ones_at: Optional[int] = None
):
    """1-d twin of _nd_step: the same step(x, shift, rhs, bound, trace) -> d, by ?gtsv.

    In 1-d keep is a run of consecutive nodes, so J is tridiagonal; its three
    diagonals are read from op._diagonals(*at(x, shift)) and factored afresh
    at every step, which adds 1 to trace.factorizations (there is no held LU,
    so bound goes unused: every step is a direct solve). Node ones_at (an
    interior unknown: the anchor is the middle node) has a column of ones,
    which is eliminated by one Schur complement: with a its row and r the
    others, J_rr [x1 x2] = [b_r 1], then d_a = (b_a - J_ar x1) / (1 - J_ar x2)
    and d_r = x1 - d_a x2. The pivot 1 - J_ar x2 >= 1 is the one the ND factor
    takes last (_lu_solve).
    """
    first, last = keep[0], keep[-1]
    a = None if ones_at is None else ones_at - first
    if a is not None and not 0 < a < keep.size - 1:
        raise ValueError(f"the column of ones must belong to an interior unknown, got {ones_at}")

    def step(x: np.ndarray, shift: float, rhs: np.ndarray, bound: float, trace: ConvergenceTrace):
        trace.factorizations += 1
        diagonals = op._diagonals(*at(x, shift))
        dl, du = diagonals[-1][first:last], diagonals[1][first:last]
        d = diagonals[0][first:last + 1]
        if a is None:
            return _tridiagonal_solve(dl, d, du, rhs)
        ja = dl[a - 1], du[a]  # J_ar: J[a, a-1] and J[a, a+1]
        dl[a - 1:a + 1] = du[a - 1:a + 1] = 0.0  # J_rr, and an identity row that decouples node a
        d[a] = 1.0
        b = np.ones((rhs.size, 2))
        b[:, 0] = rhs
        xs = _tridiagonal_solve(dl, d, du, b)  # [x1 x2] off row a, which is decoupled
        j1, j2 = ja[0] * xs[a - 1] + ja[1] * xs[a + 1]  # J_ar [x1 x2]
        da = (rhs[a] - j1) / (1.0 - j2)
        delta = xs[:, 0] - da * xs[:, 1]
        delta[a] = da
        return delta

    return step


def _nd_order(shape: tuple[int, ...], last: Optional[int] = None) -> np.ndarray:
    """Nested-dissection order of a grid's nodes, as flat indices (George 1973).

    A block of more than ND_LEAF nodes is cut across the middle of its longest
    axis, and the cut plane follows both halves; node ``last`` goes last.
    """

    def order(block: np.ndarray) -> list[np.ndarray]:
        if block.size <= ND_LEAF:
            return [block.ravel()]
        b = block.swapaxes(0, block.shape.index(max(block.shape)))
        mid = b.shape[0] // 2
        return order(b[:mid]) + order(b[mid + 1:]) + [b[mid].ravel()]

    perm = np.concatenate(order(np.arange(int(np.prod(shape))).reshape(shape)))
    return perm if last is None else np.append(perm[perm != last], last)


def _nd_matrix(
    jac: sp.csr_matrix, shape: tuple[int, ...], keep: np.ndarray, ones_at: Optional[int]
) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """(a, pick, back): a the rows and columns keep of jac in _nd_order, as CSC.

    Node ones_at's column is replaced by ones and goes last. pick lists the
    unknowns in that order and back undoes it. The CSR pattern of jac depends
    on the grid alone, so its layout in a (the CSC pattern, and the gather of
    jac's data into it) is built once per (grid shape, unknowns, ones_at) and
    cached; the oldest of ND_LAYOUTS layouts is dropped.
    """
    key = (shape, keep.tobytes(), ones_at)
    if key not in _LAYOUTS:
        order = _nd_order(shape, last=ones_at)
        pick = np.searchsorted(keep, order[np.isin(order, keep)])  # unknowns in that order
        slots = sp.csr_matrix((np.arange(1.0, jac.nnz + 1), jac.indices, jac.indptr), jac.shape)
        if ones_at is not None:  # index nnz holds the ones
            ones = np.full((slots.shape[0], 1), slots.nnz + 1.0)
            slots = sp.hstack([slots[:, :ones_at], ones, slots[:, ones_at + 1:]], format="csr")
        pattern = slots[keep[pick]][:, keep[pick]].tocsc()
        while len(_LAYOUTS) >= ND_LAYOUTS:
            del _LAYOUTS[next(iter(_LAYOUTS))]
        gather = pattern.data.astype(int) - 1
        _LAYOUTS[key] = pick, np.argsort(pick), pattern.indices, pattern.indptr, gather
    pick, back, indices, indptr, gather = _LAYOUTS[key]
    data = np.append(jac.data, 1.0)[gather]
    return sp.csc_matrix((data, indices, indptr), shape=(pick.size, pick.size)), pick, back


def _nd_step(
    op: DiscreteOperator, at: Callable, keep: np.ndarray, ones_at: Optional[int] = None
):
    """step(x, shift, rhs, bound, trace) = J^(-1) rhs, J the rows and columns keep of op's
    Jacobian.

    J is op.jacobian(*at(x, shift)), and keep is sorted. J is written in
    _nd_order, node ones_at's column replaced by ones and last (_nd_matrix).
    The step holds every fresh LU. After a step that cut |rhs|_2 by
    REUSE_CONTRACTION or more, the next one first tries the held LU
    (_reused_solve, accepting a linear residual of at most bound) and factors
    J afresh by _lu_solve only if that solve falls short; only one LU is held
    at any time. The step adds 1 to trace.reused_steps when the held LU
    solves it and to trace.factorizations when J is factored afresh;
    _reused_solve counts its GMRES iterations, declined ones included.
    """
    held = None
    last_norm = np.inf

    def step(x: np.ndarray, shift: float, rhs: np.ndarray, bound: float, trace: ConvergenceTrace):
        nonlocal held, last_norm
        a, pick, back = _nd_matrix(op.jacobian(*at(x, shift)), op.spec.grid.shape, keep, ones_at)
        b = rhs[pick]
        norm = np.linalg.norm(b)
        contracted, last_norm = norm <= REUSE_CONTRACTION * last_norm, norm
        if held is not None and contracted:
            d = _reused_solve(a, held, b, bound, trace)
            if d is not None:
                trace.reused_steps += 1
                return d[back]
        held = None  # dropped before the fresh factor is built
        trace.factorizations += 1
        d, held = _lu_solve(a, b)
        return d[back]

    return step


def _lu_solve(a: sp.csc_matrix, b: np.ndarray):
    """(a^(-1) b, LU) by one LU of a in its given order, every pivot on the diagonal.

    Safe here: the Jacobian is <= 0 off the diagonal with row sums = shift >= 0,
    so without the anchor it is a nonsingular M-matrix (also on the Dirichlet
    interior and as J + eps I), and the anchor's pivot is 1 - r M^(-1) 1 >= 1.
    A diagonal-pivot LU of such a matrix is componentwise backward stable,
    the bar _reused_solve holds a reused factor to. If the factor is exactly
    singular, the solution is NaN and the LU None.
    """
    try:
        lu = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:
        return np.full(b.shape, np.nan), None
    return lu.solve(b), lu


def _reused_solve(
    a: sp.csc_matrix, lu, b: np.ndarray, bound: float, trace: ConvergenceTrace
) -> Optional[np.ndarray]:
    """a^(-1) b by GMRES on a lu^(-1) from 0, or None if no iterate meets the bar.

    Right preconditioning minimizes the true residual |a d - b|_2 over the
    Krylov space; at most REUSE_ITERATIONS iterations, each one LU solve that
    adds 1 to trace.reused_iterations, accepted or not (_nd_step counts the
    step). An iterate d is accepted when |a d - b|_inf <= bound, the linear residual
    the Newton driver allows this step (_damped_newton), or when its componentwise
    (Oettli-Prager) backward error max_i |a d - b|_i / (|a| |d| + |b|)_i is
    at most REUSE_BACKWARD_ERROR, as good as a direct solve. A small
    2-norm residual alone is not enough: accepted on that, policy iteration
    diverged from a cold start.
    """
    v = np.empty((REUSE_ITERATIONS + 1, b.size))  # orthonormal Krylov basis
    z = np.empty((REUSE_ITERATIONS, b.size))  # lu^(-1) v
    hess = np.zeros((REUSE_ITERATIONS + 1, REUSE_ITERATIONS))
    e1 = np.zeros(REUSE_ITERATIONS + 1)
    e1[0] = np.linalg.norm(b)  # nonzero: _damped_newton stops at |F|_inf <= tol first
    v[0] = b / e1[0]
    scale = sp.csc_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)  # |a|
    for k in range(REUSE_ITERATIONS):
        trace.reused_iterations += 1
        z[k] = lu.solve(v[k])
        w = a @ z[k]
        for i in range(k + 1):  # modified Gram-Schmidt
            hess[i, k] = v[i] @ w
            w -= hess[i, k] * v[i]
        hess[k + 1, k] = np.linalg.norm(w)
        y = np.linalg.lstsq(hess[: k + 2, : k + 1], e1[: k + 2], rcond=None)[0]
        d = y @ z[: k + 1]
        r = np.abs(a @ d - b)
        componentwise = np.all(r <= REUSE_BACKWARD_ERROR * (scale @ np.abs(d) + np.abs(b)))
        if componentwise or r.max() <= bound:
            return d
        if not hess[k + 1, k] > 0.0:  # breakdown: the Krylov space holds no better d
            return None
        v[k + 1] = w / hess[k + 1, k]
    return None


def _damped_newton(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    step_fn: Callable[[np.ndarray, float, np.ndarray, float, ConvergenceTrace], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    trace: ConvergenceTrace,
    lam_of: Optional[Callable[[np.ndarray], float]] = None,
    *,
    tau: Optional[float] = None,
) -> np.ndarray:
    """Newton iteration globalized by a line search or in pseudo-time; returns x.

    Without tau each step is backtracked until the Euclidean residual norm
    decreases (the Newton direction is always a descent direction for it,
    unlike for the sup norm, which jams at upwind kinks); convergence is still
    declared on the sup norm. A line-search step is taken only if it cuts
    |F|_2 by a relative 1e-4 s >= 1e-4 BACKTRACK_FLOOR (about 9.8e-8), so the
    line search needs no stall window.

    step_fn(x, shift, -F, bound, trace) solves with the Jacobian at x plus
    shift (0 without tau) on the diagonal of its residual rows (_linear_step):
    by a fresh factor, or, for m >= 2, by the last LU when that solve is as
    good as a direct one or leaves a linear residual |J d + F|_inf <= bound.
    The driver sets the bound. A line-searched step is an inexact Newton step
    (Dembo, Eisenstat & Steihaug 1982): bound = max(tol/4, FORCING |F|_inf),
    which the line search absorbs. A step in pseudo-time, Howard's full step
    included, has no line search to absorb an inexact step, and keeps
    bound = tol/4, which cannot hold up convergence. step_fn counts its own
    linear algebra into trace; the driver reads and writes no count, and
    appends each iteration's record to trace.records. With a pseudo-time
    step tau every step solves (J + I/tau) d = -F and is taken whole:
    pseudo-transient continuation, with tau grown by switched evolution
    relaxation, tau <- tau |F_old|_2 / |F_new|_2 (Kelley & Keyes 1998).
    tau = inf is the plain full Newton step, Howard's policy iteration on
    the ergodic and the Dirichlet system.

    The line search stalls when its step is not finite or no fraction down to
    BACKTRACK_FLOOR helps; that iteration is recorded with step size 0, and
    the same loop goes on in pseudo-time from tau = PTC_TAU0, within the same
    max_iter budget. A failure is a SolverError carrying trace, whose
    termination says why: "non_finite_step" for a non-finite step in
    pseudo-time (tau = inf included), or "max_iterations".
    """
    ptc = tau is not None

    def trial(xt: np.ndarray) -> tuple[np.ndarray, float]:
        # a trial step may overflow |p|^theta; the non-finite merit that
        # results is handled below (backtrack, or SolverError under PTC)
        with np.errstate(over="ignore", invalid="ignore"):
            ft = residual_fn(xt)
            return ft, float(np.linalg.norm(ft))

    x = np.asarray(x0, dtype=float).copy()
    f = residual_fn(x)
    r = _sup(f)
    merit = float(np.linalg.norm(f))
    lam = lam_of(x) if lam_of else None
    trace.records.append(TraceRecord(0, r, lam, None))
    for it in range(1, max_iter + 1):
        if r <= tol:
            return x
        # a singular J gives a NaN step, which the checks below handle (a
        # line-search stall)
        bound = 0.25 * tol if ptc else max(0.25 * tol, FORCING * r)
        delta = step_fn(x, 1.0 / tau if ptc else 0.0, -f, bound, trace)
        s = 1.0
        stalled = not ptc and not np.all(np.isfinite(delta))
        if not stalled:
            xt = x + delta
            ft, mt = trial(xt)
            if ptc and not np.isfinite(mt):
                trace.termination = "non_finite_step"
                raise SolverError(f"non-finite step at iteration {it}", trace)
            while not ptc and not (np.isfinite(mt) and mt < merit * (1.0 - 1e-4 * s)):
                s *= 0.5
                if s < BACKTRACK_FLOOR:
                    stalled = True
                    break
                xt = x + s * delta
                ft, mt = trial(xt)
        if stalled:
            trace.records.append(TraceRecord(it, r, lam, 0.0))
            ptc, tau = True, PTC_TAU0  # carry on from x in pseudo-time
            continue
        x, f, merit, previous = xt, ft, mt, merit
        r = _sup(f)
        lam = lam_of(x) if lam_of else None
        # the pseudo-time step, or the line-search fraction (1 for a full step)
        trace.records.append(TraceRecord(it, r, lam, tau if ptc and tau < np.inf else s))
        if ptc and merit > 0.0:
            tau *= previous / merit
    if r <= tol:
        return x
    trace.termination = "max_iterations"
    raise SolverError(
        f"did not reach tolerance {tol:g} within {max_iter} iterations (residual {r:.3e})", trace
    )


# -- Dirichlet route -----------------------------------------------------------


def solve_dirichlet(
    spec: ProblemSpec,
    lam: float,
    data: Field,
    initial_guess: Optional[Field] = None,
    tol: float = 1e-8,
) -> Field:
    """Solve G_h[phi] + lambda = 0 at interior nodes with phi = data on the boundary.

    Both stencil arms exist at interior nodes, so the operator is the
    reflecting (Neumann) one on the interior rows, and the Jacobian its interior
    rows and columns. Each sweep is Howard's full step with that
    policy-evaluation matrix (Bokanowski, Maroso & Zidani 2009). A returned
    field solves to tol and so certifies solvability at lambda; a SolverError
    (a non-finite step, or the budget spent far from tol) is consistent with
    lambda above the critical value but certifies nothing.
    """
    grid = spec.grid
    op = DiscreteOperator(spec)
    interior = grid.interior_mask()
    unknowns = np.flatnonzero(interior)

    full = np.array(data.values, dtype=float)
    full[interior] = initial_guess.values[interior] if initial_guess is not None else 0.0

    def assemble(x: np.ndarray) -> np.ndarray:
        vals = full.copy()
        vals[interior] = x
        return vals

    def residual_fn(x: np.ndarray) -> np.ndarray:
        return op.residual_values(assemble(x), lam)[interior]

    step = _linear_step(op, lambda x, s: (assemble(x), s), unknowns)
    x = _damped_newton(
        residual_fn, step, full[interior], tol, DIRICHLET_MAX_ITER, ConvergenceTrace(), tau=np.inf
    )
    return Field(grid, assemble(x))


# -- discounted route ----------------------------------------------------------


def solve_discounted(
    spec: ProblemSpec,
    epsilon: float,
    initial_guess: Optional[Field] = None,
    tol: float = 1e-8,
) -> Field:
    """Solve -1/2 Lap phi + H(D phi) + eps*phi = f with the reflecting (Neumann) boundary.

    Returns the un-normalized field; eps*phi(anchor) estimates the critical value.
    Newton backtracks, and where its line search stalls it goes on in
    pseudo-time within DISCOUNTED_MAX_ITER iterations (_damped_newton).
    """
    if not epsilon > 0:
        raise ValueError(f"discount rate must be positive, got {epsilon}")
    grid = spec.grid
    op = DiscreteOperator(spec)
    nodes = np.arange(grid.n_nodes)

    def residual_fn(x: np.ndarray) -> np.ndarray:
        vals = x.reshape(grid.shape)
        return (op.residual_values(vals, 0.0) + epsilon * vals).ravel()

    x0 = initial_guess.values.ravel() if initial_guess is not None else np.zeros(nodes.size)
    step = _linear_step(op, lambda x, s: (x.reshape(grid.shape), epsilon + s), nodes)
    x = _damped_newton(residual_fn, step, x0, tol, DISCOUNTED_MAX_ITER, ConvergenceTrace())
    return Field(grid, x.reshape(grid.shape))


def discounted_lambda_path(
    spec: ProblemSpec,
    eps_list: list[float],
    tol: float = 1e-8,
) -> tuple[list[dict], float]:
    """eps*phi_eps(anchor) along a discount schedule plus its extrapolation to eps=0.

    The extrapolation is the intercept of the least-squares polynomial of
    degree min(2, solves - 1) in eps: through three solves the quadratic
    cancels the O(eps) term as well as the O(1) one (Richardson in eps).
    Successive solves are warm-started through the 1/eps scaling of the fields.
    """
    anchor = spec.anchor_index
    op = DiscreteOperator(spec)
    rows = []
    guess: Optional[Field] = None
    lam_prev = None
    eps_prev = None
    for eps in eps_list:
        if guess is not None and lam_prev is not None:
            shifted = guess.values + lam_prev * (1.0 / eps - 1.0 / eps_prev)
            guess = Field(spec.grid, shifted)
        phi = solve_discounted(spec, eps, initial_guess=guess, tol=tol)
        lam_eps = eps * phi.values[anchor]
        res = _sup(op.residual_values(phi.values, 0.0) + eps * phi.values)
        rows.append({"epsilon": eps, "lambda": lam_eps, "residual_sup": res})
        guess, lam_prev, eps_prev = phi, lam_eps, eps
    eps_arr = np.array([r["epsilon"] for r in rows])
    lam_arr = np.array([r["lambda"] for r in rows])
    return rows, float(np.polyfit(eps_arr, lam_arr, min(2, len(rows) - 1))[-1])  # the intercept


# -- reflecting (Neumann) ergodic routes ----------------------------------------


def _finalize(
    op: DiscreteOperator,
    values: np.ndarray,
    lam: float,
    trace: ConvergenceTrace,
    method: str,
    tol: float,
    enclosure: Optional[tuple[float, float]] = None,
) -> ErgodicSolution:
    """The solution at values less their anchor value, lambda lam and trace, now "converged".

    The scheme is monotone, so the range of the rate lam - res = -G_h[phi]
    encloses lambda_h by discrete comparison; that is the enclosure unless
    one is given (relative value iteration's running intersection).
    """
    spec = op.spec
    vals = values - values[spec.anchor_index]
    res = op.residual_values(vals, lam)
    sup = _sup(res)
    trace.records[-1] = replace(trace.records[-1], residual_sup=sup, lambda_estimate=float(lam))
    trace.termination = "converged"
    if not np.all(np.isfinite(vals)):
        raise SolverError("solution contains non-finite values", trace)
    lo, hi = enclosure or (lam - float(res.max()), lam - float(res.min()))
    return ErgodicSolution(
        lam=float(lam),
        phi=Field(spec.grid, vals),
        residual_sup=sup,
        lambda_lo=float(lo),
        lambda_hi=float(hi),
        trace=trace,
        method=method,
        spec=spec,
        tol=tol,
    )


def _solve_square(
    spec: ProblemSpec, initial_guess: Optional[Field], tol: float, max_iter: int, method: str
) -> ErgodicSolution:
    """Newton or policy iteration on G_h[phi] + lambda = 0 in N unknowns z.

    phi = z but phi(anchor) = 0, and lambda = z(anchor), so the step's matrix
    is the Jacobian with its anchor column replaced by ones. G_h is invariant
    under constants, so from the guess less its anchor value this is Newton on
    the bordered system {G_h[phi] + lambda = 0, phi(anchor) = 0}.

    Newton backtracks. When the semismooth iteration jams on an upwind kink
    configuration, it goes on from there by pseudo-transient continuation in
    _damped_newton and within the same iteration budget: the pseudo-time
    shift keeps the matrix nonsingular and moves the iterate off the kinks.

    Policy iteration is Howard's method, run as full-step Newton (tau = inf).
    Policy evaluation solves -1/2 Lap phi + b . D phi (upwinded) + lambda
    = f + L*(b) with phi(anchor) = 0, where b = |p|^(theta-2) p is the
    maximizing drift and L*(b) = (1/theta*) |b|^theta* the Legendre dual of the
    Hamiltonian. The matrix of that linear system is the Jacobian of G_h at
    the current iterate, and its right-hand side is that Jacobian applied to
    the iterate minus the residual, so one policy sweep is one undamped Newton
    step (Puterman & Brumelle 1979; Bokanowski, Maroso & Zidani 2009).

    Both are nested iterations on a large grid: the iteration starts from the
    solution on the grid of spacing 2h, prolonged (_coarse_start), or from
    the guess when there is no coarse level or its solve failed. Started
    there, Newton needs a few steps that do not grow as h shrinks (mesh
    independence: Allgower, Boehmer, Potra & Rheinboldt 1986). The fixed
    point is the fine grid's whatever the start. The trace's records and
    counts are the fine grid's; trace.coarse_levels describes the coarse
    solves. A SolverError carries the same trace.
    """
    grid = spec.grid
    op = DiscreteOperator(spec)
    anchor = int(np.ravel_multi_index(spec.anchor_index, grid.shape))

    def split(z: np.ndarray) -> tuple[np.ndarray, float]:
        phi = z.copy()
        phi[anchor] = 0.0
        return phi.reshape(grid.shape), float(z[anchor])

    guess = initial_guess.values if initial_guess is not None else np.zeros(grid.shape)
    guess, levels = _coarse_start(spec, guess, tol, max_iter, method)
    z0 = (guess - guess[spec.anchor_index]).ravel()  # lambda starts at 0
    step_fn = _linear_step(op, lambda z, s: (split(z)[0], s), np.arange(z0.size), anchor)
    trace = ConvergenceTrace(coarse_levels=levels)
    z = _damped_newton(
        lambda z: op.residual_values(*split(z)).ravel(), step_fn, z0, 0.5 * tol, max_iter, trace,
        lambda z: split(z)[1], tau=np.inf if method == "policy_iteration" else None,
    )
    return _finalize(op, *split(z), trace, method, tol)


def _coarse_start(
    spec: ProblemSpec, guess: np.ndarray, tol: float, max_iter: int, method: str
) -> tuple[np.ndarray, list[dict]]:
    """(start, levels): where _solve_square starts on spec's grid, and the coarse solves behind it.

    A grid of more than COARSE_MIN_NODES nodes with an even half_count is
    first solved by _solve_square at spacing 2h, from guess injected onto the
    coarse nodes (every other node, so the anchor is the coarse anchor); that
    solve nests again while its grid is large. The start is its phi,
    prolonged by multilinear interpolation, which is exact on the coarse
    nodes and so keeps phi(anchor) = 0. If the coarse solve raises
    SolverError, the start is guess and the level records the failure.
    levels lists one dict per coarse grid, coarsest first.
    """
    grid = spec.grid
    if grid.n_nodes <= COARSE_MIN_NODES or grid.half_count % 2:
        return guess, []
    coarse = replace(spec, h=2.0 * spec.h)
    injected = Field(coarse.grid, guess[(slice(None, None, 2),) * spec.m])
    try:
        sol = _solve_square(coarse, injected, tol, max_iter, method)
    except SolverError as exc:  # its trace holds the failed level's counts and levels
        return guess, exc.trace.coarse_levels + [_level(coarse, exc.trace, error=str(exc))]
    return _prolong(sol.phi.values), sol.trace.coarse_levels + [_level(coarse, sol.trace)]


def _level(spec: ProblemSpec, trace: ConvergenceTrace, **extra) -> dict:
    """One coarse_levels entry: the grid and how its solve went."""
    return {
        "n_per_axis": spec.grid.n_per_axis,
        "h": spec.h,
        "iterations": trace.records[-1].iteration,
        **trace.linear_counts(),
        "termination": trace.termination,
        **extra,
    }


def _prolong(coarse: np.ndarray) -> np.ndarray:
    """Multilinear interpolation onto the grid of half the spacing: the midpoint
    average along each axis in turn, exact on the coarse nodes."""
    fine = coarse
    for axis in range(coarse.ndim):
        c = np.moveaxis(fine, axis, 0)
        f = np.empty((2 * c.shape[0] - 1,) + c.shape[1:])
        f[::2] = c
        f[1::2] = 0.5 * (c[:-1] + c[1:])
        fine = np.moveaxis(f, 0, axis)
    return fine


def solve_ergodic(
    spec: ProblemSpec,
    initial_guess: Optional[Field] = None,
    method: str = "newton_augmented",
    tol: float = 1e-8,
    max_iter: Optional[int] = None,
) -> ErgodicSolution:
    """Reflecting (Neumann) ergodic solve on the box; phi(anchor) = 0 exactly.

    All three methods converge to the same discrete fixed point; they differ
    in robustness and cost. ``newton_augmented`` and ``policy_iteration`` share
    the square system and the Newton driver and differ only in globalization
    (backtracking, and on a stall pseudo-transient continuation, vs full
    steps); ``relative_value_iteration`` is read off at the first iterate
    whose rate spread is <= tol/2 (_relative_value_iteration). max_iter counts
    Newton iterations, policy sweeps or march steps. The returned residual_sup
    is the sup norm of the operator applied to the normalized solution, and
    [lambda_lo, lambda_hi] is a certified enclosure of lambda_h (_finalize).
    """
    if not np.isfinite(spec.rhs.min_value()):
        raise ValueError("right-hand side must be bounded from below on the box")
    if method not in METHOD_BUDGETS:
        raise ValueError(f"unknown method {method!r}")
    budget = METHOD_BUDGETS[method] if max_iter is None else max_iter
    if method == "relative_value_iteration":
        return _relative_value_iteration(spec, initial_guess, tol, budget)
    return _solve_square(spec, initial_guess, tol, budget, method)


def _relative_value_iteration(
    spec: ProblemSpec, u0: Optional[Field], tol: float, max_steps: int
) -> ErgodicSolution:
    """Relative value iteration for u_t = 1/2 Lap u - H(Du) + f, Anderson-accelerated.

    The rate is rate = -G_h[u], the right-hand side at u. The plain image of
    an iterate u is one IMEX step, normalized: g(u) = normalize(u + P rate(u)),
    with the Laplacian backward in time and H forward, and normalize
    subtracting the anchor value. P is (I/dt - 1/2 Lap_h)^(-1) in 1-d and
    its splitting by axes otherwise (_rung_solver, factored once per rung).
    dt is the largest rung (0.9 h/m) 2^(-k/2) with
    dt <= 0.9 h / (m max(1, max|p|)^(theta-1)) at u: u + dt (f - H) is then
    monotone, and so is the 1-d step, I - dt/2 Lap_h being an M-matrix; for
    m >= 2 P^(-1) adds (dt/4) L_1 L_2, and the step need not be monotone.
    Nothing below relies on it. The work arrays are allocated once
    (_slope_kernel). The step takes phi + lambda t to phi + lambda (t + dt)
    exactly when G_h[phi] + lambda = 0, whatever dt is, because P 1 = dt 1;
    so a fixed point of g solves G_h[u] + lambda = 0.

    The next iterate is the Anderson type-II combination of the last
    ANDERSON_DEPTH + 1 plain images, not the newest image alone (Anderson
    1965; Walker & Ni 2011; _AndersonHistory). Its weights minimize the
    2-norm of the combined centred rates, the residual that the stop test
    reads. The history is cleared when the rung changes, since g changes with
    it. A combination whose rate is non-finite or runaway is replaced by the
    plain image it was mixed from, and the history is cleared.

    trace.rate_stats holds per-record (iteration, min, mean, max) of the
    rate. Since the scheme G_h is monotone, discrete comparison gives
    min rate <= lambda_h <= max rate at every iterate, however it was
    produced; ``lambda_lo`` and ``lambda_hi`` are the running max of the
    minima and min of the maxima, a certified enclosure of lambda_h up to
    rounding. The pair is read off at the first iterate whose rate spread
    (a bound on that pair's residual) is <= tol/2, lambda its mean rate
    clipped to [lambda_lo, lambda_hi]: the mean need not lie in the running
    intersection of earlier iterates' ranges. An enclosure that has
    not shrunk for MARCH_FLOOR_STEPS iterations before that raises
    SolverError: with termination "rounding_floor" when its width is at
    rounding scale (tol/2 lies below the floor), and "stalled" when it is
    wider, a plateau far above the floor.
    A non-finite or runaway rate of a plain iterate raises SolverError with
    termination "blow_up": dt follows the gradient at every step, so a
    blow-up points at the data (right-hand side or initial field), not at
    the step size. More than max_steps steps raise SolverError.
    """
    op = DiscreteOperator(spec)
    f, theta, h, m = op._f, spec.theta, spec.h, spec.m
    u = u0.values.astype(float).copy() if u0 is not None else np.zeros(spec.grid.shape)
    # held for the whole march: every step writes into them and updates u in place
    slopes = _slope_kernel(u, h)
    ham, rate = np.empty(u.shape), np.empty(u.shape)
    flat_rate = rate.reshape(-1)
    top = 0.9 * h / m
    k = 0  # the rung index
    rungs = {}  # dt -> the rung's P (_rung_solver)
    trace = ConvergenceTrace()
    cert_lo, cert_hi = -np.inf, np.inf  # intersection of the per-step enclosures
    last_shrink = 0
    step = 0
    anchor = int(np.ravel_multi_index(spec.anchor_index, spec.grid.shape))
    history = _AndersonHistory(u.reshape(-1), anchor)
    mixed = False  # u is an Anderson combination, not a plain image
    # a combination may overflow, and so may |p|^theta at it: its non-finite
    # rate is caught below, and at a plain iterate it is a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            lap, mag = slopes()
            np.multiply(lap, 0.5, out=rate)  # rate = 1/2 lap - |p|^theta / theta + f
            np.copyto(ham, mag)
            ham **= theta  # in place, as mag**theta computes it, scalar fast paths included
            ham /= theta
            rate -= ham
            rate += f
            lo = float(np.minimum.reduce(flat_rate))
            hi = float(np.maximum.reduce(flat_rate))
            if not (lo >= -1e14 and hi <= 1e14):  # also catches nan
                if mixed:  # back to the plain image the combination replaced
                    history.fall_back()
                    mixed = False
                    continue
                trace.termination = "blow_up"
                raise SolverError("march blew up; check the data", trace)
            if lo > cert_lo or hi < cert_hi:
                cert_lo, cert_hi = max(cert_lo, lo), min(cert_hi, hi)
                last_shrink = step
            bound = top / max(1.0, float(np.maximum.reduce(mag, axis=None))) ** (theta - 1.0)
            # the smallest k with top 2^(-k/2) <= bound, searched from the last step's
            while k > 0 and top * 2.0 ** (-0.5 * (k - 1)) <= bound:
                k -= 1
            while top * 2.0 ** (-0.5 * k) > bound:
                k += 1
            dt = top * 2.0 ** (-0.5 * k)
            settled = hi - lo <= 0.5 * tol
            stop = settled or step - last_shrink >= MARCH_FLOOR_STEPS
            if stop or step % MARCH_RECORD_EVERY == 0:
                lam = float(rate.mean())
                trace.rate_stats.append((step, lo, lam, hi))
                trace.records.append(TraceRecord(step, hi - lo, lam, None if stop else dt))
            if settled:
                break
            if stop:
                width = cert_hi - cert_lo
                floor = 2.0**10 * np.finfo(float).eps * float(np.abs(u).max()) / h**2
                at_floor = width <= floor
                trace.termination = "rounding_floor" if at_floor else "stalled"
                raise SolverError(
                    f"march {'reached its rounding floor' if at_floor else 'stalled'} at step "
                    f"{step} before its rate spread {hi - lo:.3e} fell to tol/2 = "
                    f"{0.5 * tol:g} (certified width {width:.3e}, rounding scale {floor:.3e})",
                    trace,
                )
            if step >= max_steps:
                trace.termination = "max_iterations"
                raise SolverError(
                    f"march did not settle within {max_steps} steps (rate spread "
                    f"{hi - lo:.3e} vs tol/2 = {0.5 * tol:g})",
                    trace,
                )
            if dt not in rungs:
                rungs[dt] = _rung_solver(op, dt)
            history.push(rungs[dt](flat_rate), flat_rate, dt)
            mixed = history.mix()
            step += 1
    lam = min(max(lam, cert_lo), cert_hi)
    return _finalize(op, u, lam, trace, "relative_value_iteration", tol, (cert_lo, cert_hi))


class _AndersonHistory:
    """Relative value iteration's last ANDERSON_DEPTH + 1 plain images, and its next iterate.

    x is the iterate, a flat view of the march's u, which mix() and
    fall_back() overwrite in place. push(step, rate, dt) takes the rung's
    step and the rate at x and stores, in preallocated (ANDERSON_DEPTH + 1, n) rings
    whose oldest row is overwritten first, the plain image
    g = x + step - (x + step)[anchor] and the centred rate r = rate - mean
    rate, the residual of G_h[x] + lambda = 0 at lambda = mean rate. The Gram
    matrix of the held residuals gains one row per push. A step on another
    rung than the last clears the history first. mix() writes the next
    iterate into x: sum_i w_i g_i with w from _anderson_weights, or the newest
    image while only one is held; it says whether x is a combination.
    fall_back() writes the newest image into x and clears the history.
    """

    def __init__(self, x: np.ndarray, anchor: int):
        self.x, self.anchor = x, anchor
        rows = ANDERSON_DEPTH + 1
        self.images, self.residuals = np.zeros((rows, x.size)), np.zeros((rows, x.size))
        self.products, self.work = np.empty((rows, x.size)), np.empty(x.size)
        self.gram = [[0.0] * rows for _ in range(rows)]
        self.order: list[int] = []  # ring slots, oldest first
        self.dt = None
        self.head = 0  # the next slot written

    def push(self, step: np.ndarray, rate: np.ndarray, dt: float) -> None:
        if dt != self.dt:
            self.order, self.dt = [], dt
        slot, self.head = self.head, (self.head + 1) % len(self.images)
        if slot in self.order:  # the oldest
            self.order.remove(slot)
        g, r = self.images[slot], self.residuals[slot]
        np.add(self.x, step, out=g)
        g -= g[self.anchor]
        np.subtract(rate, np.add.reduce(rate) / rate.size, out=r)
        self.order.append(slot)
        np.multiply(self.residuals, r, out=self.products)
        dots = np.add.reduce(self.products, axis=1).tolist()
        for j in self.order:
            self.gram[slot][j] = self.gram[j][slot] = dots[j]

    def mix(self) -> bool:
        if len(self.order) == 1:
            np.copyto(self.x, self.images[self.order[0]])
            return False
        weights = _anderson_weights(self.gram, self.order)
        np.multiply(self.images[self.order[0]], weights[0], out=self.x)
        for slot, w in zip(self.order[1:], weights[1:]):
            np.multiply(self.images[slot], w, out=self.work)
            self.x += self.work
        return True

    def fall_back(self) -> None:
        np.copyto(self.x, self.images[self.order[-1]])
        self.order = []


def _anderson_weights(gram: list[list[float]], order: list[int]) -> list[float]:
    """Weights w, summing to 1, that minimize |sum_i w_i r_i|_2; one per slot of order.

    gram[i][j] = r_i . r_j for the residuals r in the ring slots order,
    oldest first. With d_i = r_i - r_n for the newest residual r_n this is
    the type-II least squares min |r_n + sum_i b_i d_i|_2 (Walker & Ni 2011),
    solved by Cholesky of its normal equations, the newest d_i first. A d_i
    whose Schur pivot is at most ANDERSON_PIVOT of its own squared norm lies
    nearly in the span of the newer ones and gets weight 0. At most
    ANDERSON_DEPTH unknowns: plain Python floats, no LAPACK call.
    """
    n = order[-1]
    gn = gram[n]
    rn = gn[n]
    kept: list[int] = []  # slots of the kept d_i, newest first
    factor: list[list[float]] = []  # their rows of the Cholesky factor L
    y: list[float] = []  # L y = -(d_i . r_n)
    for i in order[-2::-1]:
        gi = gram[i]
        row: list[float] = []
        for p, j in enumerate(kept):
            v = gi[j] - gn[i] - gn[j] + rn  # d_i . d_j
            lp = factor[p]
            for q in range(p):
                v -= row[q] * lp[q]
            row.append(v / lp[p])
        pivot = norm = gi[i] - 2.0 * gn[i] + rn  # |d_i|^2 less its part in the kept span
        for v in row:
            pivot -= v * v
        if pivot > ANDERSON_PIVOT * norm:
            diag = math.sqrt(pivot)
            v = rn - gn[i]
            for q, yq in enumerate(y):
                v -= row[q] * yq
            y.append(v / diag)
            row.append(diag)
            kept.append(i)
            factor.append(row)
    b = y[:]  # L^T b = y
    for p in reversed(range(len(kept))):
        v = b[p]
        for s in range(p + 1, len(kept)):
            v -= factor[s][p] * b[s]
        b[p] = v / factor[p][p]
    coef = dict(zip(kept, b))
    return [coef.get(i, 0.0) for i in order[:-1]] + [1.0 - sum(b)]


def _rung_solver(op: DiscreteOperator, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """b -> P b for a march rung, P = c^(m-1) prod_k (c I - 1/2 L_k)^(-1) with c = 1/dt.

    Lap_h is the Kronecker sum of the 1-d reflecting Laplacians L_k, so P is
    (I/dt - 1/2 Lap_h)^(-1) in 1-d and its splitting by axes otherwise
    (Douglas & Rachford 1956; Peaceman & Rachford 1955); P 1 = dt 1. ?pttrf
    factors c I - 1/2 L, op's Jacobian at a zero axis shifted by c, once; P b
    is one ?pttrs per axis, the other axes as right-hand sides.
    """
    n, m = op.spec.grid.n_per_axis, op.spec.m
    diagonals = op._diagonals(np.zeros(n), 1.0 / dt)
    d, e, _ = dpttrf(diagonals[0], diagonals[1])
    if m == 1:  # one factor: b goes to ?pttrs as it is, with no reshape or scaling per step
        return lambda b: dpttrs(d, e, b)[0]
    scale = dt ** (1 - m)

    def solve(b: np.ndarray) -> np.ndarray:
        x = b.reshape(n, -1)
        for _ in range(m):  # along the leading axis, which then goes last
            x = dpttrs(d, e, x)[0].T.reshape(n, -1)
        return scale * x.reshape(b.shape)

    return solve


# -- initial guesses ---------------------------------------------------------------


def eikonal_initial_guess(spec: ProblemSpec) -> Field:
    """Radial warm start integrating |phi'| ~ (theta (f - f(0)))^(1/theta).

    Exact asymptotics for radial coercive f; a harmless rough guess otherwise.
    """
    grid = spec.grid
    rmax = spec.radius * np.sqrt(spec.m) + spec.h
    rr = np.arange(0.0, rmax + spec.h, spec.h)
    fr = spec.rhs.radial_value(rr, spec.m)
    slope = (spec.theta * np.clip(fr - fr[0], 0.0, None)) ** (1.0 / spec.theta)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(rr) * (slope[1:] + slope[:-1]) / 2.0)])
    vals = np.interp(grid.radii(), rr, cum)
    return Field(grid, vals)


def _box_filter(v: np.ndarray) -> np.ndarray:
    """Mean over 5 nodes along each axis in turn, the edge values extended.

    A running sum, divided at each node: scipy.ndimage's
    uniform_filter(v, size=5, mode="nearest") bit for bit.
    """
    for axis in range(v.ndim):
        x = np.moveaxis(v, axis, 0)
        padded = np.concatenate([x[:1], x[:1], x, x[-1:], x[-1:]])
        window = np.cumsum(np.concatenate([padded[:5], padded[5:] - padded[:-5]]), axis=0)[4:]
        v = np.moveaxis(window / 5.0, 0, axis)
    return v


def random_smooth_field(grid: Grid, seed: int) -> Field:
    """Smoothed seeded noise of unit standard deviation; an independent initial guess."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    for _ in range(3):
        v = _box_filter(v)
    scale = float(np.std(v))
    if scale > 0:
        v = v * (1.0 / scale)
    return Field(grid, v)
