"""Solver routes to the ergodic pair (lambda, phi) and their plumbing.

Routes implemented here:

* ``solve_dirichlet``      fixed lambda, boundary data prescribed; damped Newton
                           on the interior rows of the state-constraint operator
* ``solve_discounted``     discount term eps*phi replaces lambda; eps*phi(anchor)
                           estimates the critical value as eps -> 0
* ``solve_ergodic``        state-constraint problem on the box; three methods:
                           augmented Newton, relative value iteration, policy
                           iteration (all fixed points of the same discrete system).
                           Newton and policy iteration are one route function on one
                           square system, lambda in the anchor's slot, with two
                           globalizations (line search, and on a stall
                           pseudo-transient continuation, vs full step), so their
                           agreement is not independent evidence. On a grid of more
                           than COARSE_MIN_NODES nodes both first solve the same
                           problem at spacing 2h and start from that solution
                           (nested iteration)
* ``parabolic_march``      the one monotone march of u_t = 1/2 Lap u - H(Du) + f,
                           IMEX: backward Euler for 1/2 Lap, explicit upwind H, with
                           dt <= 0.9 h / (m max(1, max|p|)^(theta-1)); the rate
                           -G_h[u] approaches the critical value, and relative value
                           iteration is read off it (rate spread <= tol/2). Being
                           monotone, every step certifies min rate <= lambda_h <=
                           max rate; the march stops at the horizon or once the
                           intersection of these enclosures stops shrinking

Every Newton-type step (Newton, pseudo-time, policy, Dirichlet, discount)
solves one linear system with the Jacobian (_linear_step). On a 1-d grid that
matrix is tridiagonal: LAPACK's ?gtsv solves it from the operator's three
diagonals, with no sparse matrix built (_tridiagonal_step). On larger
dimensions a sparse LU in nested-dissection order does, and may be reused
(_nd_step). Likewise each march rung's I/dt - 1/2 Lap_h is factored once, by
?pttrf from its diagonals in 1-d and by a sparse LU otherwise (_rung_solver).
"""

from __future__ import annotations

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
    "ParabolicMarch",
    "solve_dirichlet",
    "solve_discounted",
    "solve_ergodic",
    "parabolic_march",
    "discounted_lambda_path",
    "eikonal_initial_guess",
    "random_smooth_field",
]

BACKTRACK_FLOOR = 2.0**-20
# First pseudo-time step of the continuation that takes over when the line search
# stalls. From 60 random fields on the 1-d closed forms (h=0.01, theta 1.5/2/3),
# 1e-3 leaves 7 solves short of tolerance within the iteration budget; 1e-2 and
# 1e-1 converge on every field, and 1e-2 needs fewer iterations than 1e-1 on the
# 2-d theta=3 instance; 1 takes up to 246 iterations and twice the wall time.
PTC_TAU0 = 1e-2
MARCH_RECORD_EVERY = 200  # march steps between trace records and rate statistics
# The march stops once its certified enclosure of lambda_h has not shrunk for
# this many steps (counted in steps, not records). On the verify instance it
# last shrinks at step 6,771 and then stays put through step 31,193.
MARCH_FLOOR_STEPS = 2000
# solve_ergodic's budget when max_iter is not given: Newton iterations, policy
# sweeps, march steps
METHOD_BUDGETS = {
    "newton_augmented": 300,
    "policy_iteration": 100,
    "relative_value_iteration": 2_000_000,
}
DISCOUNTED_MAX_ITER = 200  # Newton iterations of one discounted solve
DIRICHLET_MAX_ITER = 80  # Newton iterations of one Dirichlet solve
ND_LEAF = 16  # nested dissection stops at blocks of at most this many nodes
ND_LAYOUTS = 8  # _nd_matrix keeps the layouts of this many (grid, unknowns, anchor) keys
_LAYOUTS: dict = {}  # oldest first
# Reuse of the last LU (_nd_step, m >= 2). 1-d steps never reach _nd_step:
# _tridiagonal_step factors afresh at every step.
REUSE_CONTRACTION = 0.1  # try the held LU only after a step that cut |F|_2 tenfold
REUSE_ITERATIONS = 10  # GMRES iterations on a held LU before it is dropped
REUSE_BACKWARD_ERROR = 1e-10  # a fresh diagonal-pivot LU reaches 4e-16 to 5e-11 here
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
    """Iteration failed to reach its tolerance within the budget."""

    def __init__(self, message: str, trace: "ConvergenceTrace | None" = None):
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
    # Newton and policy steps solved by a fresh factor and by the held LU (_nd_step),
    # and the coarser grids solved first, coarsest first (_coarse_start); written
    # to meta.json, not to trace.jsonl
    factorizations: int = 0
    reused_steps: int = 0
    coarse_levels: list[dict] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [dump_json(asdict(r)) for r in self.records]
        lines.append(dump_json({"event": "done", "termination": self.termination}))
        return "\n".join(lines) + "\n"


@dataclass
class ErgodicSolution:
    lam: float
    phi: Field
    residual_sup: float
    trace: ConvergenceTrace
    method: str
    spec: ProblemSpec
    tol: float = 0.0


@dataclass
class ParabolicMarch:
    lambda_hat: float
    rate_stats: list[tuple[float, float, float, float]]  # (t, min, mean, max)
    profile: Field  # u(., T) - u(anchor, T)
    n_steps: int
    trace: ConvergenceTrace
    # running max of min rate and min of max rate: lambda_lo <= lambda_h <= lambda_hi
    lambda_lo: float
    lambda_hi: float
    settled: Optional[ErgodicSolution] = None  # relative value iteration's pair


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _linear_step(
    op: DiscreteOperator, at: Callable, keep: np.ndarray, ones_at: Optional[int] = None
):
    """step(x, shift, rhs, tol) of a Newton-type route: _tridiagonal_step in 1-d, else _nd_step.

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
    """1-d twin of _nd_step: the same step(x, shift, rhs, tol) and counts, by ?gtsv.

    In 1-d keep is a run of consecutive nodes, so J is tridiagonal; its three
    diagonals are read from op._diagonals(*at(x, shift)) and factored afresh
    at every step (a factorization; there is no held LU). Node ones_at (an
    interior unknown: the anchor is the middle node) has a column of ones,
    which is eliminated by one Schur complement: with a its row and r the
    others, J_rr [x1 x2] = [b_r 1], then d_a = (b_a - J_ar x1) / (1 - J_ar x2)
    and d_r = x1 - d_a x2. The pivot 1 - J_ar x2 >= 1 is the one the ND factor
    takes last (_lu_solve).
    """
    counts = {"factorizations": 0, "reused_steps": 0}
    first, last = keep[0], keep[-1]
    a = None if ones_at is None else ones_at - first
    if a is not None and not 0 < a < keep.size - 1:
        raise ValueError(f"the column of ones must belong to an interior unknown, got {ones_at}")

    def step(x: np.ndarray, shift: float, rhs: np.ndarray, tol: float = 0.0) -> np.ndarray:
        diagonals = op._diagonals(*at(x, shift))
        dl, du = diagonals[-1][first:last], diagonals[1][first:last]
        d = diagonals[0][first:last + 1]
        counts["factorizations"] += 1
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

    step.counts = counts
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
    """step(x, shift, rhs, tol) = J^(-1) rhs, J the rows and columns keep of op's Jacobian.

    J is op.jacobian(*at(x, shift)), and keep is sorted. J is written in
    _nd_order, node ones_at's column replaced by ones and last (_nd_matrix).
    The step holds every fresh LU. After a step that cut |rhs|_2 by
    REUSE_CONTRACTION or more, the next one first tries the held LU
    (_reused_solve) and factors J afresh by _lu_solve only if that solve is
    not as good as a direct one; only one LU is held at any time.
    step.counts holds the number of each kind of step.
    """
    held = None
    last_norm = np.inf
    counts = {"factorizations": 0, "reused_steps": 0}

    def step(x: np.ndarray, shift: float, rhs: np.ndarray, tol: float = 0.0) -> np.ndarray:
        nonlocal held, last_norm
        a, pick, back = _nd_matrix(op.jacobian(*at(x, shift)), op.spec.grid.shape, keep, ones_at)
        b = rhs[pick]
        norm = np.linalg.norm(b)
        contracted, last_norm = norm <= REUSE_CONTRACTION * last_norm, norm
        if held is not None and contracted:
            d = _reused_solve(a, held, b, tol)
            if d is not None:
                counts["reused_steps"] += 1
                return d[back]
        held = None  # dropped before the fresh factor is built
        d, held = _lu_solve(a, b)
        counts["factorizations"] += 1
        return d[back]

    step.counts = counts  # step never names itself: no reference cycle keeps held alive
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


def _reused_solve(a: sp.csc_matrix, lu, b: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """a^(-1) b by GMRES on a lu^(-1) from 0, or None if it is not as good as a direct solve.

    Right preconditioning minimizes the true residual |a d - b|_2 over the
    Krylov space; at most REUSE_ITERATIONS iterations. An iterate d is
    accepted when its componentwise (Oettli-Prager) backward error
    max_i |a d - b|_i / (|a| |d| + |b|)_i is at most REUSE_BACKWARD_ERROR, or
    when |a d - b|_inf <= tol/4. A small 2-norm residual alone is not enough:
    accepted on that, policy iteration diverged from a cold start.
    """
    v = np.empty((REUSE_ITERATIONS + 1, b.size))  # orthonormal Krylov basis
    z = np.empty((REUSE_ITERATIONS, b.size))  # lu^(-1) v
    hess = np.zeros((REUSE_ITERATIONS + 1, REUSE_ITERATIONS))
    e1 = np.zeros(REUSE_ITERATIONS + 1)
    e1[0] = np.linalg.norm(b)  # nonzero: _damped_newton stops at |F|_inf <= tol first
    v[0] = b / e1[0]
    scale = sp.csc_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)  # |a|
    for k in range(REUSE_ITERATIONS):
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
        if componentwise or r.max() <= 0.25 * tol:
            return d
        if not hess[k + 1, k] > 0.0:  # breakdown: the Krylov space holds no better d
            return None
        v[k + 1] = w / hess[k + 1, k]
    return None


def _damped_newton(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    step_fn: Callable[[np.ndarray, float, np.ndarray, float], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    lam_of: Optional[Callable[[np.ndarray], float]] = None,
    *,
    tau: Optional[float] = None,
    stall_tau: Optional[float] = None,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Newton iteration globalized by a line search or in pseudo-time.

    Without tau each step is backtracked until the Euclidean residual norm
    decreases (the Newton direction is always a descent direction for it,
    unlike for the sup norm, which jams at upwind kinks); convergence is still
    declared on the sup norm. A line-search step is taken only if it cuts
    |F|_2 by a relative 1e-4 s >= 1e-4 BACKTRACK_FLOOR, so the line search
    needs no stall window.

    step_fn(x, shift, -F, tol) solves with the Jacobian at x plus shift (0
    without tau) on the diagonal of its residual rows (_linear_step): by a
    fresh factor, or, for m >= 2, by the last LU when that solve is as good as
    a direct one or leaves a linear residual below tol/4, which cannot hold up
    convergence. With a pseudo-time step tau every step solves
    (J + I/tau) d = -F and is taken whole: pseudo-transient continuation,
    with tau grown by switched evolution relaxation,
    tau <- tau |F_old|_2 / |F_new|_2 (Kelley & Keyes 1998). tau = inf is
    the plain full Newton step, which on the ergodic system is Howard's
    policy iteration. Under PTC a non-finite step raises SolverError with
    termination "non_finite_step".

    The line search stalls when its step is not finite or no fraction down to
    BACKTRACK_FLOOR helps; that iteration is recorded with step size 0. With
    stall_tau the same loop then goes on in pseudo-time from tau = stall_tau,
    within the same max_iter budget; without it the stall raises SolverError
    with termination "stagnated". Every failure is a SolverError whose trace's
    termination says why.
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
    records = [TraceRecord(0, r, lam, None)]
    for it in range(1, max_iter + 1):
        if r <= tol:
            return x, records
        # a singular J gives a NaN step, which the checks below handle (a
        # line-search stall)
        delta = step_fn(x, 1.0 / tau if ptc else 0.0, -f, tol)
        s = 1.0
        stalled = not ptc and not np.all(np.isfinite(delta))
        if not stalled:
            xt = x + delta
            ft, mt = trial(xt)
            if ptc and not np.isfinite(mt):
                raise SolverError(
                    f"non-finite newton step at iteration {it}",
                    ConvergenceTrace(records=records, termination="non_finite_step"),
                )
            while not ptc and not (np.isfinite(mt) and mt < merit * (1.0 - 1e-4 * s)):
                s *= 0.5
                if s < BACKTRACK_FLOOR:
                    stalled = True
                    break
                xt = x + s * delta
                ft, mt = trial(xt)
        if stalled:
            records.append(TraceRecord(it, r, lam, 0.0))
            if stall_tau is None:
                raise SolverError(
                    f"newton stagnated at iteration {it} (residual {r:.3e})",
                    ConvergenceTrace(records=records, termination="stagnated"),
                )
            ptc, tau = True, stall_tau  # carry on from x in pseudo-time
            continue
        x, f, merit, previous = xt, ft, mt, merit
        r = _sup(f)
        lam = lam_of(x) if lam_of else None
        # the pseudo-time step, or the line-search fraction (1 for a full step)
        records.append(TraceRecord(it, r, lam, tau if ptc and tau < np.inf else s))
        if ptc and merit > 0.0:
            tau *= previous / merit
    if r <= tol:
        return x, records
    raise SolverError(
        f"newton did not reach tolerance {tol:g} within {max_iter} iterations (residual {r:.3e})",
        ConvergenceTrace(records=records, termination="max_iterations"),
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

    Both stencil arms exist at interior nodes, so the Dirichlet operator is the
    state-constraint operator restricted to the interior rows; the Jacobian is
    restricted to the interior rows and columns (boundary values are data, not
    unknowns). A failed damped Newton iteration raises SolverError; a stall
    ("stagnated") or an exhausted budget far from tolerance is consistent with
    lambda above the critical value. This is a diagnostic, not a certificate
    of nonexistence.
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
    x, _ = _damped_newton(residual_fn, step, full[interior], tol, DIRICHLET_MAX_ITER)
    return Field(grid, assemble(x))


# -- discounted route ----------------------------------------------------------


def solve_discounted(
    spec: ProblemSpec,
    epsilon: float,
    initial_guess: Optional[Field] = None,
    tol: float = 1e-8,
) -> Field:
    """Solve -1/2 Lap phi + H(D phi) + eps*phi = f under the state-constraint policy.

    Returns the un-normalized field; eps*phi(anchor) estimates the critical value.
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
    x, _ = _damped_newton(residual_fn, step, x0, tol, DISCOUNTED_MAX_ITER)
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


# -- state-constraint ergodic routes --------------------------------------------


def _finalize(
    op: DiscreteOperator,
    values: np.ndarray,
    lam: float,
    records: list[TraceRecord],
    method: str,
    tol: float,
) -> ErgodicSolution:
    spec = op.spec
    vals = values - values[spec.anchor_index]
    res = _sup(op.residual_values(vals, lam))
    records = records[:-1] + [replace(records[-1], residual_sup=res)]
    trace = ConvergenceTrace(records=records, termination="converged")
    if not np.all(np.isfinite(vals)):
        raise SolverError("solution contains non-finite values", trace)
    return ErgodicSolution(
        lam=float(lam),
        phi=Field(spec.grid, vals),
        residual_sup=res,
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
    solves. A SolverError carries the same counts and levels on its trace.
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
    try:
        z, records = _damped_newton(
            lambda z: op.residual_values(*split(z)).ravel(), step_fn, z0, 0.5 * tol, max_iter,
            lambda z: split(z)[1], tau=np.inf if method == "policy_iteration" else None,
            stall_tau=PTC_TAU0,
        )
        sol = _finalize(op, *split(z), records, method, tol)
    except SolverError as exc:
        exc.trace = replace(exc.trace, **step_fn.counts, coarse_levels=levels)
        raise
    return replace(sol, trace=replace(sol.trace, **step_fn.counts, coarse_levels=levels))


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
    except SolverError as exc:  # _solve_square put its counts and levels on exc.trace
        return guess, exc.trace.coarse_levels + [_level(coarse, exc.trace, error=str(exc))]
    return _prolong(sol.phi.values), sol.trace.coarse_levels + [_level(coarse, sol.trace)]


def _level(spec: ProblemSpec, trace: ConvergenceTrace, **extra) -> dict:
    """One coarse_levels entry: the grid and how its solve went."""
    return {
        "n_per_axis": spec.grid.n_per_axis,
        "h": spec.h,
        "iterations": trace.records[-1].iteration,
        "factorizations": trace.factorizations,
        "reused_steps": trace.reused_steps,
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
    """State-constraint ergodic solve on the box; phi(anchor) = 0 exactly.

    All three methods converge to the same discrete fixed point; they differ
    in robustness and cost. ``newton_augmented`` and ``policy_iteration`` share
    the square system and the Newton driver and differ only in globalization
    (backtracking, and on a stall pseudo-transient continuation, vs full
    steps); relative value iteration is ``parabolic_march`` with T = inf, read
    off at the first step whose rate spread is <= tol/2. The returned
    residual_sup is the sup norm of the operator applied to the normalized solution.
    """
    if not np.isfinite(spec.rhs.min_value()):
        raise ValueError("right-hand side must be bounded from below on the box")
    if method not in METHOD_BUDGETS:
        raise ValueError(f"unknown method {method!r}")
    budget = METHOD_BUDGETS[method] if max_iter is None else max_iter
    if method == "relative_value_iteration":
        return parabolic_march(spec, initial_guess, np.inf, tol, budget).settled
    return _solve_square(spec, initial_guess, tol, budget, method)


def parabolic_march(
    spec: ProblemSpec,
    u0: Optional[Field] = None,
    T: float = 50.0,
    tol: float = 1e-8,
    max_steps: int = METHOD_BUDGETS["relative_value_iteration"],
) -> ParabolicMarch:
    """IMEX monotone march of u_t = 1/2 Lap u - H(Du) + f to time T.

    The rate is rate = -G_h[u], the right-hand side at u. The Laplacian is
    taken backward in time and H forward, so u advances by
    (I/dt - 1/2 Lap_h)^(-1) rate. dt is the largest rung (0.9 h/m) 2^(-k/2)
    with dt <= 0.9 h / (m max(1, max|p|)^(theta-1)), cut at T: the explicit
    part u + dt (f - H) is then monotone, and I - dt/2 Lap_h is an M-matrix,
    so the step is. Each rung's matrix is factored once per march
    (_rung_solver), and the work arrays are allocated once (_slope_kernel):
    every step writes into them and updates u in place. The step takes
    u = phi + lambda t to phi + lambda (t + dt) exactly when
    G_h[phi] + lambda = 0, whatever dt is, because the implicit Laplacian
    annihilates constants.

    Returns per-sample (t, min, mean, max) of the rate; the mean at the final
    step is the long-time estimate of the critical value. Since the step is
    monotone, discrete comparison gives min rate <= lambda_h <= max rate at
    every step; ``lambda_lo`` and ``lambda_hi`` are the running max of the
    minima and min of the maxima, a certified enclosure of lambda_h up to
    rounding. The march stops at the first of: the horizon T (termination
    "horizon_reached"); the settle step when T = inf ("converged"); and
    MARCH_FLOOR_STEPS steps after the enclosure last shrank ("floor_reached"),
    since from there on it only repeats its rounding floor.
    ``settled`` is relative value iteration's pair, read off at the first step
    whose rate spread (a bound on that pair's residual) is <= tol/2, or
    None if the horizon comes first. Reaching the floor before settling means
    tol/2 lies below the floor: SolverError with termination "rounding_floor".
    A non-finite or runaway rate raises SolverError with termination
    "blow_up": dt follows the gradient at every step, so a blow-up points at
    the data (right-hand side or initial field), not at the step size. More
    than max_steps steps raise SolverError.
    """
    op = DiscreteOperator(spec)
    f, theta, h, m = op._f, spec.theta, spec.h, spec.m
    u = u0.values.astype(float).copy() if u0 is not None else np.zeros(spec.grid.shape)
    # held for the whole march: every step writes into them and updates u in place
    slopes = _slope_kernel(u, h)
    ham, rate = np.empty(u.shape), np.empty(u.shape)
    top = 0.9 * h / m
    rungs = {}  # dt -> solver of I/dt - 1/2 Lap_h
    stats: list[tuple[float, float, float, float]] = []
    records: list[TraceRecord] = []
    settled: Optional[ErgodicSolution] = None
    cert_lo, cert_hi = -np.inf, np.inf  # intersection of the per-step enclosures
    last_shrink = 0
    t = 0.0
    step = 0
    while True:
        lap, mag = slopes()
        np.multiply(lap, 0.5, out=rate)  # rate = 1/2 lap - |p|^theta / theta + f
        np.copyto(ham, mag)
        ham **= theta  # in place, as mag**theta computes it, scalar fast paths included
        ham /= theta
        rate -= ham
        rate += f
        lo, hi = float(rate.min()), float(rate.max())
        if not (lo >= -1e14 and hi <= 1e14):  # also catches nan
            raise SolverError(
                "march blew up; check the data",
                ConvergenceTrace(records=records, termination="blow_up"),
            )
        if lo > cert_lo or hi < cert_hi:
            cert_lo, cert_hi = max(cert_lo, lo), min(cert_hi, hi)
            last_shrink = step
        bound = top / max(1.0, float(mag.max())) ** (theta - 1.0)
        k = 0
        while top * 2.0 ** (-0.5 * k) > bound:
            k += 1
        dt = min(top * 2.0 ** (-0.5 * k), T - t)
        if settled is None and hi - lo <= 0.5 * tol:
            lam = float(rate.mean())
            settled = _finalize(
                op, u, lam, records + [TraceRecord(step, hi - lo, lam, None)],
                "relative_value_iteration", tol,
            )
        floor = step - last_shrink >= MARCH_FLOOR_STEPS
        stop = dt <= 0.0 or (settled is not None and T == np.inf) or floor
        if stop or step % MARCH_RECORD_EVERY == 0:
            mean = float(rate.mean())
            stats.append((t, lo, mean, hi))
            records.append(TraceRecord(step, hi - lo, mean, None if stop else dt))
        if floor and settled is None:
            raise SolverError(
                f"march reached its rounding floor at step {step} before its rate spread "
                f"{hi - lo:.3e} fell to tol/2 = {0.5 * tol:g} (certified width "
                f"{cert_hi - cert_lo:.3e})",
                ConvergenceTrace(records=records, termination="rounding_floor"),
            )
        if stop:
            break
        if step >= max_steps:
            raise SolverError(
                f"march did not stop within {max_steps} steps (t = {t:.6g}, horizon {T:g}, "
                f"rate spread {hi - lo:.3e} vs tol/2 = {0.5 * tol:g})",
                ConvergenceTrace(records=records, termination="max_iterations"),
            )
        if dt not in rungs:
            rungs[dt] = _rung_solver(op, dt)
        u += rungs[dt](rate.ravel()).reshape(u.shape)
        t += dt
        step += 1
    termination = "horizon_reached" if dt <= 0.0 else "floor_reached" if floor else "converged"
    profile = Field(spec.grid, u - u[spec.anchor_index])
    return ParabolicMarch(
        lambda_hat=mean, rate_stats=stats, profile=profile, n_steps=step,
        trace=ConvergenceTrace(records=records, termination=termination),
        lambda_lo=cert_lo, lambda_hi=cert_hi, settled=settled,
    )


def _rung_solver(op: DiscreteOperator, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """b -> a^(-1) b for a march rung's a = I/dt - 1/2 Lap_h, factored once.

    a is op's Jacobian at the zero field shifted by 1/dt, symmetric positive
    definite. In 1-d it is tridiagonal: L D L^T of its diagonals by ?pttrf,
    solved by ?pttrs. Otherwise a sparse LU in minimum degree order on
    A^T + A, which halves the 2-d fill of COLAMD.
    """
    zeros = np.zeros(op.spec.grid.shape)
    if op.spec.m > 1:
        return splu(op.jacobian(zeros, 1.0 / dt).tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    diagonals = op._diagonals(zeros, 1.0 / dt)
    d, e, _ = dpttrf(diagonals[0], diagonals[1])
    return lambda b: dpttrs(d, e, b)[0]


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
