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
                           bordered system with two globalizations (line search,
                           and on a stall pseudo-transient continuation, vs full
                           step), so their agreement is not independent evidence
* ``parabolic_march``      the one explicit monotone march of u_t = 1/2 Lap u - H(Du) + f;
                           u/t and the increments approach the critical value, and
                           relative value iteration is read off it (spread <= tol/2)
* ``estimate_lambda_star`` outer loop over expanding radii with a monotonicity
                           audit and an exponential extrapolation heuristic
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid
from scipy.ndimage import uniform_filter
from scipy.optimize import curve_fit
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .grid import Field, Grid, dump_json
from .problem import ProblemSpec
from .scheme import DiscreteOperator, laplacian_values, upwind_state

__all__ = [
    "SolverError",
    "NoSolutionSuspected",
    "TimeStepError",
    "TraceRecord",
    "ConvergenceTrace",
    "ErgodicSolution",
    "ParabolicMarch",
    "LambdaStarEstimate",
    "solve_dirichlet",
    "solve_discounted",
    "solve_ergodic",
    "parabolic_march",
    "estimate_lambda_star",
    "discounted_lambda_path",
    "eikonal_initial_guess",
    "random_smooth_field",
    "scheme_error_estimate",
]

BACKTRACK_FLOOR = 2.0**-20
STALL_WINDOW = 20
# First pseudo-time step of the continuation that takes over when the line search
# stalls. From 60 random fields on the 1-d closed forms (h=0.01, theta 1.5/2/3),
# 1e-3 leaves 7 solves short of tolerance within the iteration budget; 1e-2 and
# 1e-1 converge on every field, and 1e-2 needs fewer iterations than 1e-1 on the
# 2-d theta=3 instance; 1 takes up to 246 iterations and twice the wall time.
PTC_TAU0 = 1e-2
MARCH_RECORD_EVERY = 200  # march steps between trace records and rate statistics
# solve_ergodic's budget when max_iter is not given: Newton iterations, policy
# sweeps, march steps
METHOD_BUDGETS = {
    "newton_augmented": 300,
    "policy_iteration": 100,
    "relative_value_iteration": 2_000_000,
}


class SolverError(RuntimeError):
    """Iteration failed to reach its tolerance within the budget."""

    def __init__(self, message: str, trace: "ConvergenceTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class NoSolutionSuspected(SolverError):
    """Newton stagnated; consistent with lambda above the critical value.

    This is a diagnostic, not a proof of nonexistence.
    """


class TimeStepError(SolverError):
    """Explicit march blew up.

    The march sets its own CFL time step at every step, so a blow-up points at
    the data (right-hand side or initial field), not at the step size.
    """


@dataclass
class TraceRecord:
    iteration: int
    residual_sup: float
    lambda_estimate: Optional[float] = None
    # Newton line-search fraction (0: step rejected), pseudo-time step tau, or march dt
    step_size: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "residual_sup": self.residual_sup,
            "lambda_estimate": self.lambda_estimate,
            "step_size": self.step_size,
        }


@dataclass
class ConvergenceTrace:
    records: list[TraceRecord] = field(default_factory=list)
    termination: str = ""

    def to_jsonl(self) -> str:
        lines = [dump_json(r.to_dict()) for r in self.records]
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
    settled: Optional[ErgodicSolution] = None  # relative value iteration's pair


@dataclass
class LambdaStarEstimate:
    lambda_star: float
    lambda_final: float
    rows: list[dict]
    monotone: bool
    slack: float
    fit_params: Optional[tuple[float, float, float]]


class _Stagnation(Exception):
    def __init__(self, records, x):
        self.records = records
        self.x = x


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _damped_newton(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray, float], sp.spmatrix],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    lam_of: Optional[Callable[[np.ndarray], float]] = None,
    *,
    tau: Optional[float] = None,
    records: Optional[list[TraceRecord]] = None,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Newton iteration globalized by a line search or in pseudo-time.

    Without tau each step is backtracked until the Euclidean residual norm
    decreases (the Newton direction is always a descent direction for it,
    unlike for the sup norm, which jams at upwind kinks); convergence is still
    declared on the sup norm. When no damped step helps, _Stagnation carries
    the trace and the iterate out; an iteration whose step was rejected is
    recorded with step size 0.

    jacobian_fn(x, shift) is the Jacobian at x with shift added to the
    diagonal of its residual rows; without tau the shift is 0. With a
    pseudo-time step tau every step solves (J + I/tau) d = -F and is taken
    whole: pseudo-transient continuation, with tau grown by switched evolution
    relaxation, tau <- tau |F_old|_2 / |F_new|_2 (Kelley & Keyes 1998).
    tau = inf is the plain full Newton step, which on the bordered ergodic
    system is Howard's policy iteration. There is no stall window; a
    non-finite step raises SolverError.

    Given the records of an earlier run, iteration numbers and the max_iter
    budget carry on from its last record.
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
    records = list(records) if records is not None else [TraceRecord(0, r, lam, None)]
    best = merit
    stall = 0
    for it in range(records[-1].iteration + 1, max_iter + 1):
        if r <= tol:
            return x, records
        jac = jacobian_fn(x, 1.0 / tau if ptc else 0.0)
        with warnings.catch_warnings():
            # a singular J gives a NaN step, which the checks below handle
            # (a line-search stall hands over to PTC). catch_warnings is not
            # thread-safe (verify --workers): a race can leak this ignore
            # filter, which hides warnings but never changes a number
            warnings.simplefilter("ignore", MatrixRankWarning)
            delta = spsolve(jac.tocsc(), -f)
        if not ptc and not np.all(np.isfinite(delta)):
            raise _Stagnation(records + [TraceRecord(it, r, lam, 0.0)], x)
        s = 1.0
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
                raise _Stagnation(records + [TraceRecord(it, r, lam, 0.0)], x)
            xt = x + s * delta
            ft, mt = trial(xt)
        x, f, merit, previous = xt, ft, mt, merit
        r = _sup(f)
        lam = lam_of(x) if lam_of else None
        # the pseudo-time step, or the line-search fraction (1 for a full step)
        records.append(TraceRecord(it, r, lam, tau if ptc and tau < np.inf else s))
        if ptc:
            if merit > 0.0:
                tau *= previous / merit
            continue
        if merit >= best * (1.0 - 1e-12):
            stall += 1
            if stall >= STALL_WINDOW:
                raise _Stagnation(records, x)
        else:
            best = merit
            stall = 0
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
    max_iter: int = 150,
) -> Field:
    """Solve G_h[phi] + lambda = 0 at interior nodes with phi = data on the boundary.

    Both stencil arms exist at interior nodes, so the Dirichlet operator is the
    state-constraint operator restricted to the interior rows; the Jacobian is
    restricted to the interior rows and columns (boundary values are data, not
    unknowns). Stagnation of the damped Newton iteration raises
    NoSolutionSuspected, consistent with lambda exceeding the critical value.
    """
    grid = spec.grid
    op = DiscreteOperator(spec)
    interior = grid.interior_mask()
    unknowns = np.flatnonzero(interior)

    full = np.array(data.values, dtype=float)
    if initial_guess is not None:
        full[interior] = initial_guess.values[interior]
    else:
        full[interior] = 0.0

    def assemble(x: np.ndarray) -> np.ndarray:
        vals = full.copy()
        vals[interior] = x
        return vals

    def residual_fn(x: np.ndarray) -> np.ndarray:
        return op.residual_values(assemble(x), lam)[interior]

    def jacobian_fn(x: np.ndarray, shift: float) -> sp.spmatrix:
        return op.jacobian(assemble(x), shift)[unknowns, :][:, unknowns]

    try:
        x, records = _damped_newton(residual_fn, jacobian_fn, full[interior], tol, max_iter)
    except _Stagnation as stag:
        trace = ConvergenceTrace(records=stag.records, termination="stagnated")
        raise NoSolutionSuspected(
            f"newton stagnated at lambda={lam:g}; no solution suspected", trace
        ) from None
    except SolverError as exc:
        # budget exhausted while still far from tolerance: same diagnostic as
        # a stall, consistent with lambda above the critical value
        residual = exc.trace.records[-1].residual_sup if exc.trace else np.inf
        if residual > 1e3 * tol:
            raise NoSolutionSuspected(
                f"newton made no useful progress at lambda={lam:g}; no solution suspected",
                exc.trace,
            ) from None
        raise
    return Field(grid, assemble(x))


# -- discounted route ----------------------------------------------------------


def solve_discounted(
    spec: ProblemSpec,
    epsilon: float,
    initial_guess: Optional[Field] = None,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> Field:
    """Solve -1/2 Lap phi + H(D phi) + eps*phi = f under the state-constraint policy.

    Returns the un-normalized field; eps*phi(anchor) estimates the critical value.
    """
    if not epsilon > 0:
        raise ValueError(f"discount rate must be positive, got {epsilon}")
    grid = spec.grid
    op = DiscreteOperator(spec)
    n = grid.n_nodes

    def residual_fn(x: np.ndarray) -> np.ndarray:
        vals = x.reshape(grid.shape)
        return (op.residual_values(vals, 0.0) + epsilon * vals).ravel()

    def jacobian_fn(x: np.ndarray, shift: float) -> sp.spmatrix:
        return op.jacobian(x.reshape(grid.shape), epsilon + shift)

    x0 = initial_guess.values.ravel() if initial_guess is not None else np.zeros(n)
    try:
        x, records = _damped_newton(residual_fn, jacobian_fn, x0, tol, max_iter)
    except _Stagnation as stag:
        trace = ConvergenceTrace(records=stag.records, termination="stagnated")
        raise SolverError(f"discounted solve stagnated at eps={epsilon:g}", trace) from None
    return Field(grid, x.reshape(grid.shape))


def discounted_lambda_path(
    spec: ProblemSpec,
    eps_list: list[float],
    tol: float = 1e-8,
) -> tuple[list[dict], float]:
    """eps*phi_eps(anchor) along a discount schedule plus the linear extrapolation to eps=0.

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
        lam_eps = eps * phi.at(anchor)
        res = _sup(op.residual_values(phi.values, 0.0) + eps * phi.values)
        rows.append({"epsilon": eps, "lambda": lam_eps, "residual_sup": res})
        guess, lam_prev, eps_prev = phi, lam_eps, eps
    eps_arr = np.array([r["epsilon"] for r in rows])
    lam_arr = np.array([r["lambda"] for r in rows])
    if len(rows) >= 2:
        slope, intercept = np.polyfit(eps_arr, lam_arr, 1)
        extrapolated = float(intercept)
    else:
        extrapolated = float(lam_arr[-1])
    return rows, extrapolated


# -- state-constraint ergodic routes --------------------------------------------


def _finalize(
    spec: ProblemSpec,
    values: np.ndarray,
    lam: float,
    records: list[TraceRecord],
    method: str,
    tol: float,
    termination: str = "converged",
) -> ErgodicSolution:
    grid = spec.grid
    anchor = spec.anchor_index
    vals = values - values[anchor]
    op = DiscreteOperator(spec)
    res = _sup(op.residual_values(vals, lam))
    records = records[:-1] + [replace(records[-1], residual_sup=res)]
    trace = ConvergenceTrace(records=records, termination=termination)
    phi = Field(grid, vals)
    if not phi.is_finite():
        raise SolverError("solution contains non-finite values", trace)
    return ErgodicSolution(
        lam=float(lam),
        phi=phi,
        residual_sup=res,
        trace=trace,
        method=method,
        spec=spec,
        tol=tol,
    )


def _bordered_system(spec: ProblemSpec):
    """Residual and Jacobian of {G_h[phi] + lambda = 0, phi(anchor) = 0} in N+1 unknowns.

    The ones column carries lambda and the anchor row removes the
    additive-constant rank deficiency; the Jacobian is assembled in CSC. The
    shift sits on the diagonal of the N PDE rows only, so the shifted matrix
    keeps the anchor row and stays nonsingular where J is singular.
    """
    grid = spec.grid
    op = DiscreteOperator(spec)
    n = grid.n_nodes
    anchor_flat = int(np.ravel_multi_index(spec.anchor_index, grid.shape))
    ones_col = sp.csr_matrix(np.ones((n, 1)))
    anchor_row = sp.csr_matrix(([1.0], ([0], [anchor_flat])), shape=(1, n))

    def residual_fn(x: np.ndarray) -> np.ndarray:
        pde = op.residual_values(x[:n].reshape(grid.shape), x[n]).ravel()
        return np.concatenate([pde, [x[anchor_flat]]])

    def jacobian_fn(x: np.ndarray, shift: float) -> sp.csc_matrix:
        jac = op.jacobian(x[:n].reshape(grid.shape), shift)
        return sp.bmat([[jac, ones_col], [anchor_row, None]], format="csc")

    return residual_fn, jacobian_fn


def _solve_bordered(
    spec: ProblemSpec, initial_guess: Optional[Field], tol: float, max_iter: int, method: str
) -> ErgodicSolution:
    """Newton or policy iteration on the bordered (N+1)-unknown system.

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
    """
    n = spec.grid.n_nodes
    residual_fn, jacobian_fn = _bordered_system(spec)
    x0 = np.zeros(n + 1)
    if initial_guess is not None:
        x0[:n] = initial_guess.values.ravel()

    run = partial(
        _damped_newton, residual_fn, jacobian_fn,
        tol=0.5 * tol, max_iter=max_iter, lam_of=lambda z: float(z[n]),
    )
    try:
        x, records = run(x0, tau=np.inf if method == "policy_iteration" else None)
    except _Stagnation as stag:
        x, records = run(stag.x, tau=PTC_TAU0, records=stag.records)
    return _finalize(spec, x[:n].reshape(spec.grid.shape), float(x[n]), records, method, tol)


def _march(spec: ProblemSpec, u: np.ndarray, records: list[TraceRecord], horizon: float = np.inf):
    """Explicit monotone march of u_t = 1/2 Lap u - H(Du) + f, one step per item.

    Yields (step, t, u, rate, dt): rate is the right-hand side at u and dt the
    time step 0.9 / (m/h^2 + m max|p|^(theta-1)/h), cut at the horizon, which
    keeps the update monotone; u then advances by dt * rate. The caller stops
    the march. A non-finite or runaway rate raises TimeStepError with records.
    """
    f = spec.f_field().values
    theta, h, m = spec.theta, spec.h, spec.m
    t = 0.0
    step = 0
    while True:
        state = upwind_state(u, h)
        rate = 0.5 * laplacian_values(u, h) - state.mag**theta / theta + f
        if not float(np.max(np.abs(rate))) <= 1e14:  # also catches nan
            raise TimeStepError(
                "explicit march blew up; check the data",
                ConvergenceTrace(records=records, termination="blow_up"),
            )
        maxp = float(np.max(state.mag))
        lip = maxp ** (theta - 1.0) if maxp > 0 else 0.0
        dt = min(0.9 / (m / h**2 + lip * m / h), horizon - t)
        yield step, t, u, rate, dt
        u = u + dt * rate
        t += dt
        step += 1


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
    the bordered system and the Newton driver and differ only in globalization
    (backtracking, and on a stall pseudo-transient continuation, vs full
    steps); relative value iteration is ``parabolic_march`` with T = inf, read
    off at the first step whose increment spread is <= tol/2. The returned
    residual_sup is the sup norm of the operator applied to the normalized solution.
    """
    if not np.isfinite(spec.rhs.min_value()):
        raise ValueError("right-hand side must be bounded from below on the box")
    if method not in METHOD_BUDGETS:
        raise ValueError(f"unknown method {method!r}")
    budget = max_iter or METHOD_BUDGETS[method]
    if method == "relative_value_iteration":
        return parabolic_march(spec, initial_guess, np.inf, tol, budget).settled
    return _solve_bordered(spec, initial_guess, tol, budget, method)


def parabolic_march(
    spec: ProblemSpec,
    u0: Optional[Field] = None,
    T: float = 50.0,
    tol: float = 1e-8,
    max_steps: int = 2_000_000,
) -> ParabolicMarch:
    """Explicit monotone march of the evolution equation to time T.

    Returns per-sample (t, min, mean, max) of the discrete time derivative;
    the mean at the final step is the long-time estimate of the critical value.
    ``settled`` is relative value iteration's pair, read off at the first step
    whose increment spread (a bound on that pair's residual) is <= tol/2, or
    None if the horizon comes first; with T = inf the march stops there. More
    than max_steps steps raise SolverError.
    """
    u = u0.values.astype(float).copy() if u0 is not None else np.zeros(spec.grid.shape)
    stats: list[tuple[float, float, float, float]] = []
    records: list[TraceRecord] = []
    settled: Optional[ErgodicSolution] = None
    for step, t, u, rate, dt in _march(spec, u, records, horizon=T):
        if settled is None:
            spread = float(rate.max() - rate.min())
            if spread <= 0.5 * tol:
                lam = float(rate.mean())
                settled = _finalize(
                    spec, u, lam, records + [TraceRecord(step, spread, lam, None)],
                    "relative_value_iteration", tol,
                )
        stop = dt <= 0.0 or (settled is not None and T == np.inf)
        if stop or step % MARCH_RECORD_EVERY == 0:
            lo, mean, hi = float(rate.min()), float(rate.mean()), float(rate.max())
            stats.append((t, lo, mean, hi))
            records.append(TraceRecord(step, hi - lo, mean, None if stop else dt))
        if stop:
            break
        if step >= max_steps:
            raise SolverError(
                f"explicit march did not stop within {max_steps} steps (t = {t:.6g}, "
                f"horizon {T:g}, increment spread {spread:.3e} vs tol/2 = {0.5 * tol:g})",
                ConvergenceTrace(records=records, termination="max_iterations"),
            )
    trace = ConvergenceTrace(
        records=records, termination="horizon_reached" if dt <= 0.0 else "converged"
    )
    profile = Field(spec.grid, u - u[spec.anchor_index])
    return ParabolicMarch(
        lambda_hat=mean, rate_stats=stats, profile=profile, n_steps=step, trace=trace,
        settled=settled,
    )


# -- outer loop over radii -------------------------------------------------------


def scheme_error_estimate(spec: ProblemSpec, phi: Field) -> float:
    """Crude upwind-consistency estimate: (h/2) mean over the bulk of |p|^(theta-1) |Lap phi| / m."""
    state = upwind_state(phi.values, spec.h)
    lap = laplacian_values(phi.values, spec.h)
    bulk = spec.grid.radii() <= 0.5 * spec.radius
    if not np.any(bulk):
        bulk = np.ones_like(lap, dtype=bool)
    weight = state.mag ** (spec.theta - 1.0) * np.abs(lap)
    return float(0.5 * spec.h * np.mean(weight[bulk]) / spec.m)


def estimate_lambda_star(
    spec: ProblemSpec,
    radii: list[float],
    tol: float = 1e-8,
    slack: Optional[float] = None,
) -> LambdaStarEstimate:
    """Solve the state-constraint problem on expanding boxes and extrapolate.

    Each box keeps the spacing spec.h and starts from eikonal_initial_guess.
    The lambda_R table should be non-increasing in R up to twice the
    scheme-error estimate (or the provided slack); ``monotone`` is False on a
    violation, which flags a resolution problem. The extrapolation model
    lambda_R = L + a exp(-b R) is a heuristic; the raw table is always part of
    the result.
    """
    radii = list(radii)
    if len(radii) < 3:
        raise ValueError("need at least three radii")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")

    rows = []
    err_max = 0.0
    for r in radii:
        sub = replace(spec, radius=float(r))
        sol = solve_ergodic(sub, initial_guess=eikonal_initial_guess(sub), tol=tol)
        err = scheme_error_estimate(sub, sol.phi)
        err_max = max(err_max, err)
        rows.append(
            {
                "radius": float(r),
                "h": spec.h,
                "lambda": sol.lam,
                "residual_sup": sol.residual_sup,
                "scheme_error_estimate": err,
            }
        )

    slack_used = float(slack) if slack is not None else 2.0 * err_max
    lam = np.array([row["lambda"] for row in rows])
    monotone = bool(np.all(lam[1:] <= lam[:-1] + slack_used))

    fit_params = None
    lambda_star = float(lam[-1])
    spread = float(lam.max() - lam.min())
    if spread > 1e-10:
        try:
            r_arr = np.array(radii, dtype=float)

            def model(rr, L, a, bexp):
                return L + a * np.exp(-bexp * rr)

            p0 = (float(lam[-1]), float(lam[0] - lam[-1]), 0.5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # near-degenerate tables are expected
                popt, _ = curve_fit(
                    model,
                    r_arr,
                    lam,
                    p0=p0,
                    bounds=([-np.inf, -np.inf, 1e-6], [np.inf, np.inf, np.inf]),
                    maxfev=10000,
                )
            # reject extrapolations that leave the observed range by more than the spread
            if abs(popt[0] - lam[-1]) <= 2.0 * spread + slack_used:
                fit_params = (float(popt[0]), float(popt[1]), float(popt[2]))
                lambda_star = float(popt[0])
        except (RuntimeError, ValueError):  # no convergence, or infeasible inputs
            fit_params = None
            lambda_star = float(lam[-1])

    return LambdaStarEstimate(
        lambda_star=lambda_star,
        lambda_final=float(lam[-1]),
        rows=rows,
        monotone=monotone,
        slack=slack_used,
        fit_params=fit_params,
    )


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
    cum = np.concatenate([[0.0], cumulative_trapezoid(slope, rr)])
    vals = np.interp(grid.radii(), rr, cum)
    return Field(grid, vals)


def random_smooth_field(grid: Grid, seed: int, amplitude: float = 1.0) -> Field:
    """Smoothed seeded noise; used as an independent initial guess."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    for _ in range(3):
        v = uniform_filter(v, size=5, mode="nearest")
    scale = float(np.std(v))
    if scale > 0:
        v = v * (amplitude / scale)
    return Field(grid, v)
