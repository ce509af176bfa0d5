"""Executable property checks on the critical value and its solutions.

Every check has the form check_<name>(spec, solver_tol=1e-8, ...): it solves
spec's problem (or a family built from it) itself, compares a measured
quantity against a predicted value or inequality, and returns
(reports, tables): a list of VerdictReport and a map from a plot file name to
its rows, each row a dict from column name to value. CHECKS names the battery.
Each check's inputs are its defaults: the constants below, and boxes and
radii that are fractions of spec.radius (calibrated at radius 8). So a call
with spec and solver_tol alone is the check verify runs. During a verify
pass the checks share their ergodic solves: Newton from the eikonal guess
solves each problem once (_solve); only uniqueness and cross_method, which
test starts and routes, solve for themselves, and cross_method starts its
march at the shared Newton profile. Verdicts are numerical evidence at
stated tolerances, not certificates.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .grid import Field
from .problem import (
    PowerRhs,
    ProblemSpec,
    PurePowerRhs,
    RhsFunction,
    blend_rhs,
    make_power_rhs,
    make_pure_power_rhs,
)
from .scheme import DiscreteOperator, laplacian_and_slope
from .solvers import (
    ErgodicSolution,
    SolverError,
    discounted_lambda_path,
    eikonal_initial_guess,
    random_smooth_field,
    solve_dirichlet,
    solve_ergodic,
)

__all__ = [
    "CHECKS",
    "VerdictReport",
    "fit_growth_exponent",
    "check_growth_exponent",
    "check_scaling_law",
    "check_lambda_shape",
    "check_continuity_bound",
    "check_power_supersolution",
    "gradient_estimate_ratio",
    "check_gradient_estimate",
    "check_dirichlet_family",
    "check_lambda_star_characterization",
    "check_shift_equivariance",
    "check_uniqueness",
    "check_cross_method",
    "check_radius_monotonicity",
    "check_interior_minimum",
]

# The battery, in the order of the README's check names; verify runs check_<name> for each.
CHECKS = (
    "shift_equivariance",
    "scaling_law",
    "lambda_shape",
    "growth_exponent",
    "continuity_bound",
    "uniqueness",
    "cross_method",
    "radius_monotonicity",
    "lambda_star_characterization",
    "interior_minimum",
    "gradient_estimate",
    "power_supersolution",
    "dirichlet_family",
)

# Each property is checked at one fixed constant, so a library call and verify judge alike.
CHECK_TOL = 0.03  # verdict tolerance of the five lambda* comparisons; each docstring says how
GROWTH_WINDOW = (0.375, 0.6)  # fit annulus as fractions of the box radius
GROWTH_TOL_REL = 0.10
SHIFT_C = 1.0  # the constant added to f by check_shift_equivariance and lambda_shape's fallback
SCALING_C = 4.0  # dilation constant of check_scaling_law
F2 = (1.0, 4.0, 1.0)  # (coeff, alpha, shift) of the second rhs of the pair checks
T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)  # blend weights of check_lambda_shape
SUPERSOLUTION_Q = 1.01
DIRICHLET_DELTA = 2.0**-7  # distance of the two tested Dirichlet levels from lambda_R
INTERIOR_MINIMUM_TOL = 1e-6
DISCOUNT_EPS = (0.1, 0.05, 0.025)  # cross_method's discount schedule


@dataclass
class VerdictReport:
    """Outcome of one property check.

    ``passed`` is the rule the check's docstring states. For most checks it
    holds iff |measured - predicted| <= tolerance for equalities, or the stated
    inequality holds with slack >= -tolerance. gradient_estimate passes when its
    band is at most 2 (tolerance 0), dirichlet_family when every level solves,
    and lambda_star_characterization when the level below lambda_R solves and
    the one above does not (tolerance is their distance from lambda_R).
    """

    name: str
    passed: bool
    measured: dict[str, float]
    predicted: dict[str, float]
    tolerance: float
    provenance: str
    inputs: dict = field(default_factory=dict)


# What every check returns: its reports, and its plot tables by file name, each a list of rows.
CheckResult = tuple[list[VerdictReport], dict[str, list[dict]]]


# -- growth exponents -----------------------------------------------------------


def fit_growth_exponent(phi: Field, r0: float, r1: float) -> tuple[float, float]:
    """(gamma, gradient_slope): least-squares log-log slopes of phi and |D phi| over an annulus.

    phi is shifted so its minimum is 1 before taking logs; gradient_slope is
    compared to gamma - 1. The annulus should stay inside 0.6 R to avoid the
    reflecting (Neumann) boundary layer.
    """
    grid = phi.grid
    rr = grid.radii()
    vals = phi.values - phi.values.min() + 1.0
    mask = (rr >= r0) & (rr <= r1) & (rr > 0)
    if int(mask.sum()) < 10:
        raise ValueError(f"annulus [{r0}, {r1}] contains {int(mask.sum())} nodes; need >= 10")
    logs_r = np.log(rr[mask])
    slope_v = float(np.polyfit(logs_r, np.log(vals[mask]), 1)[0])
    mag = laplacian_and_slope(phi.values, grid.h)[1]
    gmask = mask & (mag > 0)
    if int(gmask.sum()) < 10:
        raise ValueError("gradient fit needs >= 10 annulus nodes with nonzero slope")
    slope_g = float(np.polyfit(np.log(rr[gmask]), np.log(mag[gmask]), 1)[0])
    return slope_v, slope_g


def check_growth_exponent(spec: ProblemSpec, solver_tol: float = 1e-8) -> CheckResult:
    """Measured growth exponent of phi against alpha/theta + 1.

    Reads theta, rhs.alpha and m of spec and uses f = |y|^alpha + 1
    (homogeneous plus shift); the solve is warm-started since only the
    solution profile matters here. The log-log fit needs the annulus far
    enough out that the min-to-1 shift stops biasing the slope, hence its own
    box, larger than spec's (coarser in 2-d to stay at desk scale). The table
    growth_loglog.csv holds phi - min phi + 1 against |y| at every node off
    the origin.
    """
    theta, alpha, m = spec.theta, spec.rhs.alpha, spec.m
    radius = 16.0 if m == 1 else 12.0
    h = 0.02 if m == 1 else 0.1
    rhs = make_pure_power_rhs(1.0, alpha, shift=1.0)
    box = ProblemSpec(theta=theta, m=m, rhs=rhs, radius=radius, h=h)
    sol = _solve(box, solver_tol)
    fitted, slope = fit_growth_exponent(sol.phi, *(w * radius for w in GROWTH_WINDOW))
    gamma = alpha / theta + 1.0
    passed = abs(fitted - gamma) <= GROWTH_TOL_REL * gamma
    report = VerdictReport(
        name="growth_exponent",
        passed=bool(passed),
        measured={"gamma_fit": fitted, "gradient_slope": slope},
        predicted={"gamma": gamma, "gradient_slope": gamma - 1.0},
        tolerance=GROWTH_TOL_REL * gamma,
        provenance="growth exponent gamma = alpha/theta + 1 of bounded-from-below solutions",
        inputs={"theta": theta, "alpha": alpha, "m": m, "radius": radius, "h": h},
    )
    rr = sol.phi.grid.radii().ravel()
    shifted = (sol.phi.values - sol.phi.values.min() + 1.0).ravel()
    mask = rr > 0
    rr, shifted = rr[mask].tolist(), shifted[mask].tolist()
    rows = [{"abs_y": r, "phi_shifted": v} for r, v in zip(rr, shifted)]
    return [report], {"growth_loglog.csv": rows}


# -- ergodic solves, shared within a verify pass ------------------------------------


# One verify pass's ergodic solves by (spec, tol); None outside a pass.
_pass_solves: ContextVar[Optional[dict]] = ContextVar("_pass_solves", default=None)


@contextmanager
def _verify_pass() -> Iterator[None]:
    """Share the checks' ergodic solves (_solve) until the pass ends or a check raises."""
    token = _pass_solves.set({})
    try:
        yield
    finally:
        _pass_solves.reset(token)


def _solve(spec: ProblemSpec, tol: float, **changes) -> ErgodicSolution:
    """Newton's pair on spec with the given fields replaced, from the eikonal guess.

    Inside a verify pass (_verify_pass) a problem solved before at tol returns
    the same solution object, so a check must not write into a solution it is given.
    """
    spec = replace(spec, **changes)
    memo = _pass_solves.get()
    if memo is not None and (spec, tol) in memo:
        return memo[spec, tol]
    sol = solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=tol)
    if memo is not None:
        memo[spec, tol] = sol
    return sol


# -- scaling and continuity -------------------------------------------------------


def check_scaling_law(
    spec: ProblemSpec, solver_tol: float = 1e-8, c: float = SCALING_C
) -> CheckResult:
    """Dilation law of the critical value under f -> c f, at the growth exponent of spec.rhs.

    For the homogeneous family f = |y|^alpha with alpha >= 1 the law is exact:
    lambda*(c |y|^alpha) = c^(theta*/(theta*+alpha)) lambda*(|y|^alpha). For
    alpha < 1 only the two-sided bound
    0 <= lambda*(c (1+|y|^2)^(alpha/2)) <= c + c^(theta*/(theta*+1)) lambda*(|y|)
    is available, and that is what gets checked instead. The tolerance is
    CHECK_TOL relative to the predicted ratio, or to max(1, upper bound).
    """
    if not c > 0:
        raise ValueError(f"scaling constant must be positive, got {c}")
    alpha = spec.rhs.alpha
    if alpha is None:
        raise ValueError("the scaling law needs a right-hand side with a growth exponent")
    theta_star = spec.theta_star
    if alpha >= 1.0:
        lam_base = _solve(spec, solver_tol, rhs=make_pure_power_rhs(1.0, alpha)).lam
        lam_scaled = _solve(spec, solver_tol, rhs=make_pure_power_rhs(c, alpha)).lam
        predicted_ratio = c ** (theta_star / (theta_star + alpha))
        measured_ratio = lam_scaled / lam_base
        passed = abs(measured_ratio - predicted_ratio) <= CHECK_TOL * predicted_ratio
        return [VerdictReport(
            name="scaling_law",
            passed=bool(passed),
            measured={
                "ratio": measured_ratio,
                "lambda_base": lam_base,
                "lambda_scaled": lam_scaled,
            },
            predicted={"ratio": predicted_ratio},
            tolerance=CHECK_TOL * predicted_ratio,
            provenance="lambda*(c|y|^a) = c^(theta*/(theta*+a)) lambda*(|y|^a) for a >= 1",
            inputs={"theta": spec.theta, "alpha": alpha, "c": c, "m": spec.m},
        )], {}
    # alpha < 1: inequality variant with the smooth regularization
    lam_smooth = _solve(spec, solver_tol, rhs=make_power_rhs(c, alpha)).lam
    lam_lin = _solve(spec, solver_tol, rhs=make_pure_power_rhs(1.0, 1.0)).lam
    upper = c + c ** (theta_star / (theta_star + 1.0)) * lam_lin
    slack = min(lam_smooth - 0.0, upper - lam_smooth)
    passed = slack >= -CHECK_TOL * max(1.0, upper)
    return [VerdictReport(
        name="scaling_law",
        passed=bool(passed),
        measured={"lambda_smooth": lam_smooth, "upper_bound": upper, "slack": slack},
        predicted={"lower": 0.0, "upper": upper},
        tolerance=CHECK_TOL * max(1.0, upper),
        provenance="0 <= lambda*(c(1+|y|^2)^(a/2)) <= c + c^(theta*/(theta*+1)) lambda*(|y|) for a < 1",
        inputs={"theta": spec.theta, "alpha": alpha, "c": c, "m": spec.m},
    )], {}


def check_lambda_shape(
    spec: ProblemSpec,
    solver_tol: float = 1e-8,
    f2: RhsFunction = make_pure_power_rhs(*F2),
    t_grid: tuple[float, ...] = T_GRID,
) -> CheckResult:
    """Monotonicity and concavity of f -> lambda*(f) on spec's box, each within CHECK_TOL.

    f1 is spec.rhs. Monotonicity needs an ordered pair. When f1 <= f2 (or
    f2 <= f1) on the box the given pair is used; otherwise the check falls back
    to the ordered pair (f1, f1 + SHIFT_C), and only then solves f1 + SHIFT_C,
    which shift_equivariance solves too (a verify pass shares it). The shift
    identity itself is shift_equivariance's verdict.
    """
    f1 = spec.rhs
    if not isinstance(f1, (PowerRhs, PurePowerRhs)):
        raise ValueError("the shift construction needs a power-family first operand")
    theta, m = spec.theta, spec.m
    grid_pts = spec.grid.points()
    lam1 = _solve(spec, solver_tol, rhs=f1).lam
    lam2 = _solve(spec, solver_tol, rhs=f2).lam
    reports: list[VerdictReport] = []

    # monotonicity on an ordered pair
    v1 = f1.evaluate(grid_pts)
    v2 = f2.evaluate(grid_pts)
    if np.all(v1 <= v2):
        lo_name, lo, hi_name, hi = "f1", lam1, "f2", lam2
        pair = "(f1, f2)"
    elif np.all(v2 <= v1):
        lo_name, lo, hi_name, hi = "f2", lam2, "f1", lam1
        pair = "(f2, f1)"
    else:
        # not pointwise ordered; use the shifted pair, which is
        hi_name = f"f1+{SHIFT_C:g}"
        hi = _solve(spec, solver_tol, rhs=replace(f1, shift=f1.shift + SHIFT_C)).lam
        lo_name, lo, pair = "f1", lam1, f"(f1, {hi_name})"
    reports.append(
        VerdictReport(
            name="monotonicity",
            passed=bool(lo <= hi + CHECK_TOL),
            measured={f"lambda({lo_name})": lo, f"lambda({hi_name})": hi},
            predicted={"ordering": 0.0},
            tolerance=CHECK_TOL,
            provenance="f_lo <= f_hi pointwise implies lambda*(f_lo) <= lambda*(f_hi)",
            inputs={"pair": pair, "theta": theta, "m": m},
        )
    )

    # concavity along the blend segment
    worst = np.inf
    measured = {}
    for t in t_grid:
        if t == 0.0:
            lam_t = lam2
        elif t == 1.0:
            lam_t = lam1
        else:
            lam_t = _solve(spec, solver_tol, rhs=blend_rhs(f1, f2, t)).lam
        slack = lam_t - (t * lam1 + (1.0 - t) * lam2)
        worst = min(worst, slack)
        measured[f"slack_t={t:g}"] = slack
    reports.append(
        VerdictReport(
            name="concavity",
            passed=bool(worst >= -CHECK_TOL),
            measured=measured,
            predicted={"min_slack": 0.0},
            tolerance=CHECK_TOL,
            provenance="lambda*(t f1 + (1-t) f2) >= t lambda*(f1) + (1-t) lambda*(f2)",
            inputs={"t_grid": list(t_grid), "theta": theta, "m": m},
        )
    )
    return reports, {}


def _radial_sup(ratio: Callable[[np.ndarray], np.ndarray], t: np.ndarray, v: np.ndarray) -> float:
    """sup of ratio over [t[0], t[-1]] from its samples v = ratio(t) on the sorted scan t, refined.

    The two cells around the sampled maximum are searched by repeated zoom:
    129 equispaced samples, then the two subcells around their maximum,
    twice (a 64^2-fold narrower bracket). At a smooth interior maximum the
    value's error is quadratic in the bracket, so it falls about 1.7e7-fold
    (for make_power_rhs(1.3, 3, 0.7) at alpha 3, from 2.7e-7 to 3.4e-14
    relative). The larger of the sampled and refined values is returned: a
    maximum at an end of the scan is its sample, bit for bit.
    """
    k = int(np.argmax(v))
    best = float(v[k])
    a, b = t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]
    for _ in range(2):
        s = np.linspace(a, b, 129)
        w = ratio(s)
        j = int(np.argmax(w))
        best = max(best, float(w[j]))
        a, b = s[max(j - 1, 0)], s[min(j + 1, s.size - 1)]
    return best


def _growth_constant(rhs: RhsFunction, alpha: float, m: int) -> Optional[float]:
    """Smallest f0 with f0^-1 (t^alpha + 1) <= f <= f0 (t^alpha + 1) on the scan range.

    Valid for the radial families; returns None when f is not strictly
    positive (the lower bound is then unattainable).
    """
    t = np.concatenate([np.linspace(0.0, 20.0, 8001), np.geomspace(20.0, 1e6, 1500)])
    fv = rhs.radial_value(t, m)
    if np.min(fv) <= 0:
        return None
    base = t**alpha + 1.0
    return max(
        _radial_sup(lambda s: rhs.radial_value(s, m) / (s**alpha + 1.0), t, fv / base),
        _radial_sup(lambda s: (s**alpha + 1.0) / rhs.radial_value(s, m), t, base / fv),
    )


def _rhs_gap(f1: RhsFunction, f2: RhsFunction, alpha: float, m: int) -> float:
    """sup |f1 - f2| / (1 + |y|^alpha) along a ray: dense radial scan, refined (_radial_sup)."""

    def ratio(s: np.ndarray) -> np.ndarray:
        return np.abs(f1.radial_value(s, m) - f2.radial_value(s, m)) / (1.0 + s**alpha)

    t = np.concatenate([np.linspace(0.0, 50.0, 20001), np.geomspace(50.0, 1e6, 2000)])
    return _radial_sup(ratio, t, ratio(t))


def check_continuity_bound(
    spec: ProblemSpec, solver_tol: float = 1e-8, f2: Optional[RhsFunction] = None
) -> CheckResult:
    """|lambda*(f2) - lambda*(f1)| <= f0 g/(1 + f0 g) max(lambda*_1, lambda*_2) + CHECK_TOL,

    where f1 is spec.rhs, g = sup |f1 - f2|/(1 + |y|^alpha) and f0 is the
    shared two-sided growth constant (the larger of the two measured
    constants). Both lambda* are solved on spec's box. Without f2, f2 is f1's
    own family and alpha at F2's coefficient and shift.
    """
    f1 = spec.rhs
    if f2 is None:
        f2 = replace(f1, coeff=F2[0], shift=F2[2])
    if f1.alpha is None or f2.alpha is None or f1.alpha != f2.alpha:
        raise ValueError("continuity bound needs matching growth exponents")
    if f1.alpha < 1:
        raise ValueError("continuity bound is stated for alpha >= 1")
    alpha = float(f1.alpha)
    f0s = [_growth_constant(f, alpha, spec.m) for f in (f1, f2)]
    if None in f0s:
        raise ValueError("continuity bound needs both right-hand sides positive")
    f0 = max(f0s)
    gap = _rhs_gap(f1, f2, alpha, spec.m)
    lam1 = _solve(spec, solver_tol, rhs=f1).lam
    lam2 = _solve(spec, solver_tol, rhs=f2).lam
    measured_gap = abs(lam2 - lam1)
    bound = (f0 * gap / (1.0 + f0 * gap)) * max(lam1, lam2)
    return [VerdictReport(
        name="continuity_bound",
        passed=bool(measured_gap <= bound + CHECK_TOL),
        measured={"lambda_gap": measured_gap, "rhs_gap": gap, "lambda_1": lam1, "lambda_2": lam2},
        predicted={"bound": bound, "f0": f0},
        tolerance=CHECK_TOL,
        provenance="|lambda*_2 - lambda*_1| <= f0 g/(1+f0 g) max(lambda*_1, lambda*_2)",
        inputs={"theta": spec.theta, "m": spec.m, "alpha": alpha},
    )], {}


# -- supersolution and gradient bounds ----------------------------------------------


def check_power_supersolution(
    spec: ProblemSpec,
    solver_tol: float = 1e-8,
    q: float = SUPERSOLUTION_Q,
    r_inner: Optional[float] = None,
) -> CheckResult:
    """phi^q as a strict supersolution outside a ball, subquadratic regime.

    Solves spec from the eikonal guess, then computes
    Q = -1/2 Lap(phi^q) + (1/theta)|D(phi^q)|^theta - (f - lambda) on the
    annulus [r_inner, 0.8 R] (r_inner defaults to 0.375 R) with phi shifted so
    phi >= 1 on the box, and reports the margin min Q. Positivity is only
    guaranteed beyond some radius, so the margin matters more than the bare flag.
    """
    if spec.theta >= 2.0:
        raise ValueError("the power-supersolution construction is for theta < 2")
    if not 1.0 < q <= 1.05:
        raise ValueError(f"exponent q must lie in (1, 1.05], got {q}")
    r_inner = 0.375 * spec.radius if r_inner is None else r_inner
    rr = spec.grid.radii()
    mask = (rr >= r_inner) & (rr <= 0.8 * spec.radius)
    if not np.any(mask):
        raise ValueError(f"annulus [{r_inner}, {0.8 * spec.radius}] contains no nodes")
    sol = _solve(spec, solver_tol)
    shifted = sol.phi.values - sol.phi.values.min() + 1.0
    q_res = DiscreteOperator(spec).residual_values(shifted**q, sol.lam)
    margin = float(np.min(q_res[mask]))
    return [VerdictReport(
        name="power_supersolution",
        passed=bool(margin > 0.0),
        measured={"min_margin": margin},
        predicted={"min_margin_positive": 0.0},
        tolerance=0.0,
        provenance="(lambda, phi^q) is a strict supersolution outside a large ball for q near 1",
        inputs={"q": q, "r_inner": r_inner, "theta": spec.theta},
    )], {}


def gradient_estimate_ratio(sol: ErgodicSolution, r_prime: float) -> float:
    """sup_{|y|<=R'} |D phi| over 1 + sup |f - lambda|^(1/theta) + sup |Df|^(1/(2 theta - 1))."""
    spec = sol.spec
    if r_prime + 1.0 > spec.radius:
        raise ValueError("need r_prime + 1 <= radius")
    grid = sol.phi.grid
    rr = grid.radii()
    mag = laplacian_and_slope(sol.phi.values, grid.h)[1]
    sup_grad = float(np.max(mag[rr <= r_prime]))
    pts = grid.points()
    f_vals = spec.rhs.evaluate(pts)
    df_vals = np.linalg.norm(spec.rhs.gradient(pts), axis=-1)
    theta = spec.theta
    denom = (
        1.0
        + float(np.max(np.abs(f_vals - sol.lam))) ** (1.0 / theta)
        + float(np.max(df_vals)) ** (1.0 / (2.0 * theta - 1.0))
    )
    return sup_grad / denom


def check_gradient_estimate(
    spec: ProblemSpec,
    solver_tol: float = 1e-8,
    r_primes: Optional[tuple[float, ...]] = None,
    gap: Optional[float] = None,
) -> CheckResult:
    """The interior gradient bound constant stays in a factor-2 band as R grows.

    The constant in sup|D phi| <= K (1 + sup|f-lambda|^(1/theta) + sup|Df|^(1/(2 theta-1)))
    depends only on dimension and theta, so the measured ratios should not drift.
    Each r_prime is solved on spec's problem in the box of radius r_prime + gap;
    by default r_primes are R/4, 3R/8 and R/2 and gap is R/2, so the boxes are
    3R/4, 7R/8 and spec's own.
    """
    big = spec.radius
    r_primes = (big / 4, 3 * big / 8, big / 2) if r_primes is None else r_primes
    gap = big / 2 if gap is None else gap
    ratios = {}
    for rp in r_primes:
        sol = _solve(spec, solver_tol, radius=rp + gap)
        ratios[f"K_r{rp:g}"] = gradient_estimate_ratio(sol, rp)
    vals = np.array(list(ratios.values()))
    if np.max(vals) <= 1e-12:
        passed = True
        band = 1.0
    elif np.min(vals) <= 0:
        passed = False
        band = np.inf
    else:
        band = float(np.max(vals) / np.min(vals))
        passed = band <= 2.0
    return [VerdictReport(
        name="gradient_estimate",
        passed=bool(passed),
        measured={**ratios, "band": band},
        predicted={"band_max": 2.0},
        tolerance=0.0,
        provenance="interior gradient bound constant depends only on m and theta",
        inputs={"theta": spec.theta, "m": spec.m, "r_primes": list(r_primes), "gap": gap},
    )], {}


# -- Dirichlet family and the critical-value characterization -------------------------


def _dirichlet_solvable(
    spec: ProblemSpec, lam: float, tol: float, initial_guess: Optional[Field] = None
) -> tuple[bool, Optional[Field]]:
    grid = spec.grid
    data = Field(grid, np.zeros(grid.shape))
    try:
        phi = solve_dirichlet(spec, lam, data, initial_guess=initial_guess, tol=tol)
        return True, phi
    except SolverError:
        return False, None


def check_dirichlet_family(spec: ProblemSpec, solver_tol: float = 1e-8) -> CheckResult:
    """Solvability of the Dirichlet problem at three levels below the critical value.

    lambda_R is solved from the eikonal guess, and the levels are low,
    (low + top)/2 and top, with top = lambda_R - 0.1 and low the smaller of
    min f and top - 0.1. Boundary data is the constant 0: constants are
    subsolutions at lambda = min f, so each level should admit a solution.
    """
    lam_r = _solve(spec, solver_tol).lam
    top = lam_r - 0.1
    low = min(spec.rhs.min_value(), top - 0.1)
    lambdas = [low, 0.5 * (low + lam_r - 0.1), top]  # 0.5 * (low + top) rounds differently
    results = {}
    ok = True
    guess: Optional[Field] = None
    for lam in lambdas:
        solvable, phi = _dirichlet_solvable(spec, lam, solver_tol, initial_guess=guess)
        results[f"solved_lambda={lam:g}"] = 1.0 if solvable else 0.0
        ok = ok and solvable
        if phi is not None:
            guess = phi
    return [VerdictReport(
        name="dirichlet_family",
        passed=bool(ok),
        measured=results,
        predicted={"all_solvable": 1.0},
        tolerance=0.0,
        provenance="a subsolution at one level yields solutions at every lower level",
        inputs={"lambdas": lambdas, "lambda_star_hint": lam_r},
    )], {}


def check_lambda_star_characterization(
    spec: ProblemSpec, solver_tol: float = 1e-8
) -> CheckResult:
    """The Dirichlet-solvability threshold coincides with the reflecting (Neumann) level.

    Bounded-from-below routes and the solvability supremum single out the same
    lambda_R: the zero-data Dirichlet problem, solved from the zero field, must
    solve at lambda_R - DIRICHLET_DELTA and fail at lambda_R + DIRICHLET_DELTA.
    A Howard solve (solve_dirichlet) that returns certifies its level; a failed
    one is the heuristic unsolvability signal; dirichlet_bracket.csv lists both.
    """
    sol = _solve(spec, solver_tol)
    table = [
        {"lambda": lam, "solvable": _dirichlet_solvable(spec, lam, solver_tol)[0]}
        for lam in (sol.lam - DIRICHLET_DELTA, sol.lam + DIRICHLET_DELTA)
    ]
    below, above = table
    report = VerdictReport(
        name="lambda_star_characterization",
        passed=below["solvable"] and not above["solvable"],
        measured={
            "lambda_below": below["lambda"],
            "lambda_above": above["lambda"],
            "solvable_below": float(below["solvable"]),
            "solvable_above": float(above["solvable"]),
            "lambda_R": sol.lam,
        },
        predicted={"solvable_below": 1.0, "solvable_above": 0.0},
        tolerance=DIRICHLET_DELTA,
        provenance="bounded-from-below solutions exist only at the critical value",
        inputs={"theta": spec.theta, "m": spec.m, "radius": spec.radius, "h": spec.h},
    )
    return [report], {"dirichlet_bracket.csv": table}


# -- invariance-style checks ----------------------------------------------------------


def check_shift_equivariance(spec: ProblemSpec, solver_tol: float = 1e-8) -> CheckResult:
    """lambda*(f + c) = lambda*(f) + c and the normalized profiles agree, within 10 * solver_tol.

    The identity is exact for the scheme, not only in the limit: the residual
    G_h[phi] + lambda - f is unchanged by (f, lambda) -> (f + c, lambda + c).
    So the lambda gap is off from c by at most the two solves' residuals, and
    the profiles may differ by what uniqueness allows two starts of one
    problem; a larger gap means the operator scales f instead of subtracting
    it. c is SHIFT_C. Both problems are solved from the eikonal guess (_solve),
    and lambda_shape's fallback pair shares the shifted one.
    """
    if not isinstance(spec.rhs, (PowerRhs, PurePowerRhs)):
        raise ValueError("shift equivariance check needs a power-family right-hand side")
    sol = _solve(spec, solver_tol)
    sol_c = _solve(spec, solver_tol, rhs=replace(spec.rhs, shift=spec.rhs.shift + SHIFT_C))
    lam_gap = sol_c.lam - sol.lam
    phi_gap = float(np.max(np.abs(sol_c.phi.values - sol.phi.values)))
    passed = abs(lam_gap - SHIFT_C) <= 10.0 * solver_tol and phi_gap <= 10.0 * solver_tol
    return [VerdictReport(
        name="shift_equivariance",
        passed=bool(passed),
        measured={"lambda_gap": lam_gap, "phi_sup_gap": phi_gap},
        predicted={"lambda_gap": SHIFT_C, "phi_sup_gap": 0.0},
        tolerance=10.0 * solver_tol,
        provenance="adding a constant to f shifts the critical value by that constant",
        inputs={"c": SHIFT_C, "theta": spec.theta, "m": spec.m},
    )], {}


def check_uniqueness(spec: ProblemSpec, solver_tol: float = 1e-8, seed: int = 0) -> CheckResult:
    """Two runs from independent random initial fields land on the same profile.

    The fields are random_smooth_field at seeds seed + 1 and seed + 2.
    Solutions are unique up to additive constants, so the difference of the
    two anchored profiles must be constant: oscillation <= 10 * solver tol.
    """
    seeds = (seed + 1, seed + 2)
    sols = [
        solve_ergodic(
            spec, initial_guess=random_smooth_field(spec.grid, field_seed), tol=solver_tol
        )
        for field_seed in seeds
    ]
    diff = sols[0].phi.values - sols[1].phi.values
    osc = float(diff.max() - diff.min())
    lam_gap = abs(sols[0].lam - sols[1].lam)
    passed = osc <= 10.0 * solver_tol and lam_gap <= 10.0 * solver_tol
    return [VerdictReport(
        name="uniqueness",
        passed=bool(passed),
        measured={"phi_oscillation": osc, "lambda_gap": lam_gap},
        predicted={"phi_oscillation": 0.0, "lambda_gap": 0.0},
        tolerance=10.0 * solver_tol,
        provenance="bounded-from-below solutions are unique up to an additive constant",
        inputs={"seeds": list(seeds), "theta": spec.theta, "m": spec.m},
    )], {}


def check_cross_method(spec: ProblemSpec, solver_tol: float = 1e-8) -> CheckResult:
    """Agreement of the five routes to the critical value on one instance.

    The routes are the three solve_ergodic methods: Newton from the eikonal
    guess (_solve), policy iteration from the zero field, and relative value
    iteration from Newton's profile. Relative value iteration
    (Anderson-accelerated: Anderson 1965; Walker & Ni 2011) counts also as the
    parabolic march. The fifth route is the discount path over DISCOUNT_EPS.
    Newton and policy iteration are one iteration with two globalizations, so
    the independent computations are Newton, the march and the discount path.
    They must agree pairwise within CHECK_TOL. The march's certified
    enclosure goes to measured as parabolic_lambda_lo and parabolic_lambda_hi
    (the verdict does not read it), and its iteration count as
    march_iterations. A march that cannot settle raises SolverError.

    The march's value does not depend on its start: the monotone scheme's
    fixed point is unique up to a constant, and every grid field's rate range
    encloses lambda_h. The march reads rates by its own inline formula, so at
    Newton's profile it settles at step 0 with its own enclosure when that
    formula agrees with residual_values to tol/2, and otherwise iterates to
    its own fixed point. So march_iterations > 0 in a verify run means the
    two formulas disagree at Newton's profile by more than tol/2.

    The tables are the iteration's rate spread by iteration
    (parabolic_rate.csv) and the discount path (discount_path.csv).
    """
    newton = _solve(spec, solver_tol)
    march = solve_ergodic(spec, newton.phi, method="relative_value_iteration", tol=solver_tol)
    lams = {
        "newton_augmented": newton.lam,
        "policy_iteration": solve_ergodic(spec, method="policy_iteration", tol=solver_tol).lam,
        "relative_value_iteration": march.lam,
        "parabolic_march": march.lam,
    }
    rows, extrap = discounted_lambda_path(spec, list(DISCOUNT_EPS), tol=solver_tol)
    lams["discounted_extrapolation"] = extrap
    worst = max(lams.values()) - min(lams.values())
    measured = dict(lams)
    measured["parabolic_lambda_lo"] = march.lambda_lo
    measured["parabolic_lambda_hi"] = march.lambda_hi
    measured["march_iterations"] = march.trace.records[-1].iteration
    measured["max_pairwise_gap"] = worst
    report = VerdictReport(
        name="cross_method",
        passed=bool(worst <= CHECK_TOL),
        measured=measured,
        predicted={"pairwise_gap": 0.0},
        tolerance=CHECK_TOL,
        provenance="all approximation routes converge to the same critical value",
        inputs={"theta": spec.theta, "m": spec.m, "eps": list(DISCOUNT_EPS)},
    )
    rates = [
        {"iteration": k, "rate_min": lo, "rate_mean": mean, "rate_max": hi}
        for k, lo, mean, hi in march.trace.rate_stats
    ]
    path = [{"epsilon": row["epsilon"], "lambda": row["lambda"]} for row in rows]
    return [report], {"parabolic_rate.csv": rates, "discount_path.csv": path}


def check_radius_monotonicity(spec: ProblemSpec, solver_tol: float = 1e-8) -> CheckResult:
    """lambda_R is non-increasing in the box radius, within a discretization slack of CHECK_TOL.

    The boxes are R/2, 3R/4 and R = spec.radius; each keeps the spacing spec.h
    and starts from eikonal_initial_guess. The table lambda_vs_radius.csv has
    one row {radius, lambda} per box.
    """
    big = spec.radius
    radii = (big / 2, 3 * big / 4, big)
    rows = []
    for r in radii:
        sol = _solve(spec, solver_tol, radius=float(r))
        rows.append({"radius": float(r), "lambda": sol.lam})
    lams = [row["lambda"] for row in rows]
    report = VerdictReport(
        name="radius_monotonicity",
        passed=all(l2 <= l1 + CHECK_TOL for l1, l2 in zip(lams, lams[1:])),
        measured={f"lambda_R{r:g}": l for r, l in zip(radii, lams)},
        predicted={"non_increasing": 1.0},
        tolerance=CHECK_TOL,
        provenance="state-constraint levels decrease toward the critical value as R grows",
        inputs={"radii": list(radii), "theta": spec.theta, "m": spec.m},
    )
    return [report], {"lambda_vs_radius.csv": rows}


def check_interior_minimum(spec: ProblemSpec, solver_tol: float = 1e-8) -> CheckResult:
    """Interior localization of the minimizer with f(argmin) <= lambda.

    Solves spec from the eikonal guess; the minimizer passes when it lies at
    least two cells inside the box.
    """
    sol = _solve(spec, solver_tol)
    grid = sol.phi.grid
    loc = grid.points()[np.argmin(sol.phi.values)]
    f_val = float(spec.rhs.value_at(loc))
    dist = float(min(grid.half_count * grid.h - abs(c) for c in loc))
    passed = dist >= 2.0 * grid.h - 1e-12 and f_val <= sol.lam + INTERIOR_MINIMUM_TOL
    return [VerdictReport(
        name="interior_minimum",
        passed=passed,
        measured={"f_at_argmin": f_val, "lambda": sol.lam, "distance_to_boundary": dist},
        predicted={"f_at_argmin_below_lambda": 0.0},
        tolerance=INTERIOR_MINIMUM_TOL,
        provenance="the minimum of the reflecting (Neumann) solution is interior with f(argmin) <= lambda",
        inputs={"verdict": "pass" if passed else "fail", "location": [float(c) for c in loc]},
    )], {}
