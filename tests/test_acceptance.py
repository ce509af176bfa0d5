"""Acceptance suite: every criterion at its stated tolerance.

Each test prints exactly one ACCEPTANCE PASS/FAIL line (run with -s or -rA
to see them live). Closed-form instances use f = (1/theta)|y|^theta + shift,
solved exactly by phi = |y|^2/2 with lambda = m/2 + shift.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ergodic_hjb.analysis import (
    check_continuity_bound,
    check_cross_method,
    check_growth_exponent,
    check_lambda_shape,
    check_lambda_star_characterization,
    check_radius_monotonicity,
    check_scaling_law,
    check_shift_equivariance,
)
from ergodic_hjb.grid import Field
from ergodic_hjb.problem import ProblemSpec, make_power_rhs, make_pure_power_rhs
from ergodic_hjb.scheme import DiscreteOperator
from ergodic_hjb.solvers import eikonal_initial_guess, random_smooth_field, solve_ergodic

from oracles import (
    closed_form_lambda,
    closed_form_phi,
    closed_form_spec,
    convergence_order,
    dyadic_field,
    hopf_cole_residual,
)
from test_scheme import monotonicity_violations

THETAS = (1.5, 2.0, 3.0)
GRIDS = {1: (8.0, 0.01), 2: (6.0, 0.05)}
SOLVER_TOL = 1e-8
# theta = 2 on [-8, 8] at h = 0.01: the box of the lambda* criteria 4, 5 and 8; its rhs
# 1 + |y|^2 is f1 of criteria 5 and 8, and the alpha of criterion 4
BOX = ProblemSpec(theta=2.0, m=1, rhs=make_power_rhs(1.0, 2.0, 0.0), radius=8.0, h=0.01)


@contextmanager
def criterion(label: str):
    """Print exactly one PASS/FAIL line for the wrapped criterion body."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def closed_form_solutions():
    """One warm-started solve per closed-form instance, with wall times."""
    out = {}
    for theta in THETAS:
        for m, (radius, h) in GRIDS.items():
            spec = closed_form_spec(theta, m, radius, h)
            t0 = time.perf_counter()
            sol = solve_ergodic(
                spec, initial_guess=eikonal_initial_guess(spec), tol=SOLVER_TOL
            )
            out[(theta, m)] = (sol, time.perf_counter() - t0)
    return out


def test_criterion_1_closed_form_family(closed_form_solutions):
    with criterion("1 closed-form family: lambda within 5%, profile within 0.05, under 2 min"):
        for (theta, m), (sol, wall) in closed_form_solutions.items():
            spec = sol.spec
            lam_exact = closed_form_lambda(m)
            assert abs(sol.lam - lam_exact) <= 0.05 * lam_exact, (theta, m, sol.lam)
            exact = closed_form_phi(spec.grid, spec.anchor_index)
            mask = spec.grid.radii() <= spec.radius / 2.0
            d = sol.phi.values[mask] - exact[mask]
            sup_err = (d.max() - d.min()) / 2.0
            assert sup_err <= 0.05, (theta, m, sup_err)
            assert wall <= 120.0, (theta, m, wall)
            assert sol.residual_sup <= SOLVER_TOL


def test_criterion_2_cross_route_agreement():
    with criterion("2 five routes pairwise within 0.03 and within 0.05 of 1 + 1/sqrt(2)"):
        rhs = make_power_rhs(1.0, 2.0, 0.0)  # f = 1 + |y|^2
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.025)
        (report,), _ = check_cross_method(spec, solver_tol=SOLVER_TOL)
        assert report.passed, report.measured
        oracle = 1.0 + 2.0**-0.5  # quadratic ansatz: a = 1/sqrt(2), lambda = 1 + a
        routes = (
            "newton_augmented", "policy_iteration", "relative_value_iteration",
            "parabolic_march", "discounted_extrapolation",
        )
        for route in routes:
            assert abs(report.measured[route] - oracle) <= 0.05, (route, report.measured)


def test_criterion_3_radius_monotonicity():
    with criterion("3 lambda_R non-increasing over radii {4,6,8} within slack 0.02"):
        slack = 0.02
        for theta in THETAS:
            for m, h in ((1, 0.01), (2, 0.1)):
                spec = closed_form_spec(theta, m, 8.0, h)  # boxes R/2, 3R/4, R = 4, 6, 8
                (report,), tables = check_radius_monotonicity(spec, solver_tol=SOLVER_TOL)
                rows = tables["lambda_vs_radius.csv"]
                assert [row["radius"] for row in rows] == [4.0, 6.0, 8.0]
                lams = [row["lambda"] for row in rows]
                assert report.passed, (theta, m, lams)
                for l1, l2 in zip(lams, lams[1:]):
                    assert l2 <= l1 + slack, (theta, m, lams)


def test_criterion_4_scaling_law():
    with criterion("4 scaling ratios within 3% of sqrt(c) for c in {1/4, 4}"):
        for c in (0.25, 4.0):
            (rep,), _ = check_scaling_law(BOX, solver_tol=SOLVER_TOL, c=c)
            assert rep.passed, rep.measured
            assert rep.measured["ratio"] == pytest.approx(c**0.5, rel=0.03)


def test_criterion_5_shift_monotone_concave_suite():
    with criterion("5 shift at 10 solver tol, monotone/concave suite at tolerance 0.03"):
        f2 = make_pure_power_rhs(1.0, 4.0, 1.0)  # 1 + |y|^4
        reps, _ = check_lambda_shape(
            BOX, solver_tol=SOLVER_TOL, f2=f2, t_grid=(0.0, 0.25, 0.5, 0.75, 1.0)
        )
        reps += check_shift_equivariance(BOX, solver_tol=SOLVER_TOL)[0]
        for rep in reps:
            assert rep.passed, (rep.name, rep.measured)


def test_criterion_6_growth_exponents():
    with criterion("6 growth exponents within 10% of alpha/theta + 1"):
        for theta, alpha in ((2.0, 2.0), (2.0, 4.0), (1.5, 1.5)):
            rhs = make_pure_power_rhs(1.0, alpha, shift=1.0)
            spec = ProblemSpec(theta=theta, m=1, rhs=rhs, radius=16.0, h=0.02)
            (rep,), _ = check_growth_exponent(spec, solver_tol=SOLVER_TOL)
            gamma = alpha / theta + 1.0
            fitted = rep.measured["gamma_fit"]
            assert abs(fitted - gamma) <= 0.10 * gamma, (theta, alpha, rep.measured)


def test_criterion_7_uniqueness_up_to_constants():
    with criterion("7 uniqueness: random-init profile oscillation <= 10 tol, 6 instances"):
        for theta in THETAS:
            for m, (radius, h) in GRIDS.items():
                spec = closed_form_spec(theta, m, radius, h)
                sols = [
                    solve_ergodic(
                        spec,
                        initial_guess=random_smooth_field(spec.grid, seed),
                        tol=SOLVER_TOL,
                    )
                    for seed in (101, 202)
                ]
                diff = sols[0].phi.values - sols[1].phi.values
                osc = float(diff.max() - diff.min())
                assert osc <= 10.0 * SOLVER_TOL, (theta, m, osc)


def test_criterion_8_continuity_bound():
    with criterion("8 continuity bound: gap 0.135 below bound 0.182"):
        f2 = make_power_rhs(1.1, 2.0, 0.0)
        (rep,), _ = check_continuity_bound(BOX, solver_tol=SOLVER_TOL, f2=f2)
        assert rep.passed, rep.measured
        assert rep.measured["lambda_gap"] == pytest.approx(0.135, abs=0.01)
        assert rep.predicted["bound"] == pytest.approx(0.182, abs=0.01)
        assert rep.measured["lambda_gap"] <= rep.predicted["bound"]


def test_criterion_9_lambda_star_characterization():
    with criterion("9 Dirichlet-solvability threshold matches the state-constraint level"):
        rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.01)
        (rep,), _ = check_lambda_star_characterization(spec, solver_tol=SOLVER_TOL)
        assert rep.passed, rep.measured
        assert rep.measured["solvable_below"] == 1 and rep.measured["solvable_above"] == 0
        assert rep.tolerance == 2**-7


def test_criterion_10_scheme_unit_suite():
    with criterion("10 scheme unit suite: monotone, exact invariances, Jacobian, consistency"):
        # randomized degenerate-ellipticity audit: 1000 trials, zero violations
        v1 = monotonicity_violations(closed_form_spec(2.0, 1, 2.0, 0.25), 600, seed=1000)
        v2 = monotonicity_violations(closed_form_spec(1.5, 2, 1.0, 0.25), 400, seed=1001)
        assert v1 + v2 == 0

        # additive-constant invariance and lambda-linearity, bitwise on dyadic data
        spec = closed_form_spec(2.0, 2, 1.0, 0.25)
        op = DiscreteOperator(spec)
        phi = dyadic_field(spec.grid, seed=2024)
        shifted = Field(spec.grid, phi.values + 128.0)
        assert np.array_equal(
            op.residual_values(phi.values, 0.5), op.residual_values(shifted.values, 0.5)
        )
        spec1 = closed_form_spec(2.0, 1, 1.0, 0.25)
        op1 = DiscreteOperator(spec1)
        phi1 = dyadic_field(spec1.grid, seed=2025)
        diff = op1.residual_values(phi1.values, 0.5) - op1.residual_values(phi1.values, 0.0)
        assert np.array_equal(diff, np.full(spec1.grid.shape, 0.5))

        # Jacobian against central finite differences
        spec_j = closed_form_spec(2.0, 1, 2.0, 0.1)
        op_j = DiscreteOperator(spec_j)
        rng = np.random.default_rng(7)
        base = rng.standard_normal(spec_j.grid.shape).cumsum() * 0.3
        jac = op_j.jacobian(base)
        direction = rng.standard_normal(spec_j.grid.shape)
        step = 1e-6
        fd = (
            op_j.residual_values(base + step * direction, 0.0)
            - op_j.residual_values(base - step * direction, 0.0)
        ) / (2.0 * step)
        rel = np.max(np.abs((jac @ direction.ravel()).reshape(spec_j.grid.shape) - fd))
        rel /= max(np.max(np.abs(fd)), 1.0)
        assert rel <= 1e-5

        # interior consistency order >= 0.9 on the quadratic closed form
        errs, hs = [], [0.2, 0.1, 0.05]
        rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
        for h in hs:
            s = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=4.0, h=h)
            g = s.grid
            res = DiscreteOperator(s).residual_values(0.5 * g.axis_coords() ** 2, 0.5)
            errs.append(np.max(np.abs(res[np.abs(g.axis_coords()) <= 2.0])))
        assert convergence_order(hs, errs) >= 0.9

        # transformed-equation residual vanishes on the exact solution at order >= 1.9
        errs_hc = []
        for h in hs:
            s = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=3.0, h=h)
            g = s.grid
            res = hopf_cole_residual(Field(g, 0.5 * g.axis_coords() ** 2), 0.5, s)
            errs_hc.append(np.max(np.abs(res.values[np.abs(g.axis_coords()) <= 1.5])))
        assert convergence_order(hs, errs_hc) >= 1.9
        assert errs_hc[-1] <= 1e-3
