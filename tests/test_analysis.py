"""Property checks: growth, scaling, shape, continuity, thresholds."""

import dataclasses

import numpy as np
import pytest

from ergodic_hjb import analysis, solvers
from ergodic_hjb.analysis import (
    check_continuity_bound,
    check_cross_method,
    check_dirichlet_family,
    check_gradient_estimate,
    check_growth_exponent,
    check_interior_minimum,
    check_lambda_shape,
    check_lambda_star_characterization,
    check_power_supersolution,
    check_radius_monotonicity,
    check_scaling_law,
    check_shift_equivariance,
    check_uniqueness,
    fit_growth_exponent,
    gradient_estimate_ratio,
)
from ergodic_hjb.grid import Field, Grid
from ergodic_hjb.problem import BlendRhs, ProblemSpec, make_power_rhs, make_pure_power_rhs
from ergodic_hjb.scheme import DiscreteOperator
from ergodic_hjb.solvers import SolverError, eikonal_initial_guess, solve_ergodic

from oracles import (
    closed_form_lambda,
    closed_form_spec,
    m5_residual_values,
    quad_ansatz_lambda,
    smooth_power_lambda,
)


# -- growth fits -------------------------------------------------------------------


def test_fit_growth_exponent_on_synthetic_power_field():
    # phi = |y|^2.5 on a huge box: the min-to-1 shift bias is negligible, so
    # the value fit recovers 2.5 and the upwind-gradient fit recovers 1.5
    g = Grid(m=1, radius=100.0, h=1.0)
    phi = Field(g, np.abs(g.axis_coords()) ** 2.5)
    gamma, gradient_slope = fit_growth_exponent(phi, 37.5, 60.0)
    assert gamma == pytest.approx(2.5, abs=0.01)
    assert gradient_slope == pytest.approx(1.5, abs=0.05)


def test_fit_growth_exponent_needs_enough_nodes():
    g = Grid(m=1, radius=10.0, h=1.0)
    phi = Field(g, np.abs(g.axis_coords()))
    with pytest.raises(ValueError):
        fit_growth_exponent(phi, 4.0, 5.0)


@pytest.mark.parametrize(
    "theta,alpha,tol_abs",
    [(2.0, 2.0, 0.1), (2.0, 4.0, 0.15), (1.5, 1.5, 0.1)],
)
def test_growth_exponent_instances(theta, alpha, tol_abs):
    rhs = make_pure_power_rhs(1.0, alpha, shift=1.0)
    spec = ProblemSpec(theta=theta, m=1, rhs=rhs, radius=16.0, h=0.02)
    (report,), _ = check_growth_exponent(spec)
    gamma = alpha / theta + 1.0
    assert report.passed
    assert report.measured["gamma_fit"] == pytest.approx(gamma, abs=tol_abs)
    # the gradient fit sees the exponent drop by one
    assert report.measured["gradient_slope"] == pytest.approx(gamma - 1.0, abs=0.1)


# -- scaling law --------------------------------------------------------------------


def box(radius, h):
    """A theta = 2, 1-d spec with f = 1 + |y|^2: the f1, and the alpha, of the lambda* checks."""
    return ProblemSpec(theta=2.0, m=1, rhs=make_power_rhs(1.0, 2.0, 0.0), radius=radius, h=h)


def test_scaling_law_identity_at_c_one():
    (rep,), _ = check_scaling_law(box(8.0, 0.02), c=1.0)
    assert rep.passed
    assert rep.measured["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert rep.predicted["ratio"] == 1.0


def test_scaling_law_quadratic_absolute_values():
    # quadratic ansatz: lambda*(|y|^2) = 1/sqrt(2), lambda*(4|y|^2) = sqrt(2)
    (rep,), _ = check_scaling_law(box(8.0, 0.02), c=4.0)
    assert rep.passed
    assert rep.measured["ratio"] == pytest.approx(2.0, rel=0.05)
    assert rep.measured["lambda_base"] == pytest.approx(quad_ansatz_lambda(1.0, 0.0), abs=0.03)
    assert rep.measured["lambda_scaled"] == pytest.approx(quad_ansatz_lambda(4.0, 0.0), abs=0.05)


def test_scaling_law_small_alpha_inequality_variant():
    spec = dataclasses.replace(box(8.0, 0.02), rhs=make_power_rhs(1.0, 0.5, 0.0))
    (rep,), _ = check_scaling_law(spec, c=2.0)
    assert rep.name == "scaling_law"
    assert "upper_bound" in rep.measured
    assert rep.passed


def test_scaling_law_rejects_nonpositive_constant():
    with pytest.raises(ValueError):
        check_scaling_law(box(8.0, 0.01), c=-1.0)


def test_scaling_law_needs_a_growth_exponent():
    blend = BlendRhs(f1=make_power_rhs(1.0, 2.0, 0.0), f2=make_power_rhs(1.0, 4.0, 0.0))
    with pytest.raises(ValueError, match="growth exponent"):
        check_scaling_law(dataclasses.replace(box(4.0, 0.1), rhs=blend), c=4.0)


# -- shift / monotone / concave -------------------------------------------------------


def test_lambda_shape_suite_on_quadratic_quartic_pair():
    f2 = make_pure_power_rhs(1.0, 4.0, 1.0)
    reps, _ = check_lambda_shape(box(8.0, 0.02), f2=f2, t_grid=(0.0, 0.25, 0.5, 0.75, 1.0))
    by_name = {r.name: r for r in reps}
    assert set(by_name) == {"monotonicity", "concavity"}
    # the pair crosses at |y| = 1, so monotonicity falls back to (f1, f1+1)
    assert by_name["monotonicity"].inputs["pair"] == "(f1, f1+1)"
    assert by_name["monotonicity"].passed
    assert by_name["concavity"].passed
    slacks = list(by_name["concavity"].measured.values())
    assert min(slacks) >= -0.03


def test_lambda_shape_uses_given_pair_when_ordered(monkeypatch):
    f2 = make_power_rhs(1.0, 2.0, 0.5)  # f1 + 1/2: pointwise ordered
    spec = box(6.0, 0.05)
    solved, solve = [], analysis.solve_ergodic

    def counting_solve(problem, *args, **kwargs):
        solved.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_ergodic", counting_solve)
    reps, _ = check_lambda_shape(spec, f2=f2, t_grid=(0.0, 0.5, 1.0))
    by_name = {r.name: r for r in reps}
    assert by_name["monotonicity"].inputs["pair"] == "(f1, f2)"
    assert by_name["monotonicity"].passed
    # f1, f2 and the t = 0.5 blend; the fallback's f1 + SHIFT_C is not asked for
    shifted = dataclasses.replace(spec.rhs, shift=spec.rhs.shift + analysis.SHIFT_C)
    assert len(solved) == 3
    assert dataclasses.replace(spec, rhs=shifted) not in solved


def test_shift_equivariance_check():
    rhs = make_power_rhs(1.0, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    (rep,), _ = check_shift_equivariance(spec)
    assert rep.passed
    assert rep.tolerance == 10 * 1e-8  # the identity is exact for the scheme: solver tolerance
    assert rep.measured["lambda_gap"] == pytest.approx(1.0, abs=1e-8)
    assert rep.measured["phi_sup_gap"] <= 1e-8


# -- continuity ----------------------------------------------------------------------


def test_continuity_bound_on_scaled_quadratic_pair():
    # closed forms: lambda_1 = 1 + 1/sqrt(2), lambda_2 = 1.1 + sqrt(0.55);
    # gap 0.1345 against bound (0.11/1.11) * lambda_2 = 0.1825
    f2 = make_power_rhs(1.1, 2.0, 0.0)
    (rep,), _ = check_continuity_bound(box(8.0, 0.02), f2=f2)
    assert rep.passed
    lam1 = smooth_power_lambda(1.0, 0.0)
    lam2 = smooth_power_lambda(1.1, 0.0)
    assert rep.measured["rhs_gap"] == pytest.approx(0.1, abs=1e-9)
    assert rep.measured["lambda_gap"] == pytest.approx(abs(lam2 - lam1), abs=0.01)
    assert rep.measured["lambda_gap"] == pytest.approx(0.135, abs=0.01)
    assert rep.predicted["bound"] == pytest.approx(0.182, abs=0.01)
    assert rep.predicted["f0"] == pytest.approx(1.1, abs=1e-6)


def test_continuity_bound_trivial_pair():
    spec = box(6.0, 0.05)
    (rep,), _ = check_continuity_bound(spec, f2=spec.rhs)
    assert rep.measured["rhs_gap"] == 0.0
    assert rep.predicted["bound"] == 0.0
    assert rep.passed


def test_continuity_bound_small_perturbation():
    f2 = make_power_rhs(1.01, 2.0, 0.0)  # f1 + 0.01 (1 + |y|^2)
    (rep,), _ = check_continuity_bound(box(6.0, 0.05), f2=f2)
    assert rep.passed
    assert rep.measured["lambda_gap"] <= rep.predicted["bound"] + 0.02


def test_continuity_bound_rejects_mismatched_exponents():
    f2 = make_power_rhs(1.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        check_continuity_bound(box(8.0, 0.01), f2=f2)


def test_continuity_bound_measures_f0_of_the_functions_it_is_given():
    # f + 1 = 2 + |y|^2 has growth constant 2; a constant carried over from f would read 1
    spec = box(4.0, 0.1)
    (rep,), _ = check_continuity_bound(spec, f2=dataclasses.replace(spec.rhs, shift=1.0))
    assert rep.predicted["f0"] == 2.0


# -- radius monotonicity and the critical value ----------------------------------------


def test_radius_monotonicity_closed_form():
    spec = closed_form_spec(2.0, 1, 8.0, 0.02)
    (rep,), tables = check_radius_monotonicity(spec, solver_tol=1e-8)
    rows = tables["lambda_vs_radius.csv"]
    assert rep.passed
    assert [sorted(row) for row in rows] == [["lambda", "radius"]] * 3
    assert [row["radius"] for row in rows] == [4.0, 6.0, 8.0]
    lams = [row["lambda"] for row in rows]
    assert all(abs(l - closed_form_lambda(1)) <= 0.03 for l in lams)
    for l1, l2 in zip(lams, lams[1:]):
        assert l2 <= l1 + 0.02


def test_radius_monotonicity_constant_f_no_radius_dependence():
    rhs = make_power_rhs(1.0, 0.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.1)
    (rep,), tables = check_radius_monotonicity(spec)
    rows = tables["lambda_vs_radius.csv"]
    assert rep.passed
    assert np.allclose([row["lambda"] for row in rows], 1.0, atol=1e-9)


def test_radius_monotonicity_smooth_quadratic_oracle():
    # f = 1 + |y|^2: quadratic ansatz gives lambda = 1 + 1/sqrt(2)
    rhs = make_power_rhs(1.0, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.01)
    (rep,), tables = check_radius_monotonicity(spec, solver_tol=1e-8)
    rows = tables["lambda_vs_radius.csv"]
    assert rep.passed
    lams = [row["lambda"] for row in rows]
    assert all(l2 <= l1 + 0.02 for l1, l2 in zip(lams, lams[1:]))
    assert rows[-1]["lambda"] == pytest.approx(smooth_power_lambda(1.0, 0.0), abs=0.03)


def test_each_lambda_star_is_one_solve_on_the_specs_box(monkeypatch):
    radii_solved = []
    solve = analysis.solve_ergodic

    def counting_solve(spec, *args, **kwargs):
        radii_solved.append(spec.radius)
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_ergodic", counting_solve)
    spec = box(4.0, 0.1)
    check_scaling_law(spec, c=4.0)
    assert radii_solved == [spec.radius] * 2
    radii_solved.clear()
    check_continuity_bound(spec, f2=make_power_rhs(1.1, 2.0, 0.0))
    assert radii_solved == [spec.radius] * 2
    radii_solved.clear()
    check_lambda_shape(spec, f2=make_pure_power_rhs(1.0, 4.0, 1.0), t_grid=(0.0, 0.5, 1.0))
    assert radii_solved == [spec.radius] * 4  # f1, f2, f1 + 1 and the t = 0.5 blend
    radii_solved.clear()
    check_radius_monotonicity(spec)
    assert radii_solved == [2.0, 3.0, 4.0]


def test_checks_solve_no_box_beyond_the_specs_radius(monkeypatch):
    # the boxes and interior radii are fractions of spec.radius: on R = 6 the
    # radius check solves 3, 4.5 and 6, the gradient check 4.5, 5.25 and 6
    radii_solved = []
    solve = analysis.solve_ergodic

    def recording_solve(spec, *args, **kwargs):
        radii_solved.append(spec.radius)
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_ergodic", recording_solve)
    spec = box(6.0, 0.1)
    check_radius_monotonicity(spec)
    assert radii_solved == [3.0, 4.5, 6.0]
    radii_solved.clear()
    check_gradient_estimate(spec)
    assert radii_solved == [4.5, 5.25, 6.0]


# -- supersolution power trick ---------------------------------------------------------


@pytest.fixture(scope="module")
def subquadratic_spec():
    # f = (2/3)|y|^(3/2) + 1 is solved by phi = y^2/2 with lambda = 3/2
    rhs = make_pure_power_rhs(2.0 / 3.0, 1.5, shift=1.0)
    return ProblemSpec(theta=1.5, m=1, rhs=rhs, radius=8.0, h=0.01)


def test_power_supersolution_positive_outside_the_well(subquadratic_spec):
    (rep,), _ = check_power_supersolution(subquadratic_spec, q=1.01, r_inner=3.0)
    assert rep.passed
    assert rep.measured["min_margin"] > 0.0


def test_power_supersolution_margin_degrades_as_q_drops(subquadratic_spec):
    (small,), _ = check_power_supersolution(subquadratic_spec, q=1.001, r_inner=3.0)
    (large,), _ = check_power_supersolution(subquadratic_spec, q=1.04, r_inner=3.0)
    assert 0.0 < small.measured["min_margin"] < large.measured["min_margin"]


def test_power_supersolution_fails_inside_the_well(subquadratic_spec):
    # the construction only applies beyond some radius; inside the well the
    # margin goes negative and the reported failure documents the threshold
    (rep,), _ = check_power_supersolution(subquadratic_spec, q=1.01, r_inner=0.5)
    assert not rep.passed
    assert rep.measured["min_margin"] < 0.0


def test_power_supersolution_rejects_bad_inputs(subquadratic_spec):
    with pytest.raises(ValueError):
        check_power_supersolution(subquadratic_spec, q=1.2, r_inner=3.0)
    quad = ProblemSpec(theta=2.0, m=1, rhs=make_power_rhs(1.0, 2.0, 0.0), radius=4.0, h=0.1)
    with pytest.raises(ValueError):
        check_power_supersolution(quad, q=1.01, r_inner=1.0)


# -- gradient estimate ------------------------------------------------------------------


def test_gradient_estimate_constant_f_gives_zero_ratio():
    rhs = make_power_rhs(2.0, 0.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    sol = solve_ergodic(spec, tol=1e-8)
    assert gradient_estimate_ratio(sol, 2.0) == pytest.approx(0.0, abs=1e-8)


def test_gradient_estimate_band_quadratic():
    # closed form phi = y^2/2: sup|Dphi| = R' against denominators from f
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    (rep,), _ = check_gradient_estimate(ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.01))
    assert rep.passed
    assert rep.measured["K_r2"] == pytest.approx(2.0 / 7.0, abs=0.03)
    assert rep.measured["K_r4"] == pytest.approx(0.465, abs=0.03)
    assert rep.measured["band"] <= 2.0


def test_gradient_estimate_band_quartic():
    # quartic growth needs a farther window before the constant plateaus
    rhs = make_pure_power_rhs(1.0, 4.0, shift=1.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=10.0, h=0.02)
    (rep,), _ = check_gradient_estimate(spec, r_primes=(4.0, 5.0, 6.0), gap=4.0)
    assert rep.passed
    assert rep.measured["band"] <= 2.0


def test_gradient_estimate_requires_margin():
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=4.0, h=0.1)
    sol = solve_ergodic(spec, tol=1e-6)
    with pytest.raises(ValueError):
        gradient_estimate_ratio(sol, 3.5)


# -- Dirichlet family and characterization ------------------------------------------------


@pytest.fixture(scope="module")
def quadratic_spec():
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    return ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.02)


def test_dirichlet_family_below_critical(quadratic_spec):
    (rep,), _ = check_dirichlet_family(quadratic_spec)
    assert rep.passed
    assert all(v == 1.0 for k, v in rep.measured.items())


def test_threshold_bisection_matches_state_constraint_level(quadratic_spec):
    (rep,), tables = check_lambda_star_characterization(quadratic_spec)
    table = tables["dirichlet_bracket.csv"]
    assert rep.passed
    assert rep.measured["solvable_below"] == 1 and rep.measured["solvable_above"] == 0
    assert rep.tolerance == 2**-7
    assert [row["solvable"] for row in table] == [True, False]


@pytest.mark.parametrize(
    "spec,solvable_above",
    [
        (ProblemSpec(theta=2.0, m=1, rhs=make_pure_power_rhs(0.5, 2.0, 0.0), radius=8.0, h=0.02), 0.0),
        # on this box the level above lambda_R solves (certified below), so the check at
        # DIRICHLET_DELTA = 2^-7 cannot resolve it and its verdict fails
        (closed_form_spec(2.0, 2, 3.0, 0.1), 1.0),
    ],
    ids=["1d", "2d"],
)
def test_lambda_star_characterization_is_two_dirichlet_solves(monkeypatch, spec, solvable_above):
    ergodic_calls, levels = [], []
    solve, solve_dirichlet = analysis.solve_ergodic, analysis.solve_dirichlet

    def counting_solve(spec, *args, **kwargs):
        ergodic_calls.append(spec)
        return solve(spec, *args, **kwargs)

    def counting_dirichlet(spec, lam, *args, **kwargs):
        levels.append(lam)
        return solve_dirichlet(spec, lam, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_ergodic", counting_solve)
    monkeypatch.setattr(analysis, "solve_dirichlet", counting_dirichlet)
    (rep,), _ = check_lambda_star_characterization(spec)
    assert rep.passed == (solvable_above == 0.0), rep.measured
    assert rep.measured["solvable_below"] == 1.0
    assert rep.measured["solvable_above"] == solvable_above
    lam_r = rep.measured["lambda_R"]
    assert len(ergodic_calls) == 1
    assert levels == [lam_r - 2**-7, lam_r + 2**-7]
    if solvable_above:
        # the certificate: the returned field solves the zero-data Dirichlet problem
        lam = lam_r + 2**-7
        phi = solve_dirichlet(spec, lam, Field(spec.grid, np.zeros(spec.grid.shape))).values
        interior = spec.grid.interior_mask()
        residual = DiscreteOperator(spec).residual_values(phi, lam)[interior]
        assert np.max(np.abs(residual)) <= 1e-8
        assert np.all(phi[~interior] == 0.0)


def test_dirichlet_checks_pass_on_the_theta_6_quartic():
    # f = |y|^4 + 1 at theta 6: line-searched Newton solved none of these Dirichlet
    # levels from the zero field, and Howard's iteration solves every one below lambda_R
    spec = ProblemSpec(theta=6.0, m=1, rhs=make_pure_power_rhs(1.0, 4.0, 1.0), radius=8.0, h=0.02)
    (family,), _ = check_dirichlet_family(spec)
    assert family.passed, family.measured
    assert set(family.measured.values()) == {1.0}
    (bracket,), _ = check_lambda_star_characterization(spec)
    assert bracket.passed, bracket.measured
    assert (bracket.measured["solvable_below"], bracket.measured["solvable_above"]) == (1.0, 0.0)


# -- uniqueness and interior minimum -------------------------------------------------------


def test_cross_method_step_budget_before_settling_raises(monkeypatch):
    # relative value iteration is the iteration's settled pair, so an
    # iteration that cannot settle within its budget (here 10 steps) has no
    # value to compare, and the check raises instead of reporting a verdict.
    # The march starts at Newton's profile and settles there at step 0 unless
    # its own rate formula and residual_values disagree; mutant M5 makes them
    # disagree, so the march has to iterate to its own fixed point
    monkeypatch.setattr(DiscreteOperator, "residual_values", m5_residual_values)
    monkeypatch.setitem(solvers.METHOD_BUDGETS, "relative_value_iteration", 10)
    spec = ProblemSpec(theta=2.0, m=1, rhs=make_power_rhs(1.0, 2.0, 0.0), radius=4.0, h=0.1)
    with pytest.raises(SolverError, match="within 10 steps"):
        check_cross_method(spec)


def test_cross_method_reports_the_march_enclosure():
    # the march starts at Newton's profile from the eikonal guess, where its rate
    # spread is already within tol/2: it settles at step 0 with its own enclosure
    spec = ProblemSpec(theta=2.0, m=1, rhs=make_power_rhs(1.0, 2.0, 0.0), radius=4.0, h=0.1)
    (report,), _ = check_cross_method(spec)
    newton = solve_ergodic(spec, eikonal_initial_guess(spec))
    march = solve_ergodic(spec, newton.phi, method="relative_value_iteration")
    assert report.measured["relative_value_iteration"] == march.lam
    assert report.measured["parabolic_lambda_lo"] == march.lambda_lo
    assert report.measured["parabolic_lambda_hi"] == march.lambda_hi
    assert report.measured["march_iterations"] == march.trace.records[-1].iteration == 0
    assert 0.0 <= march.lambda_hi - march.lambda_lo <= 1e-8


def test_uniqueness_check_two_seeds():
    rhs = make_pure_power_rhs(0.5, 2.0, 1.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    (rep,), _ = check_uniqueness(spec, solver_tol=1e-8, seed=0)
    assert rep.passed
    assert rep.measured["phi_oscillation"] <= 1e-7


def test_interior_minimum_verdict_report():
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    (rep,), _ = check_interior_minimum(spec, solver_tol=1e-8)
    assert rep.passed
    assert rep.measured["f_at_argmin"] <= rep.measured["lambda"] + 1e-6


# -- reproducibility ----------------------------------------------------------------------


def test_verdicts_are_reproducible_bit_for_bit():
    f2 = make_power_rhs(1.1, 2.0, 0.0)
    (a,), _ = check_continuity_bound(box(6.0, 0.05), f2=f2)
    (b,), _ = check_continuity_bound(box(6.0, 0.05), f2=f2)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
