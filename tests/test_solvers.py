"""Solver routes: Dirichlet, discounted, state-constraint ergodic, parabolic."""

import json

import numpy as np
import pytest

from ergodic_hjb import solvers
from ergodic_hjb.analysis import check_interior_minimum
from ergodic_hjb.grid import Field
from ergodic_hjb.problem import ProblemSpec, make_power_rhs, make_pure_power_rhs
from ergodic_hjb.scheme import DiscreteOperator, laplacian_values, upwind_state
from ergodic_hjb.solvers import (
    PTC_TAU0,
    NoSolutionSuspected,
    discounted_lambda_path,
    eikonal_initial_guess,
    estimate_lambda_star,
    parabolic_march,
    random_smooth_field,
    solve_dirichlet,
    solve_discounted,
    solve_ergodic,
)

from oracles import (
    closed_form_lambda,
    closed_form_phi,
    closed_form_spec,
    convergence_order,
    smooth_power_lambda,
)


def zero_field(grid):
    return Field(grid, np.zeros(grid.shape))


# -- Dirichlet ----------------------------------------------------------------------


def test_dirichlet_zero_data_zero_f_gives_zero():
    rhs = make_power_rhs(1.0, 0.0, -1.0)  # f identically 0
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=2.0, h=0.1)
    phi = solve_dirichlet(spec, 0.0, zero_field(spec.grid))
    assert np.array_equal(phi.values, np.zeros(spec.grid.shape))


@pytest.mark.parametrize("theta", [1.5, 3.0])
@pytest.mark.parametrize("m, radius, h", [(1, 4.0, 0.02), (2, 2.0, 0.1)])
def test_dirichlet_solves_the_interior_rows_of_the_state_constraint_operator(theta, m, radius, h):
    # both stencil arms exist at interior nodes, so the Dirichlet solution
    # zeroes the state-constraint residual there and keeps the data on the shell
    spec = ProblemSpec(theta=theta, m=m, rhs=make_power_rhs(1.0, 2.0), radius=radius, h=h)
    g = spec.grid
    data = np.random.default_rng(7).standard_normal(g.shape)
    tol = 1e-8
    phi = solve_dirichlet(spec, 1.0, Field(g, data), tol=tol)
    shell = g.boundary_shell_mask()
    assert np.array_equal(phi.values[shell], data[shell])
    res = DiscreteOperator(spec).residual_values(phi.values, 1.0)
    assert np.max(np.abs(res[g.interior_mask()])) <= tol


class ManufacturedRhs(type(make_power_rhs(1.0, 0.0))):
    """f built so that phi(y) = -3y + sin(y) solves the equation at lambda = 0.

    Substituting phi into -1/2 phi'' + 1/2 |phi'|^2 gives
    f(y) = sin(y)/2 + (cos(y) - 3)^2 / 2; min f = 3/2, so lambda = 0 sits a
    solid margin below every critical level and the Dirichlet solve is well
    conditioned (a bounded-from-below closed form would sit exactly at the
    critical value instead).
    """

    def evaluate(self, pts):
        y = np.asarray(pts, dtype=float)[..., 0]
        return 0.5 * np.sin(y) + 0.5 * (np.cos(y) - 3.0) ** 2

    def gradient(self, pts):
        y = np.asarray(pts, dtype=float)[..., 0]
        return (0.5 * np.cos(y) - (np.cos(y) - 3.0) * np.sin(y))[..., None]


def test_dirichlet_manufactured_solution_first_order_convergence():
    rhs = ManufacturedRhs(coeff=1.0, alpha=0.0, shift=0.0)
    errs = []
    hs = [0.2, 0.1, 0.05, 0.025]
    for h in hs:
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=2.0, h=h)
        g = spec.grid
        exact = -3.0 * g.axis_coords() + np.sin(g.axis_coords())
        phi = solve_dirichlet(spec, 0.0, Field(g, exact.copy()))
        errs.append(np.max(np.abs(phi.values - exact)))
    assert errs[-1] <= 0.02
    assert convergence_order(hs, errs) >= 0.75


def test_dirichlet_closed_form_error_shrinks_with_h():
    # theta=2, f = y^2/2, lambda = 1/2, data = y^2/2 on the ends: phi -> y^2/2.
    # The pair sits exactly at the critical value, so convergence is slow but
    # monotone; the clean-rate check lives in the manufactured-solution test.
    errs = []
    hs = [0.2, 0.1, 0.05, 0.025]
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    for h in hs:
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=2.0, h=h)
        g = spec.grid
        exact = 0.5 * g.axis_coords() ** 2
        phi = solve_dirichlet(spec, 0.5, Field(g, exact.copy()))
        errs.append(np.max(np.abs(phi.values - exact)))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] <= 0.2


def test_dirichlet_anchored_profile_is_box_independent_for_quadratic_theta():
    # theta = 2: the transformed equation -1/2 w'' + (f - lambda) w = 0 is
    # linear with a one-dimensional even solution space, so the anchored
    # profile phi - phi(0) cannot depend on the box radius
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    profiles = []
    for radius in (3.0, 4.0, 5.0):
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=radius, h=0.02)
        g = spec.grid
        vals = solve_dirichlet(spec, 0.0, zero_field(g)).values
        phi = vals - vals[spec.anchor_index]
        profiles.append(phi[np.abs(g.axis_coords()) <= 2.0])
    for p in profiles[1:]:
        assert np.max(np.abs(p - profiles[0])) <= 1e-8


def test_dirichlet_matches_independent_linear_ode_oracle():
    # dual route for theta = 2: integrate w'' = 2 (f - lambda) w with
    # w(0) = 1, w'(0) = 0 by a high-order ODE method; the anchored Dirichlet
    # profile is -ln(w). Only the first-order upwind bias should remain.
    from scipy.integrate import solve_ivp

    lam = 0.0
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)

    def oscillator(y, state):
        w, dw = state
        return [dw, 2.0 * (0.5 * y**2 - lam) * w]

    errs = []
    hs = [0.04, 0.02, 0.01]
    for h in hs:
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=3.0, h=h)
        g = spec.grid
        vals = solve_dirichlet(spec, lam, zero_field(g)).values
        phi = vals - vals[spec.anchor_index]
        ax = g.axis_coords()
        window = np.abs(ax) <= 2.0
        nodes = np.unique(np.abs(ax[window]))
        ode = solve_ivp(oscillator, (0.0, 2.0), [1.0, 0.0], t_eval=nodes,
                        rtol=1e-11, atol=1e-13)
        oracle = dict(zip(ode.t, -np.log(ode.y[0])))
        diff = [phi[window][k] - oracle[abs(y)] for k, y in enumerate(ax[window])]
        errs.append(np.max(np.abs(diff)))
    assert errs[-1] <= 0.005
    assert convergence_order(hs, errs) >= 0.9


def test_dirichlet_above_critical_value_is_suspected_unsolvable():
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=4.0, h=0.05)
    lam_hat = solve_ergodic(spec, tol=1e-8).lam  # about 1/2
    with pytest.raises(NoSolutionSuspected):
        solve_dirichlet(spec, lam_hat + 5.0, zero_field(spec.grid), max_iter=60)


# -- discounted -----------------------------------------------------------------------


def test_discounted_constant_f_solved_by_constant():
    c = 2.0
    rhs = make_power_rhs(c, 0.0, 0.0)
    for eps in (0.5, 0.1):
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=2.0, h=0.25)
        phi = solve_discounted(spec, eps)
        assert np.allclose(phi.values, c / eps, atol=1e-9)
        assert eps * phi.at(spec.anchor_index) == pytest.approx(c, abs=1e-9)


def test_discounted_path_approaches_ergodic_level():
    # f = y^2/2 + s: discount estimates approach s + 1/2 as eps -> 0
    s = 0.7
    rhs = make_pure_power_rhs(0.5, 2.0, s)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    rows, extrapolated = discounted_lambda_path(spec, [0.1, 0.05, 0.025])
    lam_sc = solve_ergodic(spec, tol=1e-8).lam
    gaps = [abs(r["lambda"] - lam_sc) for r in rows]
    assert gaps == sorted(gaps, reverse=True)  # monotone approach
    assert extrapolated == pytest.approx(lam_sc, abs=0.01)
    assert extrapolated == pytest.approx(0.5 + s, abs=0.02)
    assert rows[0]["epsilon"] == 0.1


def test_discounted_rejects_nonpositive_rate():
    spec = closed_form_spec(2.0, 1, 2.0, 0.25)
    with pytest.raises(ValueError):
        solve_discounted(spec, 0.0)


# -- ergodic state-constraint ----------------------------------------------------------


@pytest.mark.parametrize(
    "theta,tol_lam",
    [(2.0, 0.02), (1.5, 0.03)],
)
def test_ergodic_closed_form_1d(theta, tol_lam):
    spec = closed_form_spec(theta, 1, 8.0, 0.01)
    sol = solve_ergodic(spec, tol=1e-8)
    assert sol.lam == pytest.approx(closed_form_lambda(1), abs=tol_lam)
    exact = closed_form_phi(spec.grid, spec.anchor_index)
    mask = spec.grid.radii() <= 4.0
    d = sol.phi.values[mask] - exact[mask]
    assert (d.max() - d.min()) / 2.0 <= 0.05
    assert sol.phi.at(spec.anchor_index) == 0.0
    assert sol.residual_sup <= 1e-8


def test_ergodic_closed_form_2d_coarse():
    spec = closed_form_spec(2.0, 2, 6.0, 0.1)
    sol = solve_ergodic(spec, tol=1e-8)
    assert sol.lam == pytest.approx(closed_form_lambda(2), abs=0.1)
    assert sol.phi.at(spec.anchor_index) == 0.0


def test_ergodic_methods_agree_on_shared_fixed_point():
    rhs = make_power_rhs(1.0, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    sols = {
        meth: solve_ergodic(spec, method=meth, tol=1e-8)
        for meth in ("newton_augmented", "policy_iteration", "relative_value_iteration")
    }
    lams = [s.lam for s in sols.values()]
    assert max(lams) - min(lams) <= 1e-6
    base = sols["newton_augmented"].phi.values
    for s in sols.values():
        assert np.max(np.abs(s.phi.values - base)) <= 1e-5
        assert s.residual_sup <= 1e-8


def test_ergodic_lambda_error_is_first_order_in_h():
    errs = []
    hs = (0.08, 0.04, 0.02)
    for h in hs:
        spec = closed_form_spec(2.0, 1, 8.0, h)
        sol = solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=1e-8)
        errs.append(abs(sol.lam - closed_form_lambda(1)))
    for e1, e2 in zip(errs, errs[1:]):
        assert 1.7 <= e1 / e2 <= 2.3  # halving h halves the upwind bias


EXTREME_THETAS = (1.1, 1.2, 4.0, 6.0)


# the Newton cases keep their bare-theta ids, so test ids stay stable
@pytest.mark.parametrize(
    "theta, method",
    [pytest.param(t, "newton_augmented", id=f"{t}") for t in EXTREME_THETAS]
    + [pytest.param(t, "policy_iteration", id=f"{t}-policy_iteration") for t in EXTREME_THETAS],
)
def test_ergodic_extreme_exponents(theta, method):
    spec = closed_form_spec(theta, 1, 8.0, 0.02)
    sol = solve_ergodic(spec, method=method, tol=1e-8)
    assert sol.lam == pytest.approx(closed_form_lambda(1), abs=0.02)


def test_ergodic_methods_agree_2d():
    rhs = make_pure_power_rhs(0.5, 2.0, 1.0)
    spec = ProblemSpec(theta=2.0, m=2, rhs=rhs, radius=4.0, h=0.2)
    lams = [
        solve_ergodic(spec, method=meth, tol=1e-7).lam
        for meth in ("newton_augmented", "policy_iteration", "relative_value_iteration")
    ]
    assert max(lams) - min(lams) <= 1e-6


def test_ergodic_unknown_method_rejected():
    spec = closed_form_spec(2.0, 1, 2.0, 0.25)
    with pytest.raises(ValueError):
        solve_ergodic(spec, method="gradient_descent")


def test_ergodic_normalization_and_trace_invariants(monkeypatch):
    linear_solves = []
    spsolve = solvers.spsolve

    def counting_spsolve(a, b):
        linear_solves.append(a.shape)
        return spsolve(a, b)

    monkeypatch.setattr(solvers, "spsolve", counting_spsolve)
    spec = closed_form_spec(3.0, 1, 6.0, 0.05)
    # from this field the line search stalls and pseudo-time steps take over
    cold = closed_form_spec(6.0, 1, 8.0, 0.02)
    runs = [
        (spec, None, "newton_augmented"),
        (spec, None, "policy_iteration"),
        (cold, random_smooth_field(cold.grid, 1), "newton_augmented"),
    ]
    for sp, guess, method in runs:
        linear_solves.clear()
        sol = solve_ergodic(sp, initial_guess=guess, method=method, tol=1e-8)
        records = sol.trace.records
        assert sol.phi.at(sp.anchor_index) == 0.0
        assert records[-1].residual_sup == sol.residual_sup
        assert sol.trace.termination == "converged"
        # one record per iteration, counting up across any switch of globalization
        assert [r.iteration for r in records] == list(range(len(records)))
        assert records[-1].iteration == len(linear_solves)
        # jsonl serialization is parseable, one record per line plus the footer
        lines = sol.trace.to_jsonl().strip().splitlines()
        parsed = [json.loads(ln) for ln in lines]
        assert parsed[-1]["event"] == "done"
        assert len(parsed) == len(records) + 1
    # the cold start's rejected line-search step (step size 0) is followed by
    # the first pseudo-time step
    steps = [r.step_size for r in records]
    switch = steps.index(PTC_TAU0)
    assert steps[switch - 1] == 0.0


def test_ergodic_shift_equivariance():
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    rhs_c = make_pure_power_rhs(0.5, 2.0, 1.0)
    spec_c = ProblemSpec(theta=2.0, m=1, rhs=rhs_c, radius=6.0, h=0.05)
    sol = solve_ergodic(spec, tol=1e-9)
    sol_c = solve_ergodic(spec_c, tol=1e-9)
    assert sol_c.lam - sol.lam == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(sol_c.phi.values - sol.phi.values)) <= 1e-8


def test_ergodic_uniqueness_from_random_initializations():
    tol = 1e-8
    cases = [
        ((2.0, 1, 6.0, 0.05), (1, 2)),
        # cold starts on which the line search stalls and pseudo-time steps finish
        ((6.0, 1, 8.0, 0.02), (1, 2)),
        ((2.0, 1, 8.0, 0.01), (307626447, 592467769)),
        ((1.5, 1, 8.0, 0.01), (387592216, 1)),
    ]
    for args, seeds in cases:
        spec = closed_form_spec(*args)
        ref = solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=tol)
        s1, s2 = (
            solve_ergodic(spec, initial_guess=random_smooth_field(spec.grid, seed), tol=tol)
            for seed in seeds
        )
        diff = s1.phi.values - s2.phi.values
        assert diff.max() - diff.min() <= 10.0 * tol
        assert abs(s1.lam - s2.lam) <= 10.0 * tol
        for sol in (s1, s2):
            # the comparison principle bounds the lambda gap by the residual sum
            gap = abs(sol.lam - ref.lam)
            assert gap <= 1e-10 or gap <= sol.residual_sup + ref.residual_sup, (args, gap)
            diff = sol.phi.values - ref.phi.values
            assert diff.max() - diff.min() <= 10.0 * tol, args


def test_ergodic_rejects_unbounded_rhs():
    bad = ProblemSpec(
        theta=2.0, m=1, rhs=make_power_rhs(1.0, 2.0, float("nan")), radius=2.0, h=0.25
    )
    with pytest.raises(ValueError):
        solve_ergodic(bad)


# -- interior minimum ---------------------------------------------------------------


def test_interior_minimum_at_origin():
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    sol = solve_ergodic(spec, tol=1e-8)
    rep = check_interior_minimum(sol)
    assert rep.passed
    assert rep.inputs["location"][0] == pytest.approx(0.0, abs=0.1)
    assert rep.measured["f_at_argmin"] <= rep.measured["lambda"] + 1e-6


def test_interior_minimum_shifted_well():
    # f = (y-2)^2/2: the closed form translates, argmin near 2, still interior
    base = make_pure_power_rhs(0.5, 2.0, 0.0)

    class Shifted(type(base)):
        def evaluate(self, pts):
            return super().evaluate(np.asarray(pts, dtype=float) - 2.0)

        def gradient(self, pts):
            return super().gradient(np.asarray(pts, dtype=float) - 2.0)

    rhs = Shifted(coeff=0.5, alpha=2.0, shift=0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.05)
    sol = solve_ergodic(spec, tol=1e-8)
    rep = check_interior_minimum(sol)
    assert rep.passed
    assert rep.inputs["location"][0] == pytest.approx(2.0, abs=0.2)


# -- parabolic march ------------------------------------------------------------------


def test_parabolic_constant_f_is_exact():
    c = 1.3
    rhs = make_power_rhs(c, 0.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=2.0, h=0.1)
    march = parabolic_march(spec, T=1.0)
    assert march.lambda_hat == pytest.approx(c, abs=1e-12)
    # u(t) = c t: every recorded rate is exactly c
    for _, lo, mean, hi in march.rate_stats:
        assert lo == pytest.approx(c, abs=1e-12)
        assert hi == pytest.approx(c, abs=1e-12)
    assert np.allclose(march.profile.values, 0.0, atol=1e-12)


def test_parabolic_stationary_from_exact_profile():
    # boundary nodes adjust to the truncated stencils, so stationarity is a
    # bulk statement; the rate is right from the very first steps
    spec = closed_form_spec(2.0, 1, 6.0, 0.05)
    g = spec.grid
    u0 = Field(g, 0.5 * g.axis_coords() ** 2)
    march = parabolic_march(spec, u0=u0, T=0.5)
    assert march.lambda_hat == pytest.approx(closed_form_lambda(1), abs=0.05)
    bulk = g.radii() <= 3.0
    drift = (march.profile.values - (u0.values - u0.values[spec.anchor_index]))[bulk]
    assert np.max(np.abs(drift)) <= 0.05
    # interior rates equal the critical value from the very first step,
    # up to the upwind bias (at most R h / 2 at the box edge)
    first_max = march.rate_stats[0][3]
    assert first_max == pytest.approx(closed_form_lambda(1), abs=0.5 * 6.0 * g.h + 0.02)


def test_parabolic_time_step_respects_cfl_at_every_step(monkeypatch):
    # theta = 6 from a rough field: max|p| moves fast, so a time step that is
    # refreshed only now and then overshoots the monotonicity bound
    theta = 6.0
    spec = closed_form_spec(theta, 1, 8.0, 0.025)
    h, m = spec.h, spec.m
    u0 = random_smooth_field(spec.grid, 1)
    monkeypatch.setattr(solvers, "MARCH_RECORD_EVERY", 1)
    march = parabolic_march(spec, u0=u0, T=5e-4)
    steps = march.trace.records[:-1]
    assert len(steps) == march.n_steps > 400
    f = spec.f_field().values
    u = u0.values.copy()
    for rec in steps:
        state = upwind_state(u, h)
        bound = 1.0 / (m / h**2 + m * float(np.max(state.mag)) ** (theta - 1.0) / h)
        assert rec.step_size <= bound, f"step {rec.iteration}: dt/bound = {rec.step_size / bound}"
        u = u + rec.step_size * (0.5 * laplacian_values(u, h) - state.mag**theta / theta + f)
    replayed = u - u[spec.anchor_index]
    assert np.max(np.abs(replayed - march.profile.values)) <= 1e-12


def test_parabolic_long_run_matches_ergodic_solve():
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    march = parabolic_march(spec, T=30.0)
    sol = solve_ergodic(spec, tol=1e-8)
    assert march.lambda_hat == pytest.approx(sol.lam, abs=0.03)
    mask = spec.grid.radii() <= 3.0
    d = march.profile.values[mask] - sol.phi.values[mask]
    assert d.max() - d.min() <= 0.05


def test_relative_value_iteration_is_read_off_the_march():
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    tol = 1e-7
    march = parabolic_march(spec, T=30.0, tol=tol)
    rvi = solve_ergodic(spec, method="relative_value_iteration", tol=tol)
    assert march.settled is not None
    assert march.settled.lam == rvi.lam
    assert np.array_equal(march.settled.phi.values, rvi.phi.values)
    assert march.settled.residual_sup == rvi.residual_sup <= tol
    # the march goes on to its horizon past the settle step
    assert rvi.trace.records[-1].iteration < march.n_steps
    short = parabolic_march(spec, T=0.5, tol=tol)
    assert short.settled is None
    assert short.trace.termination == "horizon_reached"


def test_march_step_budget_raises():
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    with pytest.raises(solvers.SolverError) as info:
        parabolic_march(spec, T=30.0, max_steps=10)
    assert info.value.trace.termination == "max_iterations"


# -- outer radius loop ------------------------------------------------------------------


def test_estimate_lambda_star_closed_form():
    spec = closed_form_spec(2.0, 1, 8.0, 0.02)
    est = estimate_lambda_star(spec, [4.0, 6.0, 8.0], tol=1e-8)
    assert est.monotone
    lams = [row["lambda"] for row in est.rows]
    assert all(abs(l - closed_form_lambda(1)) <= 0.03 for l in lams)
    assert est.lambda_star == pytest.approx(closed_form_lambda(1), abs=0.03)
    for r1, r2 in zip(est.rows, est.rows[1:]):
        assert r2["lambda"] <= r1["lambda"] + est.slack


def test_estimate_lambda_star_constant_f_no_radius_dependence():
    rhs = make_power_rhs(1.0, 0.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.1)
    est = estimate_lambda_star(spec, [4.0, 6.0, 8.0])
    lams = [row["lambda"] for row in est.rows]
    assert np.allclose(lams, 1.0, atol=1e-9)
    assert est.lambda_star == pytest.approx(1.0, abs=1e-9)


def test_estimate_lambda_star_smooth_quadratic_oracle():
    # f = 1 + |y|^2: quadratic ansatz gives lambda = 1 + 1/sqrt(2)
    rhs = make_power_rhs(1.0, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.01)
    est = estimate_lambda_star(spec, [4.0, 6.0, 8.0], tol=1e-8)
    assert est.lambda_star == pytest.approx(smooth_power_lambda(1.0, 0.0), abs=0.03)


def test_estimate_lambda_star_validates_arguments():
    spec = closed_form_spec(2.0, 1, 8.0, 0.1)
    with pytest.raises(ValueError):
        estimate_lambda_star(spec, [4.0, 6.0])
    with pytest.raises(ValueError):
        estimate_lambda_star(spec, [6.0, 4.0, 8.0])


def test_eikonal_guess_matches_asymptotics_on_closed_form():
    spec = closed_form_spec(2.0, 1, 8.0, 0.01)
    guess = eikonal_initial_guess(spec)
    g = spec.grid
    exact = 0.5 * g.axis_coords() ** 2
    far = np.abs(g.axis_coords()) >= 4.0
    rel = np.abs(guess.values[far] - exact[far]) / exact[far]
    assert np.max(rel) <= 0.2
