"""Solver routes: Dirichlet, discounted, state-constraint ergodic, parabolic."""

import functools
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu, spsolve

from ergodic_hjb import solvers
from ergodic_hjb.analysis import check_interior_minimum
from ergodic_hjb.config import build_spec, parse_config
from ergodic_hjb.grid import Field
from ergodic_hjb.problem import ProblemSpec, make_power_rhs, make_pure_power_rhs
from ergodic_hjb.scheme import DiscreteOperator, laplacian_and_slope, upwind_state
from ergodic_hjb.solvers import (
    PTC_TAU0,
    SolverError,
    discounted_lambda_path,
    eikonal_initial_guess,
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
    shell = ~g.interior_mask()
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
    with pytest.raises(SolverError) as info:
        solve_dirichlet(spec, lam_hat + 5.0, zero_field(spec.grid))
    trace = info.value.trace
    assert trace.termination in {"stagnated", "max_iterations"}
    assert trace.records[-1].residual_sup > 1e3 * 1e-8  # far from the default tolerance


def test_dirichlet_stall_without_a_hand_off_raises_stagnated():
    # the Dirichlet route passes no stall_tau, so a line-search stall ends the solve
    spec = ProblemSpec(2.0, 1, make_pure_power_rhs(0.5, 2.0, 0.0), 4.0, 0.05)
    with pytest.raises(SolverError) as info:
        solve_dirichlet(spec, 1.0, zero_field(spec.grid))
    trace = info.value.trace
    assert trace.termination == "stagnated"
    assert trace.records[-1].step_size == 0.0


# -- discounted -----------------------------------------------------------------------


def test_discounted_constant_f_solved_by_constant():
    c = 2.0
    rhs = make_power_rhs(c, 0.0, 0.0)
    for eps in (0.5, 0.1):
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=2.0, h=0.25)
        phi = solve_discounted(spec, eps)
        assert np.allclose(phi.values, c / eps, atol=1e-9)
        assert eps * phi.values[spec.anchor_index] == pytest.approx(c, abs=1e-9)


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


def test_discounted_extrapolation_is_the_quadratic_intercept():
    # the quadratic through the three (eps, eps phi_eps(0)) points also cancels
    # the O(eps) term, which the least-squares line leaves at about 2e-4
    spec = closed_form_spec(2.0, 1, 6.0, 0.05)
    rows, extrapolated = discounted_lambda_path(spec, [0.1, 0.05, 0.025])
    eps = [r["epsilon"] for r in rows]
    lams = [r["lambda"] for r in rows]
    assert extrapolated == np.polyfit(eps, lams, 2)[-1]
    lam_h = solve_ergodic(spec, tol=1e-10).lam
    assert abs(extrapolated - lam_h) <= 1e-6
    assert abs(np.polyfit(eps, lams, 1)[-1] - lam_h) >= 1e-4
    (row,), single = discounted_lambda_path(spec, [0.1])
    assert single == row["lambda"]


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
    assert sol.phi.values[spec.anchor_index] == 0.0
    assert sol.residual_sup <= 1e-8


def test_ergodic_closed_form_2d_coarse():
    spec = closed_form_spec(2.0, 2, 6.0, 0.1)
    sol = solve_ergodic(spec, tol=1e-8)
    assert sol.lam == pytest.approx(closed_form_lambda(2), abs=0.1)
    assert sol.phi.values[spec.anchor_index] == 0.0


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


HARD_GRIDS = {1: (8.0, 0.02), 2: (3.0, 0.1)}  # m -> (radius, h) of the hard-case matrix
# (theta, m) on which Howard's full step from random_smooth_field seed 0 overflows
HOWARD_OVERFLOWS = {(2.0, 1), (6.0, 1), (6.0, 2)}


@functools.lru_cache(maxsize=None)
def eikonal_newton(theta, m):
    spec = closed_form_spec(theta, m, *HARD_GRIDS[m])
    return solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=1e-8)


@pytest.mark.parametrize("start", ["zero", "eikonal", "random"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("theta", [1.1, 2.0, 6.0])
@pytest.mark.parametrize("method", ["newton_augmented", "policy_iteration"])
def test_hard_case_matrix_reaches_the_eikonal_newton_pair(method, theta, m, start):
    """Both square-system methods, three exponents, two grids and three starts at tol 1e-8.

    Each converged solve meets tol and agrees with the eikonal-start Newton
    solve in lambda and, up to 10 tol, in phi less a constant. Policy
    iteration from the random field on HOWARD_OVERFLOWS raises SolverError
    with termination non_finite_step instead, and is pinned so.
    """
    tol = 1e-8
    ref = eikonal_newton(theta, m)
    spec = ref.spec
    guess = {
        "zero": None,
        "eikonal": eikonal_initial_guess(spec),
        "random": random_smooth_field(spec.grid, 0),
    }[start]
    if method == "policy_iteration" and start == "random" and (theta, m) in HOWARD_OVERFLOWS:
        with pytest.raises(SolverError) as info:
            solve_ergodic(spec, initial_guess=guess, method=method, tol=tol)
        assert info.value.trace.termination == "non_finite_step"
        return
    sol = solve_ergodic(spec, initial_guess=guess, method=method, tol=tol)
    diff = sol.phi.values - ref.phi.values
    assert sol.residual_sup <= tol
    assert abs(sol.lam - ref.lam) <= tol
    assert diff.max() - diff.min() <= 10.0 * tol


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
    tridiagonal_solve = solvers._tridiagonal_solve

    def counting_solve(dl, d, du, b):
        linear_solves.append(d.shape)
        return tridiagonal_solve(dl, d, du, b)

    monkeypatch.setattr(solvers, "_tridiagonal_solve", counting_solve)
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
        assert sol.phi.values[sp.anchor_index] == 0.0
        assert records[-1].residual_sup == sol.residual_sup
        assert sol.trace.termination == "converged"
        # one record per iteration, counting up across any switch of globalization
        assert [r.iteration for r in records] == list(range(len(records)))
        assert records[-1].iteration == len(linear_solves) == sol.trace.factorizations
        assert sol.trace.reused_steps == 0
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


# -- the linear layer ----------------------------------------------------------------


def bordered_matrix(spec, phi, shift):
    """[[J + shift I, 1], [e_anchor, 0]]: the (N+1)-unknown system with lambda as a border."""
    n = spec.grid.n_nodes
    anchor = int(np.ravel_multi_index(spec.anchor_index, spec.grid.shape))
    jac = DiscreteOperator(spec).jacobian(phi, shift)
    ones = sp.csr_matrix(np.ones((n, 1)))
    row = sp.csr_matrix(([1.0], ([0], [anchor])), shape=(1, n))
    return sp.bmat([[jac, ones], [row, None]], format="csc")


def square_step(spec, phi, lam, shift):
    """The square step at (phi, lambda), phi(anchor) = 0, as (dphi, dlambda).

    The ergodic route's matrix: the Jacobian with the anchor's column replaced by ones.
    """
    n = spec.grid.n_nodes
    anchor = int(np.ravel_multi_index(spec.anchor_index, spec.grid.shape))
    op = DiscreteOperator(spec)
    step_fn = solvers._nd_step(op, lambda z, s: (phi, s), np.arange(n), anchor)
    step = step_fn(None, shift, -op.residual_values(phi, lam).ravel())
    x = np.append(step, step[anchor])  # lambda rides in the anchor's slot
    x[anchor] = 0.0
    return x


@pytest.mark.parametrize("m, radius, h", [(1, 8.0, 0.02), (2, 3.0, 0.1)])
@pytest.mark.parametrize("shift", [0.0, 1.0 / PTC_TAU0])
@pytest.mark.parametrize("guess", ["eikonal", "random"])
def test_square_step_is_the_bordered_step(m, radius, h, shift, guess):
    spec = closed_form_spec(3.0, m, radius, h)
    field = eikonal_initial_guess(spec) if guess == "eikonal" else random_smooth_field(spec.grid, 3)
    phi = field.values - field.values[spec.anchor_index]
    lam = 0.7
    x = square_step(spec, phi, lam, shift)
    bordered = bordered_matrix(spec, phi, shift)
    rhs = -np.append(DiscreteOperator(spec).residual_values(phi, lam).ravel(), 0.0)
    # the square step solves the bordered system: normwise backward error
    size = abs(bordered).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(rhs))
    assert np.max(np.abs(bordered @ x - rhs)) <= 1e-14 * size
    if shift == 0.0 and guess == "random":
        # J at a random field is ill-conditioned (steps of 1e16 at theta=3 in
        # 1-d), so two exact factorizations agree only to cond(J) * eps
        return
    ref = spsolve(bordered, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert x[-1] == pytest.approx(ref[-1], rel=1e-12, abs=0.0)  # dlambda


@pytest.mark.parametrize("shape", [(41,), (17, 23), (9, 10, 11)])
def test_nd_order_is_a_permutation_with_the_anchor_last(shape):
    n = int(np.prod(shape))
    anchor = n // 2
    for last in (None, anchor):
        order = solvers._nd_order(shape, last)
        assert np.array_equal(np.sort(order), np.arange(n))
    assert order[-1] == anchor


def test_nd_factor_pivots_on_the_diagonal_and_fills_less_than_bordered_colamd(monkeypatch):
    spec = closed_form_spec(2.0, 2, 3.0, 0.05)
    factors = []

    def recording_splu(a, **kwargs):
        lu = splu(a, **kwargs)
        factors.append((lu.L.nnz + lu.U.nnz, np.array_equal(lu.perm_r, lu.perm_c)))
        return lu

    monkeypatch.setattr(solvers, "splu", recording_splu)
    field = random_smooth_field(spec.grid, 5)
    phi = field.values - field.values[spec.anchor_index]
    colamd = splu(bordered_matrix(spec, phi, 0.0), permc_spec="COLAMD")
    rhs = -np.append(DiscreteOperator(spec).residual_values(phi, 0.7).ravel(), 0.0)
    for shift in (0.0, 1.0 / PTC_TAU0):
        x = square_step(spec, phi, 0.7, shift)
        fill, diagonal = factors[-1]
        assert diagonal  # row order = column order: no pivot left the diagonal
        assert fill <= colamd.L.nnz + colamd.U.nnz
        if shift > 0.0:
            residual = bordered_matrix(spec, phi, shift) @ x - rhs
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)
    assert len(factors) == 2


@pytest.mark.parametrize("method", ["newton_augmented", "policy_iteration"])
@pytest.mark.parametrize("theta", [2.0, 3.0])
def test_held_lu_saves_factors_and_agrees_with_fresh_factors(theta, method, monkeypatch):
    spec = closed_form_spec(theta, 2, 3.0, 0.05)
    guess = eikonal_initial_guess(spec)
    tol = 1e-8
    reused = solve_ergodic(spec, initial_guess=guess, method=method, tol=tol)
    monkeypatch.setattr(solvers, "REUSE_CONTRACTION", 0.0)  # every step factors afresh
    fresh = solve_ergodic(spec, initial_guess=guess, method=method, tol=tol)
    iterations = reused.trace.records[-1].iteration
    assert reused.trace.factorizations < iterations
    assert reused.trace.factorizations + reused.trace.reused_steps == iterations
    assert (fresh.trace.factorizations, fresh.trace.reused_steps) == (
        fresh.trace.records[-1].iteration, 0
    )
    assert np.max(np.abs(reused.phi.values - fresh.phi.values)) <= 10.0 * tol
    assert abs(reused.lam - fresh.lam) <= reused.residual_sup + fresh.residual_sup


def test_reused_solve_meets_the_componentwise_bar_or_declines():
    spec = closed_form_spec(2.0, 2, 3.0, 0.1)
    op = DiscreteOperator(spec)
    phi = eikonal_initial_guess(spec).values
    a = op.jacobian(phi, 1.0).tocsc()
    b = -op.residual_values(phi, 0.7).ravel()
    near = splu(op.jacobian(1.05 * phi, 1.0).tocsc())  # the factor of the last step
    d = solvers._reused_solve(a, near, b, 0.0)  # tol 0: only the componentwise bar accepts
    r = np.abs(a @ d - b)
    assert np.all(r <= solvers.REUSE_BACKWARD_ERROR * (abs(a) @ np.abs(d) + np.abs(b)))
    jacobi = splu(sp.diags(a.diagonal()).tocsc())  # too far from a for 10 iterations
    assert solvers._reused_solve(a, jacobi, b, 0.0) is None


def test_held_lu_forced_on_in_1d_keeps_the_hard_solves(monkeypatch):
    """A reused solve must be as good as a direct one, componentwise.

    The held LU is tried at every step of three hard 1-d solves, put on the
    ND step, whose records are those of the fresh-factor path. Accepting a
    reused solve on a small 2-norm residual alone makes policy iteration
    diverge here.
    """
    monkeypatch.setattr(solvers, "_tridiagonal_step", solvers._nd_step)
    monkeypatch.setattr(solvers, "REUSE_CONTRACTION", np.inf)
    spec = closed_form_spec(6.0, 1, 8.0, 0.02)
    runs = [
        ("policy_iteration", None, 58),
        ("newton_augmented", random_smooth_field(spec.grid, 1), 60),
        ("newton_augmented", random_smooth_field(spec.grid, 2), 73),
    ]
    for method, guess, n_records in runs:
        sol = solve_ergodic(spec, initial_guess=guess, method=method, tol=1e-8)
        assert len(sol.trace.records) == n_records
        assert sol.trace.reused_steps > 0
        assert sol.lam == pytest.approx(closed_form_lambda(1), abs=0.02)


def test_held_lu_is_freed_with_its_solve(monkeypatch):
    steps = []
    nd_step = solvers._nd_step

    def recording_nd_step(*args):
        step = nd_step(*args)
        steps.append(weakref.ref(step))
        return step

    monkeypatch.setattr(solvers, "_nd_step", recording_nd_step)
    gc.disable()  # reference counting alone must free the step and the LU it holds
    try:
        sol = solve_ergodic(closed_form_spec(2.0, 2, 3.0, 0.1), tol=1e-8)
    finally:
        gc.enable()
    assert sol.trace.reused_steps > 0
    assert len(steps) == 1 and steps[0]() is None


def test_nd_layout_is_built_once_per_grid_from_the_steps_own_jacobians(monkeypatch):
    orders, jacobians = [], []
    nd_order, jacobian = solvers._nd_order, DiscreteOperator.jacobian

    def counting_order(shape, last=None):
        orders.append(shape)
        return nd_order(shape, last)

    def counting_jacobian(self, values, shift=0.0):
        jacobians.append(shift)
        return jacobian(self, values, shift)

    monkeypatch.setattr(solvers, "_nd_order", counting_order)
    monkeypatch.setattr(DiscreteOperator, "jacobian", counting_jacobian)
    monkeypatch.setattr(solvers, "_LAYOUTS", {})
    spec = closed_form_spec(2.0, 2, 2.0, 0.2)
    for method in ("newton_augmented", "policy_iteration"):
        jacobians.clear()
        sol = solve_ergodic(spec, method=method, tol=1e-8)
        assert len(jacobians) == sol.trace.records[-1].iteration  # no extra assembly
    assert len(orders) == 1
    # the discounted and Dirichlet routes solve for other unknowns on the same grid
    phi = solve_discounted(spec, 0.1)
    solve_dirichlet(spec, 0.1 * phi.values[spec.anchor_index], phi)
    assert len(orders) == 3
    for k in range(solvers.ND_LAYOUTS + 2):  # the cache stays bounded
        solve_ergodic(closed_form_spec(2.0, 2, 1.0 + 0.2 * k, 0.2), tol=1e-8)
    assert len(solvers._LAYOUTS) == solvers.ND_LAYOUTS


def tridiagonal_route(spec, route):
    """(diagonal shift, keep, ones_at) of one 1-d route's step: the discount adds eps = 0.1."""
    n = spec.grid.n_nodes
    return {
        "square": (0.0, np.arange(n), n // 2),
        "dirichlet": (0.0, np.arange(1, n - 1), None),
        "discount": (0.1, np.arange(n), None),
    }[route]


@pytest.mark.parametrize("route", ["square", "dirichlet", "discount"])
@pytest.mark.parametrize("shift", [0.0, 1.0 / PTC_TAU0])
@pytest.mark.parametrize("theta", [1.1, 6.0])
def test_tridiagonal_step_agrees_with_the_nd_step(theta, shift, route):
    """The 1-d step is backward stable and agrees with the ND step to cond(A) eps.

    At theta = 6 and shift 0 a random field's matrix can be singular in
    floating point (cond 1e27): there the step is NaN, as the driver expects
    of a singular factor.
    """
    spec = closed_form_spec(theta, 1, 4.0, 0.05)
    op = DiscreteOperator(spec)
    base, keep, ones_at = tridiagonal_route(spec, route)
    for seed in (1, 2):
        phi = random_smooth_field(spec.grid, seed).values

        def at(x, s):
            return phi, base + s

        rhs = -op.residual_values(phi, 0.7).ravel()[keep]
        d = solvers._tridiagonal_step(op, at, keep, ones_at)(None, shift, rhs)
        a = op.jacobian(*at(None, shift))[keep][:, keep].toarray()
        if ones_at is not None:
            a[:, ones_at] = 1.0
        cond = np.linalg.cond(a, np.inf)
        if not np.all(np.isfinite(d)):
            assert np.all(np.isnan(d)) and cond * np.finfo(float).eps > 1.0
            continue
        size = np.abs(a).sum(axis=1).max() * np.abs(d).max() + np.abs(rhs).max()
        assert np.abs(a @ d - rhs).max() <= 1e-14 * size
        for ref in (
            solvers._nd_step(op, at, keep, ones_at)(None, shift, rhs),
            spsolve(sp.csc_matrix(a), rhs),
        ):
            assert np.abs(d - ref).max() <= 10.0 * cond * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("route", ["square", "dirichlet", "discount"])
def test_singular_tridiagonal_factor_gives_a_nan_step(route, monkeypatch):
    spec = closed_form_spec(2.0, 1, 2.0, 0.25)
    base, keep, ones_at = tridiagonal_route(spec, route)
    op = DiscreteOperator(spec)
    n = spec.grid.n_nodes
    monkeypatch.setattr(op, "_diagonals", lambda v, s: {k: np.zeros(n - abs(k)) for k in (-1, 0, 1)})
    step = solvers._tridiagonal_step(op, lambda x, s: (x, s), keep, ones_at)
    assert np.all(np.isnan(step(None, 0.0, np.ones(keep.size))))
    assert step.counts == {"factorizations": 1, "reused_steps": 0}


def gttrf_gttrs_solve(dl, d, du, b):
    """The reference solve: ?gttrf's LU, then ?gttrs. A system of fewer than 3
    rows is padded by identity rows with right-hand side 0, since those
    wrappers need 3."""
    n = d.size
    if n < 3:
        zeros = np.zeros(3 - n)
        dl, d, du = np.append(dl, zeros), np.append(d, np.ones(3 - n)), np.append(du, zeros)
        b = np.concatenate([b, np.zeros((3 - n,) + b.shape[1:])])
    dl, d, du, du2, ipiv, info = dgttrf(dl, d, du)
    if info > 0:
        return np.full(b[:n].shape, np.nan)
    return dgttrs(dl, d, du, du2, ipiv, b)[0][:n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 801])
def test_tridiagonal_solve_on_systems_of_one_to_four_rows(n):
    """?gtsv, and the division of a 1-row system, equal the ?gttrf/?gttrs pair byte for byte."""
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, 2))
    for boost in (3.0, 0.0):  # diagonally dominant, then rows that pivot
        bands = rng.uniform(-1.0, 1.0, (n, 3))
        bands[:, 1] += boost
        a = np.diag(bands[:, 1]) + np.diag(bands[1:, 0], -1) + np.diag(bands[:-1, 2], 1)
        diagonals = bands[1:, 0], bands[:, 1], bands[:-1, 2]  # dl, d, du
        bound = 100.0 * np.linalg.cond(a, 1) * np.finfo(float).eps
        for rhs in (b, b[:, 0]):
            x = solvers._tridiagonal_solve(*diagonals, rhs)
            assert x.shape == rhs.shape
            assert x.tobytes() == gttrf_gttrs_solve(*diagonals, rhs).tobytes()
            assert np.abs(x - np.linalg.solve(a, rhs)).max() <= bound * np.abs(x).max()
    dl, d, du = (np.array(v) for v in diagonals)
    d[0] = dl[:1] = 0.0  # a zero first column: the first pivot is exactly zero
    for rhs in (b, b[:, 0]):
        assert np.isnan(solvers._tridiagonal_solve(dl, d, du, rhs)).all()
        assert np.isnan(gttrf_gttrs_solve(dl, d, du, rhs)).all()


@pytest.mark.parametrize(
    "method", ["newton_augmented", "policy_iteration", "relative_value_iteration"]
)
def test_every_route_runs_on_the_three_node_grid(method):
    # h = radius: the square step's J_rr has two rows, the Dirichlet interior one node
    spec = closed_form_spec(2.0, 1, 1.0, 1.0)
    op = DiscreteOperator(spec)
    assert spec.grid.n_nodes == 3
    sol = solve_ergodic(spec, method=method, tol=1e-10)
    assert sol.residual_sup <= 1e-10
    if method == "newton_augmented":
        assert sol.trace.factorizations == sol.trace.records[-1].iteration
    phi = solve_discounted(spec, 0.5).values
    assert np.max(np.abs(op.residual_values(phi, 0.0) + 0.5 * phi)) <= 1e-8
    data = Field(spec.grid, np.array([1.0, 0.0, 1.0]))
    inner = solve_dirichlet(spec, sol.lam - 0.5, data)
    assert inner.values[[0, 2]].tolist() == [1.0, 1.0]
    assert abs(op.residual_values(inner.values, sol.lam - 0.5)[1]) <= 1e-8
    march = parabolic_march(spec, T=5.0)
    assert march.lambda_lo <= sol.lam + 1e-9 and sol.lam - 1e-9 <= march.lambda_hi


def level_sizes(sol):
    return [level["n_per_axis"] for level in sol.trace.coarse_levels]


@pytest.mark.parametrize("theta", [2.0, 3.0])
def test_nested_solve_reaches_the_fixed_point_of_the_one_level_solve(theta, monkeypatch):
    """The raw start must still reach the fine fixed point without coarse levels.

    121 x 121 nests once, to 61 x 61. The comparison principle bounds the
    lambda gap of two solutions by the sum of their residuals.
    """
    tol = 1e-8
    spec = closed_form_spec(theta, 2, 3.0, 0.05)
    eikonal = eikonal_initial_guess(spec)
    starts = [
        ("newton_augmented", random_smooth_field(spec.grid, 101)),
        ("newton_augmented", random_smooth_field(spec.grid, 202)),
        ("newton_augmented", eikonal),
        ("policy_iteration", eikonal),
    ]
    nested = [solve_ergodic(spec, initial_guess=g, method=mt, tol=tol) for mt, g in starts]
    monkeypatch.setattr(solvers, "COARSE_MIN_NODES", np.inf)
    flat = [solve_ergodic(spec, initial_guess=g, method=mt, tol=tol) for mt, g in starts]
    for (method, _), a, b in zip(starts, nested, flat):
        assert (level_sizes(a), level_sizes(b)) == ([61], [])
        assert a.trace.coarse_levels[0]["termination"] == "converged"
        assert a.trace.factorizations <= 2, method
        gap = abs(a.lam - b.lam)
        assert gap <= 1e-10 or gap <= a.residual_sup + b.residual_sup, (method, gap)
        assert np.max(np.abs(a.phi.values - b.phi.values)) <= 10.0 * tol, method


def test_nested_start_is_the_injected_guess_solved_and_prolonged(monkeypatch):
    spec = closed_form_spec(2.0, 2, 3.0, 0.05)
    guess = random_smooth_field(spec.grid, 101)
    calls, starts = [], []
    solve_square, damped_newton = solvers._solve_square, solvers._damped_newton

    def recording_solve_square(spec, initial_guess, *args):
        sol = solve_square(spec, initial_guess, *args)
        calls.append((initial_guess.values, sol))
        return sol

    def recording_newton(residual_fn, step_fn, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return damped_newton(residual_fn, step_fn, x0, *args, **kwargs)

    monkeypatch.setattr(solvers, "_solve_square", recording_solve_square)
    monkeypatch.setattr(solvers, "_damped_newton", recording_newton)
    sol = solve_ergodic(spec, initial_guess=guess, tol=1e-8)
    (coarse_guess, coarse), (fine_guess, fine) = calls
    assert fine is sol and fine_guess is guess.values
    assert coarse.spec.grid.n_per_axis == 61 and coarse.spec.h == 2.0 * spec.h
    assert np.array_equal(coarse_guess, guess.values[::2, ::2])  # every other node
    start = starts[-1].reshape(spec.grid.shape)
    # exact on the coarse nodes, the anchors included: phi(anchor) = 0, lambda starts at 0
    assert np.array_equal(start[::2, ::2], coarse.phi.values)
    assert start[spec.anchor_index] == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_prolongation_is_multilinear_and_exact_on_the_coarse_nodes(m):
    fine_axis = np.linspace(-1.0, 1.0, 9)
    coeffs = np.random.default_rng(m).standard_normal(2**m)

    def multilinear(axis):
        mesh = np.meshgrid(*([axis] * m), indexing="ij")
        total = np.zeros(mesh[0].shape)
        for k, c in enumerate(coeffs):  # c times the product of the coordinates in subset k
            total += c * np.prod([x for i, x in enumerate(mesh) if k >> i & 1], axis=0)
        return total

    coarse = multilinear(fine_axis[::2])
    fine = solvers._prolong(coarse)
    assert fine.shape == (9,) * m
    assert np.array_equal(fine[(slice(None, None, 2),) * m], coarse)
    assert np.max(np.abs(fine - multilinear(fine_axis))) <= 1e-13


@pytest.mark.parametrize(
    "theta, m, radius, h, levels",
    [
        (2.0, 1, 8.0, 0.005, []),  # 3,201 nodes, the largest 1-d grid in the package
        (2.0, 2, 3.0, 0.1, []),  # 61 x 61 = 3,721 nodes
        (2.0, 2, 3.05, 0.05, []),  # 123 x 123: above the bound, but 2h misses the anchor
        (2.0, 2, 3.0, 0.05, [61]),  # 121 x 121 -> 61 x 61
    ],
)
def test_only_large_grids_with_an_even_half_count_nest(theta, m, radius, h, levels, monkeypatch):
    sizes = []
    solve_square = solvers._solve_square

    def counting_solve_square(spec, *args):
        sizes.append(spec.grid.n_per_axis)
        return solve_square(spec, *args)

    monkeypatch.setattr(solvers, "_solve_square", counting_solve_square)
    spec = closed_form_spec(theta, m, radius, h)
    sol = solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=1e-8)
    assert sizes == [spec.grid.n_per_axis] + levels[::-1]
    assert level_sizes(sol) == levels
    assert sol.lam == pytest.approx(closed_form_lambda(m), abs=h)  # the O(h) bias


def test_failed_coarse_level_falls_back_to_the_callers_guess(monkeypatch):
    spec = closed_form_spec(2.0, 2, 3.0, 0.05)
    guess = random_smooth_field(spec.grid, 202)
    monkeypatch.setattr(solvers, "COARSE_MIN_NODES", np.inf)
    flat = solve_ergodic(spec, initial_guess=guess, tol=1e-8)
    monkeypatch.setattr(solvers, "COARSE_MIN_NODES", 10_000)
    solve_square = solvers._solve_square

    def failing_coarse_level(level_spec, *args):
        if level_spec.h != spec.h:
            records = [solvers.TraceRecord(0, 1.0), solvers.TraceRecord(7, 0.5)]
            trace = solvers.ConvergenceTrace(records=records, termination="stagnated")
            raise SolverError("coarse level made to fail", trace)
        return solve_square(level_spec, *args)

    monkeypatch.setattr(solvers, "_solve_square", failing_coarse_level)
    sol = solve_ergodic(spec, initial_guess=guess, tol=1e-8)
    # the fine level starts from the guess: the one-level solve, step for step
    assert sol.lam == flat.lam and np.array_equal(sol.phi.values, flat.phi.values)
    assert sol.trace.records == flat.trace.records
    assert sol.trace.coarse_levels == [
        {
            "n_per_axis": 61, "h": 0.1, "iterations": 7, "factorizations": 0,
            "reused_steps": 0, "termination": "stagnated",
            "error": "coarse level made to fail",
        }
    ]


def test_solver_error_carries_the_counts_and_levels_of_its_solve():
    spec = closed_form_spec(2.0, 2, 3.0, 0.05)
    with pytest.raises(solvers.SolverError) as info:
        solve_ergodic(spec, initial_guess=random_smooth_field(spec.grid, 101), max_iter=2)
    trace = info.value.trace
    assert trace.factorizations + trace.reused_steps == 2  # the fine level's two steps
    (level,) = trace.coarse_levels
    assert level["n_per_axis"] == 61 and level["termination"] == "max_iterations"
    assert level["iterations"] == 2 and "did not reach tolerance" in level["error"]


@pytest.mark.parametrize("method", ["newton_augmented", "policy_iteration"])
def test_zero_iteration_budget_is_honoured(method):
    # max_iter = 0 is a budget, not "use the default": the zero guess is no
    # solution, so the solve stops at once
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    with pytest.raises(solvers.SolverError) as info:
        solve_ergodic(spec, method=method, max_iter=0)
    assert info.value.trace.termination == "max_iterations"
    assert [r.iteration for r in info.value.trace.records] == [0]


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
    (rep,), _ = check_interior_minimum(spec, solver_tol=1e-8)
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
    (rep,), _ = check_interior_minimum(spec, solver_tol=1e-8)
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
    # refreshed only now and then overshoots the monotonicity bound of the
    # explicit Hamiltonian part. The replay solves the implicit Laplacian part
    # with a banded solver of its own.
    theta = 6.0
    spec = closed_form_spec(theta, 1, 8.0, 0.025)
    h, m = spec.h, spec.m
    top = 0.9 * h / m
    u0 = random_smooth_field(spec.grid, 1)
    horizon = 5e-4
    monkeypatch.setattr(solvers, "MARCH_RECORD_EVERY", 1)
    march = parabolic_march(spec, u0=u0, T=horizon)
    steps = march.trace.records[:-1]
    assert len(steps) == march.n_steps > 400
    f = spec.f_field().values
    n = spec.grid.n_per_axis
    arms = np.full(n, 2.0)
    arms[[0, -1]] = 1.0
    u = u0.values.copy()
    t = 0.0
    for rec in steps:
        mag = upwind_state(u, h).mag
        bound = 0.9 * h / (m * max(1.0, float(np.max(mag))) ** (theta - 1.0))
        dt = rec.step_size
        assert dt <= bound, f"step {rec.iteration}: dt/bound = {dt / bound}"
        # the largest rung (0.9 h/m) 2^(-k/2) below the bound, or the horizon cut
        k = round(-2.0 * np.log2(dt / top))
        rung = dt == top * 2.0 ** (-0.5 * k) and dt > bound / np.sqrt(2.0)
        assert rung or dt == horizon - t, f"step {rec.iteration}: dt {dt} is no rung"
        d = np.diff(u) / h
        lap = (np.concatenate([d, [0.0]]) - np.concatenate([[0.0], d])) / h
        rate = 0.5 * lap - mag**theta / theta + f
        off = np.full(n, -0.5 / h**2)
        banded = np.vstack([off, 1.0 / dt + 0.5 * arms / h**2, off])  # I/dt - 1/2 Lap_h
        u = u + solve_banded((1, 1), banded, rate)
        t += dt
    replayed = u - u[spec.anchor_index]
    assert np.max(np.abs(replayed - march.profile.values)) <= 1e-12


def imex_step(spec, u, dt):
    """u + (I/dt - 1/2 Lap_h)^(-1) (1/2 Lap_h u - H(Du) + f), the march's step."""
    lap, mag = laplacian_and_slope(u, spec.h)
    rate = 0.5 * lap - mag**spec.theta / spec.theta + spec.f_field().values
    shifted = DiscreteOperator(spec).jacobian(np.zeros(u.shape), 1.0 / dt)
    return u + spsolve(shifted.tocsc(), rate.ravel()).reshape(u.shape)


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 2]),
    theta=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
    scale=st.floats(min_value=0.01, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_imex_step_is_monotone(m, theta, scale, seed):
    # the step bound holds on the whole segment [u, v]: |p| is convex in the
    # field, so it is largest at an end
    spec = closed_form_spec(theta, m, 1.0, 0.125)
    h = spec.h
    rng = np.random.default_rng(seed)
    shape = spec.grid.shape
    u = scale * rng.standard_normal(shape)
    v = u + scale * rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.5)
    maxp = max(float(np.max(laplacian_and_slope(w, h)[1])) for w in (u, v))
    bound = 0.9 * h / (m * max(1.0, maxp) ** (theta - 1.0))
    dt = 0.9 * h / m
    while dt > bound:
        dt *= 2.0**-0.5
    assert np.all(imex_step(spec, u, dt) <= imex_step(spec, v, dt) + 1e-12)


@pytest.mark.parametrize("m, radius, h", [(1, 1.0, 1.0), (1, 8.0, 0.02), (2, 2.0, 0.2)])
def test_rung_solver_agrees_with_spsolve(m, radius, h):
    spec = closed_form_spec(2.0, m, radius, h)
    rhs = random_smooth_field(spec.grid, 4).values.ravel()
    op = DiscreteOperator(spec)
    for dt in (0.9 * h / m, 1e-3):
        a = op.jacobian(np.zeros(spec.grid.shape), 1.0 / dt)
        ref = spsolve(a.tocsc(), rhs)
        got = solvers._rung_solver(op, dt)(rhs)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)) * a.shape[0]


def test_verify_march_is_pinned_and_holds_no_state(monkeypatch):
    """The march of the verify instance (801 nodes, T = 50) to its rounding floor.

    The step count and the read-offs are pinned bit for bit. Two marches in
    one process agree byte for byte, so no state survives in the arrays a
    march holds, and nothing a march returns shares memory with them.
    """
    shipped = Path(__file__).resolve().parents[1] / "configs" / "verify_suite.cfg"
    spec = build_spec(parse_config(shipped.read_text()))
    work = {}  # the march's field, lap, |p| and rate
    slope_kernel, rung_solver = solvers._slope_kernel, solvers._rung_solver

    def recording_kernel(values, h):
        kernel = slope_kernel(values, h)

        def recorded():
            lap, mag = kernel()
            work.update(u=values, lap=lap, mag=mag)
            return lap, mag

        return recorded

    def recording_rung_solver(op, dt):
        solve = rung_solver(op, dt)

        def recorded(b):
            work["rate"] = b
            return solve(b)

        return recorded

    monkeypatch.setattr(solvers, "_slope_kernel", recording_kernel)
    monkeypatch.setattr(solvers, "_rung_solver", recording_rung_solver)
    runs = []
    for _ in range(2):
        work.clear()
        march = parabolic_march(spec, T=50.0, tol=1e-8)
        returned = (march.profile.values, march.settled.phi.values)
        assert len(work) == 4
        assert not any(np.shares_memory(r, w) for r in returned for w in work.values())
        read_offs = (march.lambda_hat, march.lambda_lo, march.lambda_hi, march.settled.lam)
        runs.append((
            march.n_steps,
            [x.hex() for x in read_offs],
            np.array(march.rate_stats).tobytes(),
            march.profile.values.tobytes(),
            march.settled.phi.values.tobytes(),
        ))
    assert runs[0] == runs[1]
    assert runs[0][0] == 8771
    assert runs[0][1] == [
        "0x1.b772abbf6512ep+0",  # lambda_hat
        "0x1.b772abbf60005p+0",  # lambda_lo
        "0x1.b772abbf75500p+0",  # lambda_hi
        "0x1.b772abc66c80dp+0",  # settled.lam
    ]


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


def test_march_stops_at_its_certified_floor():
    # the horizon lies far beyond the floor: the march stops once the
    # intersection of its per-step enclosures has not shrunk for
    # MARCH_FLOOR_STEPS steps, and that intersection holds Newton's lambda_h
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    march = parabolic_march(spec, T=1e6, tol=1e-7)
    assert march.trace.termination == "floor_reached"
    assert march.n_steps <= 5000
    assert march.settled is not None
    width = march.lambda_hi - march.lambda_lo
    assert 0.0 <= width <= 1e-7
    assert abs(march.lambda_hat - parabolic_march(spec, T=30.0, tol=1e-7).lambda_hat) <= width
    lam = solve_ergodic(spec, tol=1e-10).lam
    assert march.lambda_lo - 1e-12 <= lam <= march.lambda_hi + 1e-12


def test_relative_value_iteration_below_the_floor_raises():
    # tol/2 = 5e-15 lies below the march's rounding floor (about 5e-13 here):
    # the march stops at its floor instead of spending the 2,000,000-step budget
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    with pytest.raises(SolverError) as info:
        solve_ergodic(spec, method="relative_value_iteration", tol=1e-14)
    assert info.value.trace.termination == "rounding_floor"
    assert info.value.trace.records[-1].iteration < 5000
    assert "tol/2 = 5e-15" in str(info.value)


@settings(max_examples=12, deadline=None)
@given(
    m=st.sampled_from([1, 2]),
    theta=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lambda_lies_in_the_comparison_enclosure_of_any_field(m, theta, seed):
    # the scheme is monotone, so for every grid field u discrete comparison
    # gives min(-G_h[u]) <= lambda_h <= max(-G_h[u])
    spec = closed_form_spec(theta, m, 2.0, 0.2)
    lam = solve_ergodic(spec, eikonal_initial_guess(spec), tol=1e-10).lam
    u = random_smooth_field(spec.grid, seed).values
    rate = -DiscreteOperator(spec).residual_values(u, 0.0)
    assert rate.min() - 1e-10 <= lam <= rate.max() + 1e-10


def test_march_step_budget_raises():
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    with pytest.raises(solvers.SolverError) as info:
        parabolic_march(spec, T=30.0, max_steps=10)
    assert info.value.trace.termination == "max_iterations"


def test_march_blow_up_raises_solver_error():
    # H = |p|^2/2 of 1e10 y^2 reaches 3.2e21 at the box edge: past the march's
    # 1e14 runaway bound, yet finite, so no floating-point warning comes first
    spec = ProblemSpec(2.0, 1, make_pure_power_rhs(0.5, 2.0, 1.0), 4.0, 0.1)
    y = spec.grid.axis_coords()
    with pytest.raises(solvers.SolverError) as info:
        parabolic_march(spec, Field(spec.grid, 1e10 * y**2), T=1.0)
    assert info.value.trace.termination == "blow_up"
    assert "blew up" in str(info.value)


def test_march_step_budget_reports_the_current_rate_spread(monkeypatch):
    # the rates settle (spread <= tol/2) long before the step budget runs
    # out, and the error quotes the spread at the step the march stopped on
    monkeypatch.setattr(solvers, "MARCH_RECORD_EVERY", 1)
    spec = ProblemSpec(2.0, 1, make_pure_power_rhs(0.5, 2.0, 1.0), 4.0, 0.05)
    tol, max_steps = 1e-2, 683
    with pytest.raises(solvers.SolverError) as info:
        parabolic_march(spec, T=50.0, tol=tol, max_steps=max_steps)
    last = info.value.trace.records[-1]
    assert last.iteration == max_steps
    assert last.residual_sup < 0.5 * tol
    quoted = float(str(info.value).split("rate spread ")[1].split()[0])
    assert quoted == pytest.approx(last.residual_sup, rel=1e-3)


@pytest.mark.parametrize("shape", [(801,), (61, 61), (13, 17, 9), (3,)])
def test_box_filter_is_scipys_uniform_filter_bit_for_bit(shape):
    from scipy.ndimage import uniform_filter

    for seed in range(3):
        ours = theirs = np.random.default_rng(seed).standard_normal(shape)
        for _ in range(3):
            ours = solvers._box_filter(ours)
            theirs = uniform_filter(theirs, size=5, mode="nearest")
            assert np.array_equal(ours, theirs)


def test_eikonal_guess_matches_asymptotics_on_closed_form():
    spec = closed_form_spec(2.0, 1, 8.0, 0.01)
    guess = eikonal_initial_guess(spec)
    g = spec.grid
    exact = 0.5 * g.axis_coords() ** 2
    far = np.abs(g.axis_coords()) >= 4.0
    rel = np.abs(guess.values[far] - exact[far]) / exact[far]
    assert np.max(rel) <= 0.2
