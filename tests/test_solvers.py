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
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu, spsolve

from ergodic_hjb import solvers
from ergodic_hjb.analysis import check_interior_minimum
from ergodic_hjb.config import build_spec, parse_config
from ergodic_hjb.grid import Field
from ergodic_hjb.problem import ProblemSpec, make_power_rhs, make_pure_power_rhs
from ergodic_hjb.scheme import DiscreteOperator, laplacian_and_slope
from ergodic_hjb.solvers import (
    PTC_TAU0,
    ConvergenceTrace,
    SolverError,
    discounted_lambda_path,
    eikonal_initial_guess,
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


def verify_suite_spec():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "verify_suite.cfg"
    return build_spec(parse_config(shipped.read_text()))


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
    # Howard's iteration diverges: its eleventh full step overflows
    with pytest.raises(SolverError, match="^non-finite step at iteration 11$") as info:
        solve_dirichlet(spec, lam_hat + 5.0, zero_field(spec.grid))
    trace = info.value.trace
    assert trace.termination == "non_finite_step"
    assert trace.records[-1].residual_sup > 1e3 * 1e-8  # far from the default tolerance


# -- discounted -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, seed, eps",
    [((6.0, 1, 4.0, 0.05), 0, 0.1), ((3.0, 1, 4.0, 0.05), 1, 0.025), ((6.0, 2, 3.0, 0.1), 1, 0.1)],
    ids=["theta6-1d", "theta3-1d", "theta6-2d"],
)
def test_discount_stall_goes_on_in_pseudo_time(monkeypatch, case, seed, eps):
    # from these random fields the line search stalls at the first step; the
    # solve then goes on in pseudo-time from PTC_TAU0, as newton_augmented does,
    # and reaches the field the zero start reaches
    spec = closed_form_spec(*case)
    runs = []
    damped_newton = solvers._damped_newton

    def recording(residual_fn, step_fn, x0, tol, max_iter, trace, *args, **kwargs):
        runs.append(trace.records)
        return damped_newton(residual_fn, step_fn, x0, tol, max_iter, trace, *args, **kwargs)

    monkeypatch.setattr(solvers, "_damped_newton", recording)
    phi = solve_discounted(spec, eps, initial_guess=random_smooth_field(spec.grid, seed))
    (records,) = runs
    assert (records[1].iteration, records[1].step_size) == (1, 0.0)
    assert records[2].step_size == PTC_TAU0
    assert all(r.step_size > 0.0 for r in records[2:])
    anchor = spec.anchor_index
    from_zero = solve_discounted(spec, eps)
    assert abs(eps * phi.values[anchor] - eps * from_zero.values[anchor]) <= 1e-8


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
    trace = ConvergenceTrace()
    step = step_fn(None, shift, -op.residual_values(phi, lam).ravel(), 0.0, trace)
    assert trace.linear_counts() == {"factorizations": 1, "reused_steps": 0, "reused_iterations": 0}
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
    trace = ConvergenceTrace()
    d = solvers._reused_solve(a, near, b, 0.0, trace)  # tol 0: only the componentwise bar accepts
    r = np.abs(a @ d - b)
    assert np.all(r <= solvers.REUSE_BACKWARD_ERROR * (abs(a) @ np.abs(d) + np.abs(b)))
    accepted = trace.reused_iterations
    assert 1 <= accepted < solvers.REUSE_ITERATIONS
    jacobi = splu(sp.diags(a.diagonal()).tocsc())  # too far from a for 10 iterations
    assert solvers._reused_solve(a, jacobi, b, 0.0, trace) is None
    # a declined solve counts every iteration it ran; the solve counts no step
    assert trace.reused_iterations == accepted + solvers.REUSE_ITERATIONS
    assert (trace.factorizations, trace.reused_steps) == (0, 0)


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


def held_lu_iterations(sol):
    """GMRES iterations on the held LU over the fine grid and every coarse level."""
    levels = sol.trace.coarse_levels
    return sol.trace.reused_iterations + sum(level["reused_iterations"] for level in levels)


@pytest.mark.parametrize("theta", [2.0, 3.0])
def test_forcing_term_saves_held_lu_iterations_and_keeps_the_fixed_point(theta, monkeypatch):
    # a line-searched step's GMRES stops at FORCING |F|_inf; Howard's full steps
    # keep tol/4, so policy iteration does not move, count for count
    spec = closed_form_spec(theta, 2, 3.0, 0.05)
    guess = eikonal_initial_guess(spec)
    tol = 1e-8
    runs = []
    for forcing in (solvers.FORCING, 0.0):
        monkeypatch.setattr(solvers, "FORCING", forcing)
        runs.append([
            solve_ergodic(spec, initial_guess=guess, method=method, tol=tol)
            for method in ("newton_augmented", "policy_iteration")
        ])
    (inexact, howard), (exact, howard_exact) = runs
    assert inexact.trace.reused_iterations < exact.trace.reused_iterations
    assert held_lu_iterations(inexact) < held_lu_iterations(exact)
    assert abs(inexact.lam - exact.lam) <= inexact.residual_sup + exact.residual_sup
    assert np.max(np.abs(inexact.phi.values - exact.phi.values)) <= 10.0 * tol
    assert howard.trace.reused_iterations == howard_exact.trace.reused_iterations > 0
    assert held_lu_iterations(howard) == held_lu_iterations(howard_exact)
    assert howard.lam == howard_exact.lam
    assert np.array_equal(howard.phi.values, howard_exact.phi.values)


def recorded_bounds(monkeypatch) -> list:
    """(shift, |rhs|_inf, bound) of every linear step from now on, read off step_fn's arguments."""
    calls = []
    linear_step = solvers._linear_step

    def recording_linear_step(*args):
        step = linear_step(*args)

        def recorded(x, shift, rhs, bound, trace):
            calls.append((shift, np.max(np.abs(rhs)), bound))
            return step(x, shift, rhs, bound, trace)

        return recorded

    monkeypatch.setattr(solvers, "_linear_step", recording_linear_step)
    return calls


def test_the_driver_bounds_a_line_searched_steps_linear_residual_by_the_forcing_term(
    monkeypatch
):
    calls = recorded_bounds(monkeypatch)
    tol = 1e-8
    quarter = 0.25 * (0.5 * tol)  # solve_ergodic's driver stops at tol/2
    spec = closed_form_spec(2.0, 2, 3.0, 0.1)
    solve_ergodic(spec, eikonal_initial_guess(spec), tol=tol)
    assert calls and all(shift == 0.0 for shift, _, _ in calls)
    assert all(bound == max(quarter, solvers.FORCING * r) for _, r, bound in calls)
    assert any(bound > quarter for _, _, bound in calls)
    assert any(bound == quarter for _, _, bound in calls)  # the last steps, near tol
    # a stall: line-searched steps up to it, pseudo-time steps (shift 1/tau > 0) after it
    calls.clear()
    cold = closed_form_spec(6.0, 1, 8.0, 0.02)
    sol = solve_ergodic(cold, random_smooth_field(cold.grid, 1), tol=tol)
    stall = [r.step_size for r in sol.trace.records].index(0.0)  # the stalled iteration
    searched, pseudo_time = calls[:stall], calls[stall:]
    assert searched and all(shift == 0.0 for shift, _, _ in searched)
    assert all(bound == max(quarter, solvers.FORCING * r) for _, r, bound in searched)
    assert pseudo_time and all(shift > 0.0 for shift, _, _ in pseudo_time)
    assert all(bound == quarter for _, _, bound in pseudo_time)
    assert solvers.FORCING * pseudo_time[0][1] > quarter


def test_howards_full_steps_keep_a_linear_residual_bound_of_tol_over_4(monkeypatch):
    calls = recorded_bounds(monkeypatch)
    tol = 1e-8
    spec = closed_form_spec(2.0, 2, 3.0, 0.1)
    solve_ergodic(spec, eikonal_initial_guess(spec), method="policy_iteration", tol=tol)
    assert calls and all(bound == 0.25 * (0.5 * tol) for _, _, bound in calls)
    assert solvers.FORCING * calls[0][1] > 0.25 * (0.5 * tol)
    calls.clear()
    box = ProblemSpec(theta=1.5, m=2, rhs=make_power_rhs(1.0, 2.0), radius=2.0, h=0.1)
    data = np.random.default_rng(7).standard_normal(box.grid.shape)
    solve_dirichlet(box, 1.0, Field(box.grid, data), tol=tol)
    assert calls and all(bound == 0.25 * tol for _, _, bound in calls)
    assert solvers.FORCING * calls[0][1] > 0.25 * tol


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
        trace = ConvergenceTrace()
        d = solvers._tridiagonal_step(op, at, keep, ones_at)(None, shift, rhs, 0.0, trace)
        assert (trace.factorizations, trace.reused_steps, trace.reused_iterations) == (1, 0, 0)
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
            solvers._nd_step(op, at, keep, ones_at)(None, shift, rhs, 0.0, ConvergenceTrace()),
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
    trace = ConvergenceTrace()
    d = step(None, 0.0, np.ones(keep.size), 0.0, trace)
    assert np.all(np.isnan(d)) and trace.factorizations == 1


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
    march = solve_ergodic(spec, method="relative_value_iteration")
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
            trace = solvers.ConvergenceTrace(records=records, termination="non_finite_step")
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
            "reused_steps": 0, "reused_iterations": 0, "termination": "non_finite_step",
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


@pytest.mark.parametrize("route", ["dirichlet", "discount", "march"])
def test_a_failed_solve_keeps_its_counts(route):
    # every route raises with the one trace it wrote into, counts included
    spec = verify_suite_spec()
    with pytest.raises(SolverError) as info:
        if route == "dirichlet":  # a level above lambda_R: no solution to step to
            lam = solve_ergodic(spec, eikonal_initial_guess(spec)).lam + 2.0**-7
            solve_dirichlet(spec, lam, zero_field(spec.grid))
        elif route == "discount":  # a tolerance below the rounding floor
            solve_discounted(closed_form_spec(2.0, 1, 8.0, 0.01), 0.1, tol=1e-14)
        else:
            solve_ergodic(spec, method="relative_value_iteration", max_iter=10)
    trace = info.value.trace
    if route == "dirichlet":
        assert trace.termination == "non_finite_step"
        assert trace.factorizations == trace.records[-1].iteration + 1 > 0
        assert trace.reused_steps == 0
    elif route == "discount":
        assert trace.termination == "max_iterations"
        assert trace.factorizations == solvers.DISCOUNTED_MAX_ITER
    else:
        assert trace.termination == "max_iterations"
        assert len(trace.rate_stats) == len(trace.records) == 1


@pytest.mark.parametrize("m", [1, 2])
def test_each_linear_step_is_counted_once(m, monkeypatch):
    # the step counts itself into the trace it is handed, and nothing else counts
    # it: every trace's fresh and held-LU steps add up to the calls it saw
    calls = {}  # id(trace) -> [trace, steps handed that trace]
    linear_step = solvers._linear_step

    def counting_linear_step(*args):
        step = linear_step(*args)

        def counted(x, shift, rhs, bound, trace):
            calls.setdefault(id(trace), [trace, 0])[1] += 1
            return step(x, shift, rhs, bound, trace)

        return counted

    monkeypatch.setattr(solvers, "_linear_step", counting_linear_step)
    spec = closed_form_spec(2.0, m, 3.0, 0.1)  # 61 nodes, or 61 x 61: one level
    newton, howard = (
        solve_ergodic(spec, method=method, tol=1e-8)
        for method in ("newton_augmented", "policy_iteration")
    )
    solve_discounted(spec, 0.1)
    solve_dirichlet(spec, newton.lam - 0.5, zero_field(spec.grid))
    failed = []
    for solve in (
        lambda: solve_dirichlet(spec, newton.lam + 5.0, zero_field(spec.grid)),
        lambda: solve_ergodic(spec, initial_guess=random_smooth_field(spec.grid, 101), max_iter=2),
    ):
        with pytest.raises(SolverError) as info:
            solve()
        failed.append(info.value.trace)
    traces = [trace for trace, _ in calls.values()]
    assert len(traces) == 6
    assert all(any(t is trace for t in traces) for trace in [newton.trace, howard.trace, *failed])
    for trace, n in calls.values():
        assert trace.factorizations + trace.reused_steps == n > 0
        if m == 1:
            assert trace.reused_steps == trace.reused_iterations == 0
    if m == 2:  # the held LU's path is counted too
        assert any(trace.reused_steps > 0 for trace in traces)


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


def test_verify_instance_random_starts_stall_at_once_and_agree():
    """Twenty random fields on the verify instance, each converging in at most 40 records.

    With the line search accepting cuts down to 2^-20 these starts took up
    to 72 records (field 9: 53 cut steps, as small as 2^-18, at a residual
    above 1e3, then a stall); a cut below BACKTRACK_FLOOR = 2^-10 is a
    stall, and pseudo-time finishes from there.
    Each solve agrees with the eikonal-start solve by the rule of
    test_ergodic_uniqueness_from_random_initializations.
    """
    tol = 1e-8
    spec = verify_suite_spec()
    ref = solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=tol)
    for seed in range(1, 21):
        sol = solve_ergodic(spec, initial_guess=random_smooth_field(spec.grid, seed), tol=tol)
        assert sol.residual_sup <= tol
        assert len(sol.trace.records) <= 40, seed
        gap = abs(sol.lam - ref.lam)
        assert gap <= 1e-10 or gap <= sol.residual_sup + ref.residual_sup, (seed, gap)
        diff = sol.phi.values - ref.phi.values
        assert diff.max() - diff.min() <= 10.0 * tol, seed


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
    # u = 0 solves G_h[u] + c = 0: every rate of the zero start is exactly c,
    # so the iteration settles at iteration 0
    c = 1.3
    rhs = make_power_rhs(c, 0.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=2.0, h=0.1)
    march = solve_ergodic(spec, method="relative_value_iteration")
    assert march.trace.records[-1].iteration == 0
    ((_, lo, _, hi),) = march.trace.rate_stats
    assert lo == pytest.approx(c, abs=1e-12)
    assert hi == pytest.approx(c, abs=1e-12)
    assert march.lam == pytest.approx(c, abs=1e-12)
    assert np.allclose(march.phi.values, 0.0, atol=1e-12)


def test_parabolic_stationary_from_exact_profile():
    # boundary nodes adjust to the truncated stencils, so stationarity is a
    # bulk statement: the settled profile stays near the exact one there
    spec = closed_form_spec(2.0, 1, 6.0, 0.05)
    g = spec.grid
    u0 = Field(g, 0.5 * g.axis_coords() ** 2)
    march = solve_ergodic(spec, u0, method="relative_value_iteration")
    assert march.lam == pytest.approx(closed_form_lambda(1), abs=0.05)
    bulk = g.radii() <= 3.0
    drift = (march.phi.values - (u0.values - u0.values[spec.anchor_index]))[bulk]
    assert np.max(np.abs(drift)) <= 0.05
    # interior rates equal the critical value from the very first iterate,
    # up to the upwind bias (at most R h / 2 at the box edge)
    first_max = march.trace.rate_stats[0][3]
    assert first_max == pytest.approx(closed_form_lambda(1), abs=0.5 * 6.0 * g.h + 0.02)


def test_parabolic_time_step_respects_cfl_at_every_step(monkeypatch):
    # theta = 6 from a rough field: max|p| moves fast, so a time step that is
    # refreshed only now and then overshoots the monotonicity bound of the
    # explicit Hamiltonian part. Each record's dt is checked against max|p|
    # of the iterate the kernel saw at that step, taken by laplacian_and_slope.
    theta = 6.0
    spec = closed_form_spec(theta, 1, 8.0, 0.025)
    h, m = spec.h, spec.m
    top = 0.9 * h / m
    maxp = []  # max|p| of each iterate, in the order the kernel saw them
    slope_kernel = solvers._slope_kernel

    def recording_kernel(values, h):
        kernel = slope_kernel(values, h)

        def recorded():
            maxp.append(float(np.max(laplacian_and_slope(values, h)[1])))
            return kernel()

        return recorded

    monkeypatch.setattr(solvers, "_slope_kernel", recording_kernel)
    monkeypatch.setattr(solvers, "MARCH_RECORD_EVERY", 1)
    with pytest.raises(SolverError) as info:
        solve_ergodic(
            spec, random_smooth_field(spec.grid, 1), method="relative_value_iteration", max_iter=500
        )
    assert info.value.trace.termination == "max_iterations"
    records = info.value.trace.records
    assert len(records) == len(maxp) == 501  # no fall-back: one kernel call per record
    for rec, p in zip(records, maxp):
        bound = 0.9 * h / (m * max(1.0, p) ** (theta - 1.0))
        dt = rec.step_size
        assert dt <= bound, f"step {rec.iteration}: dt/bound = {dt / bound}"
        # the largest rung (0.9 h/m) 2^(-k/2) below the bound
        k = round(-2.0 * np.log2(dt / top))
        assert dt == top * 2.0 ** (-0.5 * k), f"step {rec.iteration}: dt {dt} is no rung"
        larger = top * 2.0 ** (-0.5 * (k - 1))
        assert k == 0 or larger > bound, f"step {rec.iteration}: the rung {larger} fits too"


def imex_step(spec, u, dt):
    """u + (I/dt - 1/2 Lap_h)^(-1) (1/2 Lap_h u - H(Du) + f), the exact IMEX step.

    In 1-d it is the march's plain step. For m >= 2 the march splits the
    implicit part by axes (solvers._rung_solver), and its step need not be
    monotone.
    """
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
def test_rung_solver_is_the_axis_split_preconditioner(m, radius, h):
    # P = c^(m-1) kron(A^-1, ..., A^-1) with c = 1/dt and A = c I - 1/2 L, L the
    # 1-d reflecting Laplacian: in 1-d the exact (I/dt - 1/2 Lap_h)^(-1), since
    # Lap_h is the Kronecker sum of the L; and P 1 = dt 1 in every dimension
    spec = closed_form_spec(2.0, m, radius, h)
    n, size = spec.grid.n_per_axis, spec.grid.n_nodes
    rhs = random_smooth_field(spec.grid, 4).values.ravel()
    op = DiscreteOperator(spec)
    lap = np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)
    lap[0, 0] = lap[-1, -1] = -1.0
    lap /= h**2
    kron_sum = sum(functools.reduce(np.kron, [lap if k == j else np.eye(n) for k in range(m)])
                   for j in range(m))
    assert np.array_equal(op.jacobian(np.zeros(spec.grid.shape)).toarray(), -0.5 * kron_sum)
    for dt in (0.9 * h / m, 1e-3):
        solve = solvers._rung_solver(op, dt)
        if m == 1:
            a = op.jacobian(np.zeros(spec.grid.shape), 1.0 / dt)
            ref = spsolve(a.tocsc(), rhs)
        else:
            inv = np.linalg.inv(np.eye(n) / dt - 0.5 * lap)
            ref = dt ** (1 - m) * functools.reduce(np.kron, [inv] * m) @ rhs
        got = solve(rhs)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)) * size
        assert np.max(np.abs(solve(np.ones(size)) - dt)) <= 1e-14 * dt


def test_two_dimensional_march_assembles_no_jacobian_and_no_sparse_lu(monkeypatch):
    spec = closed_form_spec(2.0, 2, 2.0, 0.2)
    tol = 1e-10
    newton = solve_ergodic(spec, eikonal_initial_guess(spec), tol=tol)

    def forbidden(*args, **kwargs):
        raise AssertionError("the march assembled a sparse matrix")

    monkeypatch.setattr(DiscreteOperator, "jacobian", forbidden)
    monkeypatch.setattr(solvers, "splu", forbidden)
    march = solve_ergodic(spec, method="relative_value_iteration", tol=tol)
    assert march.lambda_lo - 1e-12 <= newton.lam <= march.lambda_hi + 1e-12
    assert abs(march.lam - newton.lam) <= tol


def test_verify_relative_value_iteration_is_pinned_and_holds_no_state(monkeypatch):
    """The accelerated relative value iteration of the verify instance.

    The iteration count is pinned exactly and the read-offs to 1e-12
    relative: the Anderson weights are sums over the grid, and numpy builds
    other than this one may round them differently. Two runs in one process
    agree byte for byte, and nothing a run returns shares memory with the
    kernel's arrays, the rate handed to the rung solver or the history rings.
    """
    spec = verify_suite_spec()
    held = {}  # the kernel's field, lap and |p|, the rate, and the history's arrays
    slope_kernel, rung_solver = solvers._slope_kernel, solvers._rung_solver
    history = solvers._AndersonHistory

    def recording_kernel(values, h):
        kernel = slope_kernel(values, h)

        def recorded():
            lap, mag = kernel()
            held.update(u=values, lap=lap, mag=mag)
            return lap, mag

        return recorded

    def recording_rung_solver(op, dt):
        solve = rung_solver(op, dt)

        def recorded(b):
            held["rate"] = b
            return solve(b)

        return recorded

    class RecordingHistory(history):
        def __init__(self, x, anchor):
            super().__init__(x, anchor)
            held.update(x=x, images=self.images, residuals=self.residuals)
            held.update(products=self.products, work=self.work)

    monkeypatch.setattr(solvers, "_slope_kernel", recording_kernel)
    monkeypatch.setattr(solvers, "_rung_solver", recording_rung_solver)
    monkeypatch.setattr(solvers, "_AndersonHistory", RecordingHistory)
    runs = []
    for _ in range(2):
        held.clear()
        march = solve_ergodic(spec, method="relative_value_iteration", tol=1e-8)
        phi = march.phi.values
        assert len(held) == 9
        assert not any(np.shares_memory(phi, w) for w in held.values())
        read_offs = (march.lambda_lo, march.lambda_hi, march.lam)
        runs.append((
            march.trace.records[-1].iteration,
            [x.hex() for x in read_offs],
            np.array(march.trace.rate_stats).tobytes(),
            phi.tobytes(),
        ))
    assert runs[0] == runs[1]
    assert runs[0][0] == 800  # plain steps: 5,275
    pinned = [
        "0x1.b772abbf465f3p+0",  # lambda_lo
        "0x1.b772abc14cf02p+0",  # lambda_hi
        "0x1.b772abc14cf02p+0",  # lam, the mean rate clipped to lambda_hi
    ]
    for got, want in zip(read_offs, pinned):
        assert got == pytest.approx(float.fromhex(want), rel=1e-12, abs=0.0)


def test_2d_relative_value_iteration_is_pinned():
    """The accelerated relative value iteration on a 2-d closed form, pinned as in 1-d.

    Every shipped config is 1-d, so this is where the march's 2-d path (the
    kernel's second axis, reductions over a 2-d field, the rung split by axes
    with ?pttrs on rank-2 right-hand sides) meets a change or another numpy
    and scipy build: a slip that computes a wrong number changes the count or
    the read-offs here.
    """
    march = solve_ergodic(
        closed_form_spec(2.0, 2, 6.0, 0.1), method="relative_value_iteration", tol=1e-8
    )
    assert march.trace.records[-1].iteration == 312
    pinned = [
        "0x1.0736fc16e41ecp+1",  # lambda_lo
        "0x1.0736fc17558aep+1",  # lambda_hi
        "0x1.0736fc17558aep+1",  # lam, the mean rate clipped to lambda_hi
    ]
    for got, want in zip((march.lambda_lo, march.lambda_hi, march.lam), pinned):
        assert got == pytest.approx(float.fromhex(want), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("instance", ["verify", "closed_form_2d"])
def test_settled_lambda_lies_in_the_certified_enclosure(instance):
    # the settled iterate's mean rate may lie outside the running intersection
    # of earlier iterates' rate ranges (by 1.3e-9 on the verify instance), so it
    # is clipped into it, and the last trace record carries the clipped value
    spec = verify_suite_spec() if instance == "verify" else closed_form_spec(2.0, 2, 6.0, 0.1)
    settled = solve_ergodic(spec, method="relative_value_iteration", tol=1e-8)
    assert settled.lambda_lo <= settled.lam <= settled.lambda_hi
    assert settled.trace.records[-1].lambda_estimate == settled.lam
    assert settled.residual_sup <= 1e-8


@pytest.mark.parametrize("theta, m", [(2.0, 1), (1.5, 1), (3.0, 1), (2.0, 2)])
def test_every_routes_enclosure_brackets_lambda(theta, m):
    # Newton's and policy iteration's enclosure is the rate range of their
    # field, relative value iteration's the running intersection of its
    # iterates' ranges; each encloses lambda_h, so the three intersect
    if m == 1:  # f = 1 + |y|^2
        spec = ProblemSpec(theta, 1, make_power_rhs(1.0, 2.0, 0.0), 8.0, 0.02)
    else:
        spec = closed_form_spec(theta, 2, 6.0, 0.1)
    tol = 1e-8
    methods = ("newton_augmented", "policy_iteration", "relative_value_iteration")
    sols = [solve_ergodic(spec, method=method, tol=tol) for method in methods]
    for sol in sols:
        assert sol.lambda_lo <= sol.lam <= sol.lambda_hi, sol.method
        assert sol.lambda_hi - sol.lambda_lo <= tol, sol.method
    assert max(sol.lambda_lo for sol in sols) <= min(sol.lambda_hi for sol in sols)


@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("theta", [1.5, 2.0, 3.0])
def test_every_accelerated_iterate_certifies_newtons_lambda(monkeypatch, theta, m, start):
    # an iterate need not be the image of a monotone step (an Anderson
    # combination is not; for m = 2 the plain step is not monotone either),
    # yet each is a grid field, so its rates enclose lambda_h by comparison
    monkeypatch.setattr(solvers, "MARCH_RECORD_EVERY", 1)
    spec = closed_form_spec(theta, 1, 4.0, 0.1) if m == 1 else closed_form_spec(theta, 2, 2.0, 0.2)
    tol = 1e-10
    newton = solve_ergodic(spec, eikonal_initial_guess(spec), tol=tol)
    u0 = None if start == "zero" else random_smooth_field(spec.grid, 3)
    march = solve_ergodic(spec, u0, method="relative_value_iteration", tol=tol)
    assert len(march.trace.rate_stats) == march.trace.records[-1].iteration + 1
    for _, lo, _, hi in march.trace.rate_stats:
        assert lo - 1e-12 <= newton.lam <= hi + 1e-12
    assert march.lambda_lo - 1e-12 <= newton.lam <= march.lambda_hi + 1e-12
    assert abs(march.lam - newton.lam) <= tol
    d = march.phi.values - newton.phi.values
    assert d.max() - d.min() <= 10.0 * tol


def test_wild_anderson_weights_fall_back_to_plain_images(monkeypatch):
    # a combination so wrong that its rate overflows is replaced by the plain
    # image it was mixed from: the iteration settles as the plain one does
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    tol = 1e-7
    good = solve_ergodic(spec, method="relative_value_iteration", tol=tol)
    calls = []

    def wild(gram, order):
        calls.append(len(order))
        return [1e200] * (len(order) - 1) + [-1e200]

    monkeypatch.setattr(solvers, "_anderson_weights", wild)
    bad = solve_ergodic(spec, method="relative_value_iteration", tol=tol)
    assert calls and set(calls) == {2}  # cleared after every fall-back
    assert bad.residual_sup <= tol
    assert abs(bad.lam - good.lam) <= tol
    assert bad.lambda_lo <= good.lam + tol and good.lam - tol <= bad.lambda_hi
    # every other iterate is a fall-back to a plain image, so it takes about
    # as many plain images as the iteration weighing the newest image alone
    def newest_alone(gram, order):
        return [0.0] * (len(order) - 1) + [1.0]

    monkeypatch.setattr(solvers, "_anderson_weights", newest_alone)
    plain = solve_ergodic(spec, method="relative_value_iteration", tol=tol)
    assert bad.trace.records[-1].iteration == pytest.approx(
        plain.trace.records[-1].iteration, rel=0.01
    )


def test_parabolic_long_run_matches_ergodic_solve():
    # the pair the march settles on is the ergodic solve's: lambda within the
    # march's comparison enclosure, the profile equal up to a constant in the bulk
    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=6.0, h=0.05)
    march = solve_ergodic(spec, method="relative_value_iteration")
    sol = solve_ergodic(spec, tol=1e-8)
    assert march.lam == pytest.approx(sol.lam, abs=0.03)
    assert march.lambda_lo - 1e-9 <= sol.lam <= march.lambda_hi + 1e-9
    mask = spec.grid.radii() <= 3.0
    d = march.phi.values[mask] - sol.phi.values[mask]
    assert d.max() - d.min() <= 0.05


def test_relative_value_iteration_below_the_floor_raises():
    # tol/2 = 5e-15 lies below the march's rounding floor (about 5e-13 here):
    # the march stops at its floor instead of spending the 2,000,000-step budget
    spec = closed_form_spec(2.0, 1, 4.0, 0.1)
    with pytest.raises(SolverError) as info:
        solve_ergodic(spec, method="relative_value_iteration", tol=1e-14)
    assert info.value.trace.termination == "rounding_floor"
    assert info.value.trace.records[-1].iteration < 5000
    assert "tol/2 = 5e-15" in str(info.value)


def test_relative_value_iteration_from_the_eikonal_guess_stops_far_above_its_floor():
    # on this theta 3, alpha 3 box the march from the eikonal guess plateaus
    # (at step 3,539 on numpy 2.4) at a rate spread of 0.24, its mean rate near
    # 2.115 against Newton's 2.2447371; its certified width is 1e10 times the
    # rounding scale, so the stop reports a stall, not the rounding floor. From
    # the zero field it settles in 11,394 iterations, and from Newton's profile,
    # where cross_method's march starts, at step 0. The step moves with the numpy
    # build, so only the termination and the spread are asserted.
    spec = ProblemSpec(3.0, 1, make_power_rhs(0.5, 3.0, 1.0), 8.0, 0.02)
    guess = eikonal_initial_guess(spec)
    with pytest.raises(SolverError) as info:
        solve_ergodic(spec, guess, method="relative_value_iteration", tol=1e-8)
    assert info.value.trace.termination == "stalled"
    assert info.value.trace.records[-1].residual_sup > 0.1


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
        solve_ergodic(spec, method="relative_value_iteration", max_iter=10)
    assert info.value.trace.termination == "max_iterations"


def test_march_blow_up_raises_solver_error():
    # H = |p|^2/2 of 1e10 y^2 reaches 3.2e21 at the box edge: past the march's
    # 1e14 runaway bound, yet finite, so no floating-point warning comes
    # first; the start is a plain iterate, not a combination, so it raises
    # instead of falling back
    spec = ProblemSpec(2.0, 1, make_pure_power_rhs(0.5, 2.0, 1.0), 4.0, 0.1)
    y = spec.grid.axis_coords()
    with pytest.raises(solvers.SolverError) as info:
        solve_ergodic(spec, Field(spec.grid, 1e10 * y**2), method="relative_value_iteration")
    assert info.value.trace.termination == "blow_up"
    assert "blew up" in str(info.value)


def test_march_step_budget_reports_the_current_rate_spread(monkeypatch):
    # the iteration settles (spread <= tol/2) at iteration 20; the budget
    # runs out before that, and the error quotes the spread at the step the
    # iteration stopped on
    monkeypatch.setattr(solvers, "MARCH_RECORD_EVERY", 1)
    spec = ProblemSpec(2.0, 1, make_pure_power_rhs(0.5, 2.0, 1.0), 4.0, 0.05)
    tol, max_steps = 1e-2, 15
    with pytest.raises(solvers.SolverError) as info:
        solve_ergodic(spec, method="relative_value_iteration", tol=tol, max_iter=max_steps)
    last = info.value.trace.records[-1]
    assert last.iteration == max_steps
    assert last.residual_sup > 0.5 * tol
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
