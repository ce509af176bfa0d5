"""Monotone discretization: upwinding, operator residuals, Jacobians."""

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_hjb.grid import Field, Grid
from ergodic_hjb.problem import ProblemSpec, make_power_rhs, make_pure_power_rhs
from ergodic_hjb.scheme import (
    STATE_CONSTRAINT,
    DiscreteOperator,
    drift_field,
    hopf_cole_residual,
    laplacian_values,
    upwind_state,
)
from ergodic_hjb.solvers import eikonal_initial_guess

from oracles import closed_form_spec, convergence_order, dyadic_field, godunov_1d_brute


def flat_rhs(theta=2.0, m=1, radius=1.0, h=0.25, c=1.0):
    rhs = make_power_rhs(c, 0.0, 0.0)  # f identically c
    return ProblemSpec(theta=theta, m=m, rhs=rhs, radius=radius, h=h)


# -- godunov upwinding -----------------------------------------------------------


def test_godunov_vanishes_at_discrete_minimum():
    g = Grid(m=1, radius=1.0, h=0.25)
    state = upwind_state(np.abs(g.axis_coords()), g.h)  # minimum at the origin
    node = g.index_of((0.0,))
    assert state.mag[node] == 0.0
    assert np.array_equal(state.p[(slice(None),) + node], np.zeros(1))


def test_godunov_hand_example_backward_two_forward_three():
    # backward difference 2, forward difference 3 at the middle node: |p| = max(2, -3, 0) = 2
    g = Grid(m=1, radius=1.0, h=0.5)
    i0 = g.index_of((0.0,))[0]
    vals = np.zeros(g.shape)
    vals[i0 - 1] = 1.0 - 2.0 * g.h
    vals[i0] = 1.0
    vals[i0 + 1] = 1.0 + 3.0 * g.h
    state = upwind_state(vals, g.h)
    assert state.mag[i0] == pytest.approx(2.0, abs=1e-14)
    assert state.p[0, i0] == pytest.approx(2.0, abs=1e-14)  # backward branch, positive
    assert godunov_1d_brute(2.0, 3.0) == 2.0


def test_godunov_on_kink_profile():
    # u = |x| at x = h: backward 1, forward 1, slope 1 exactly
    g = Grid(m=1, radius=1.0, h=0.1)
    state = upwind_state(np.abs(g.axis_coords()), g.h)
    assert state.mag[g.index_of((0.1,))] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    back=st.floats(min_value=-10, max_value=10),
    fwd=st.floats(min_value=-10, max_value=10),
)
def test_godunov_matches_definitional_extremum(back, fwd):
    # build a 3-node profile with the prescribed one-sided differences
    g = Grid(m=1, radius=0.5, h=0.5)
    u = np.array([-back * g.h, 0.0, fwd * g.h])
    state = upwind_state(u, g.h)
    assert state.mag[1] == pytest.approx(godunov_1d_brute(back, fwd), abs=1e-12)
    assert abs(state.p[0, 1]) == pytest.approx(state.mag[1], abs=1e-12)


def test_godunov_boundary_uses_only_interior_information():
    g = Grid(m=1, radius=1.0, h=0.5)
    state = upwind_state(np.array([5.0, 0.0, 0.0, 0.0, 7.0]), g.h)
    # left boundary: only the forward arm; slope max(-(-10), 0) = 10, forward sign
    assert state.mag[0] == pytest.approx(10.0)
    assert state.p[0, 0] == pytest.approx(-10.0)
    # right boundary: only the backward arm; slope max(14, 0) = 14, backward sign
    assert state.mag[4] == pytest.approx(14.0)
    assert state.p[0, 4] == pytest.approx(14.0)


# -- operator residual -----------------------------------------------------------


def test_state_constraint_is_the_only_boundary_policy():
    spec = flat_rhs()
    DiscreteOperator(spec, boundary_policy=STATE_CONSTRAINT)
    with pytest.raises(ValueError, match="unknown boundary policy"):
        DiscreteOperator(spec, boundary_policy="dirichlet")


def test_constant_field_residual_is_minus_f():
    spec = flat_rhs(c=2.5, m=2, h=0.5)
    op = DiscreteOperator(spec)
    phi = Field(spec.grid, np.full(spec.grid.shape, 4.0))
    res = op.residual_values(phi.values, 0.0)
    assert np.array_equal(res, np.full(spec.grid.shape, -2.5))


def test_interior_consistency_first_order_quadratic_theta():
    # phi = y^2/2 solves the equation with f = y^2/2 and lambda = 1/2 exactly:
    # -1/2 + |y|^2/2 - y^2/2 + 1/2 = 0; only upwind truncation error remains
    errs = []
    hs = [0.2, 0.1, 0.05, 0.025]
    for h in hs:
        rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=4.0, h=h)
        g = spec.grid
        phi = Field(g, 0.5 * g.axis_coords() ** 2)
        res = DiscreteOperator(spec).residual_values(phi.values, 0.5)
        inner = np.abs(g.axis_coords()) <= 2.0
        errs.append(np.max(np.abs(res[inner])))
    assert convergence_order(hs, errs) >= 0.9


def test_interior_consistency_first_order_cubic_theta():
    # theta = 3: phi = y^2/2, |phi'|^3/3 = |y|^3/3 = f, lambda = 1/2
    errs = []
    hs = [0.2, 0.1, 0.05, 0.025]
    for h in hs:
        rhs = make_pure_power_rhs(1.0 / 3.0, 3.0, 0.0)
        spec = ProblemSpec(theta=3.0, m=1, rhs=rhs, radius=4.0, h=h)
        g = spec.grid
        phi = Field(g, 0.5 * g.axis_coords() ** 2)
        res = DiscreteOperator(spec).residual_values(phi.values, 0.5)
        inner = np.abs(g.axis_coords()) <= 2.0
        errs.append(np.max(np.abs(res[inner])))
    assert convergence_order(hs, errs) >= 0.9


def test_additive_constant_invariance_bitwise_on_dyadic_data():
    # dyadic values and steps make the float arithmetic exact, so the
    # structural invariance shows up as bitwise equality
    spec = flat_rhs(theta=2.0, m=2, radius=1.0, h=0.25)
    op = DiscreteOperator(spec)
    phi = dyadic_field(spec.grid, seed=11)
    shifted = Field(spec.grid, phi.values + 64.0)
    r0 = op.residual_values(phi.values, 0.5)
    r1 = op.residual_values(shifted.values, 0.5)
    assert np.array_equal(r0, r1)


def test_additive_constant_invariance_generic():
    spec = closed_form_spec(1.5, 1, 4.0, 0.1)
    op = DiscreteOperator(spec)
    rng = np.random.default_rng(0)
    phi = Field(spec.grid, rng.standard_normal(spec.grid.shape))
    shifted = Field(spec.grid, phi.values + np.pi)
    r0 = op.residual_values(phi.values, 0.3)
    r1 = op.residual_values(shifted.values, 0.3)
    assert np.max(np.abs(r0 - r1)) <= 1e-12 * max(1.0, np.max(np.abs(r0)))


def test_lambda_linearity_bitwise_on_dyadic_data():
    spec = flat_rhs(theta=2.0, m=1, radius=1.0, h=0.25)
    op = DiscreteOperator(spec)
    phi = dyadic_field(spec.grid, seed=5)
    lam = 0.5
    r_lam = op.residual_values(phi.values, lam)
    r_zero = op.residual_values(phi.values, 0.0)
    assert np.array_equal(r_lam - r_zero, np.full(spec.grid.shape, lam))


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_lambda_linearity_generic(lam):
    spec = flat_rhs(theta=1.5, m=1, radius=1.0, h=0.25)
    op = DiscreteOperator(spec)
    rng = np.random.default_rng(1)
    phi = Field(spec.grid, rng.standard_normal(spec.grid.shape))
    diff = op.residual_values(phi.values, lam) - op.residual_values(phi.values, 0.0)
    assert np.max(np.abs(diff - lam)) <= 1e-12 * max(1.0, abs(lam))


def monotonicity_violations(spec, trials, seed):
    """Degenerate ellipticity: u <= v with u(x0) = v(x0) forces G[u](x0) >= G[v](x0)."""
    op = DiscreteOperator(spec)
    rng = np.random.default_rng(seed)
    shape = spec.grid.shape
    violations = 0
    for _ in range(trials):
        u = rng.standard_normal(shape)
        bump = rng.uniform(0.0, 1.0, size=shape)
        x0 = tuple(rng.integers(0, n) for n in shape)
        bump[x0] = 0.0
        v = u + bump
        gu = op.residual_values(u, 0.0)[x0]
        gv = op.residual_values(v, 0.0)[x0]
        if gu < gv - 1e-10:
            violations += 1
    return violations


def test_monotonicity_randomized_no_violations():
    spec1 = closed_form_spec(2.0, 1, 2.0, 0.25)
    spec2 = closed_form_spec(1.5, 2, 1.0, 0.25)
    assert monotonicity_violations(spec1, 500, seed=42) == 0
    assert monotonicity_violations(spec2, 500, seed=43) == 0


# -- optimal drift ----------------------------------------------------------------


def test_drift_zero_gradient_gives_zero():
    g = Grid(m=2, radius=1.0, h=0.5)
    b = drift_field(np.zeros(g.shape), g.h, theta=1.5)
    assert np.array_equal(b[:, 1, 1], np.zeros(2))


def test_drift_quadratic_hamiltonian_is_identity():
    g = Grid(m=1, radius=2.0, h=0.25)
    b = drift_field(3.0 * g.axis_coords(), g.h, theta=2.0)  # slope 3 everywhere
    assert b[0][g.index_of((1.0,))] == pytest.approx(3.0, abs=1e-13)


def test_drift_cubic_hamiltonian_hand_value():
    # theta = 3, p = (2, 0): b = |p| p = (4, 0)
    g = Grid(m=2, radius=1.0, h=0.5)
    xx, _ = g.meshgrid()
    b = drift_field(2.0 * xx, g.h, theta=3.0)
    assert np.allclose(b[:, 1, 1], [4.0, 0.0], atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=1.05, max_value=4.0),
    p1=st.floats(min_value=-8.0, max_value=8.0),
    p2=st.floats(min_value=-8.0, max_value=8.0),
)
def test_fenchel_equality(theta, p1, p2):
    # b = |p|^(theta-2) p attains sup_b [b.p - |b|^theta*/theta*] = |p|^theta/theta
    p = np.array([p1, p2])
    norm = np.linalg.norm(p)
    if norm <= 1e-8:
        return
    theta_star = theta / (theta - 1.0)
    b = norm ** (theta - 2.0) * p
    lhs = float(np.dot(b, p)) - np.linalg.norm(b) ** theta_star / theta_star
    rhs = norm**theta / theta
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_drift_field_fenchel_on_solver_state():
    spec = closed_form_spec(3.0, 1, 4.0, 0.05)
    g = spec.grid
    phi = Field(g, 0.5 * g.axis_coords() ** 2)
    state = upwind_state(phi.values, g.h)
    b = drift_field(phi.values, g.h, spec.theta)
    theta_star = spec.theta_star
    mask = state.mag > 1e-8
    lhs = np.sum(b * state.p, axis=0) - np.linalg.norm(b, axis=0) ** theta_star / theta_star
    rhs = state.mag**spec.theta / spec.theta
    rel = np.abs(lhs - rhs)[mask] / np.maximum(1.0, rhs[mask])
    assert np.max(rel) <= 1e-12


# -- transformed-equation residual ---------------------------------------------------


def test_hopf_cole_zero_for_constant_solution():
    # f identically lambda and phi constant: z is constant and the residual vanishes
    spec = flat_rhs(c=1.5, m=1, radius=1.0, h=0.25)
    phi = Field(spec.grid, np.full(spec.grid.shape, 0.7))
    res = hopf_cole_residual(phi, 1.5, spec)
    assert np.array_equal(res.values, np.zeros(spec.grid.shape))


def test_hopf_cole_second_order_on_exact_solution():
    # centered differences throughout: the only residual is O(h^2) scheme error
    hs = [0.2, 0.1, 0.05, 0.025]
    errs = []
    for h in hs:
        rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
        spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=3.0, h=h)
        g = spec.grid
        phi = Field(g, 0.5 * g.axis_coords() ** 2)
        res = hopf_cole_residual(phi, 0.5, spec)
        inner = np.abs(g.axis_coords()) <= 1.5
        errs.append(np.max(np.abs(res.values[inner])))
    assert convergence_order(hs, errs) >= 1.9


def test_hopf_cole_nonsolution_residual_converges_to_symbolic_value():
    # phi = cos(y) does not solve the equation; the transformed residual at a
    # point converges to its symbolic value (computed with sympy), nonzero.
    y0 = 0.75
    lam = 0.3
    theta = 2.0
    y = sp.Symbol("y", real=True)
    phi_expr = sp.cos(y)
    z = -sp.exp(-phi_expr)
    f_expr = 0.5 * y**2  # f = y^2/2
    q = sp.Abs(sp.diff(z, y) / z)
    n_term = z * (sp.Rational(1, 2) * q**2 - q**theta / theta + f_expr - lam)
    res_expr = -sp.Rational(1, 2) * sp.diff(z, y, 2) + n_term
    oracle = float(res_expr.subs(y, y0))
    assert abs(oracle) > 0.05  # genuinely bounded away from zero

    rhs = make_pure_power_rhs(0.5, 2.0, 0.0)
    vals = []
    for h in (0.05, 0.025):
        spec = ProblemSpec(theta=theta, m=1, rhs=rhs, radius=3.0, h=h)
        g = spec.grid
        phi = Field(g, np.cos(g.axis_coords()))
        res = hopf_cole_residual(phi, lam, spec)
        vals.append(res.values[g.index_of((y0,))])
    assert vals[-1] == pytest.approx(oracle, rel=2e-3)


def test_hopf_cole_overflow_guard():
    spec = flat_rhs()
    phi = Field(spec.grid, np.full(spec.grid.shape, -800.0))
    with pytest.raises(OverflowError, match="renormalize"):
        hopf_cole_residual(phi, 0.0, spec)


# -- linearization ----------------------------------------------------------------


def test_jacobian_at_zero_field_is_half_laplacian():
    spec = flat_rhs(theta=2.0, m=2, radius=1.0, h=0.25)
    op = DiscreteOperator(spec)
    g = spec.grid
    jac = op.jacobian(np.zeros(g.shape))
    rng = np.random.default_rng(8)
    v = rng.standard_normal(g.shape)
    action = (jac @ v.ravel()).reshape(g.shape)
    assert np.allclose(action, -0.5 * laplacian_values(v, g.h), atol=1e-10)


def test_jacobian_annihilates_constants():
    spec = closed_form_spec(2.0, 1, 4.0, 0.05)
    op = DiscreteOperator(spec)
    g = spec.grid
    rng = np.random.default_rng(9)
    phi = Field(g, rng.standard_normal(g.shape))
    jac = op.jacobian(phi.values)
    action = jac @ np.ones(g.n_nodes)
    assert np.max(np.abs(action)) <= 1e-8  # rounding on 1/h^2-scale entries


@pytest.mark.parametrize("theta", [1.5, 2.0, 3.0])
def test_jacobian_matches_finite_differences(theta):
    spec = closed_form_spec(theta, 1, 2.0, 0.1)
    op = DiscreteOperator(spec)
    g = spec.grid
    rng = np.random.default_rng(12)
    base = rng.standard_normal(g.shape).cumsum() * 0.3  # smooth-ish, no exact ties
    phi = Field(g, base)
    jac = op.jacobian(phi.values)
    step = 1e-6
    for trial in range(5):
        direction = rng.standard_normal(g.shape)
        plus = op.residual_values(base + step * direction, 0.0)
        minus = op.residual_values(base - step * direction, 0.0)
        fd = (plus - minus) / (2.0 * step)
        action = (jac @ direction.ravel()).reshape(g.shape)
        denom = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(action - fd)) / denom <= 1e-5


def test_jacobian_matches_finite_differences_2d():
    spec = closed_form_spec(2.0, 2, 1.0, 0.25)
    op = DiscreteOperator(spec)
    g = spec.grid
    rng = np.random.default_rng(13)
    base = rng.standard_normal(g.shape)
    jac = op.jacobian(base)
    step = 1e-6
    direction = rng.standard_normal(g.shape)
    fd = (op.residual_values(base + step * direction, 0.0)
          - op.residual_values(base - step * direction, 0.0)) / (2 * step)
    action = (jac @ direction.ravel()).reshape(g.shape)
    assert np.max(np.abs(action - fd)) / max(np.max(np.abs(fd)), 1.0) <= 1e-5


@pytest.mark.parametrize("m", [1, 2])
def test_jacobian_shift_is_added_to_the_diagonal(m):
    spec = closed_form_spec(1.5, m, 1.0, 0.1)
    op = DiscreteOperator(spec)
    g = spec.grid
    base = np.random.default_rng(14).standard_normal(g.shape)
    for shift in (0.05, 100.0):
        shifted = op.jacobian(base, shift)
        expected = op.jacobian(base) + shift * sparse.identity(g.n_nodes, format="csr")
        assert np.array_equal(shifted.indptr, expected.indptr)
        assert np.array_equal(shifted.indices, expected.indices)
        assert shifted.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jacobian_pattern_is_independent_of_the_field(m):
    # 2m+1 arms per node less the out-of-grid ones, whatever the drift
    spec = closed_form_spec(3.0, m, 1.0, 0.25)
    op = DiscreteOperator(spec)
    g = spec.grid
    k = g.shape[0]
    fields = [
        np.zeros(g.shape),
        eikonal_initial_guess(spec).values,
        np.random.default_rng(15).standard_normal(g.shape),
    ]
    jacs = [op.jacobian(v) for v in fields]
    for jac in jacs:
        assert jac.has_canonical_format
        assert jac.nnz == g.n_nodes + 2 * m * (k - 1) * k ** (m - 1)
        assert np.array_equal(jac.indptr, jacs[0].indptr)
        assert np.array_equal(jac.indices, jacs[0].indices)
