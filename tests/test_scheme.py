"""Monotone discretization: upwinding, operator residuals, Jacobians."""

import numpy as np
import pytest
import scipy.sparse as sparse
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_hjb import scheme, solvers
from ergodic_hjb.grid import Field, Grid
from ergodic_hjb.problem import ProblemSpec, make_power_rhs, make_pure_power_rhs
from ergodic_hjb.scheme import (
    STATE_CONSTRAINT,
    DiscreteOperator,
    drift_field,
    laplacian_and_slope,
)
from ergodic_hjb.solvers import (
    PTC_TAU0,
    ConvergenceTrace,
    SolverError,
    eikonal_initial_guess,
    random_smooth_field,
    solve_ergodic,
)

from oracles import (
    closed_form_spec,
    convergence_order,
    dyadic_field,
    godunov_1d_brute,
    hopf_cole_residual,
    jacobian_diagonals_brute,
)


def flat_rhs(theta=2.0, m=1, radius=1.0, h=0.25, c=1.0):
    rhs = make_power_rhs(c, 0.0, 0.0)  # f identically c
    return ProblemSpec(theta=theta, m=m, rhs=rhs, radius=radius, h=h)


# -- godunov upwinding -----------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2])
def test_every_difference_goes_through_one_sided(monkeypatch, m):
    # the reflecting boundary is written once: the residual, the Jacobian's
    # diagonals (through the drift), the drift and a march step each take their
    # differences from scheme._one_sided, once a call
    spec = closed_form_spec(2.0, m, 1.0, 0.25)
    values = random_smooth_field(spec.grid, 0).values
    op = DiscreteOperator(spec)
    differenced = []
    one_sided = scheme._one_sided

    def recording(values, h):
        differenced.append(values.shape)
        return one_sided(values, h)

    monkeypatch.setattr(scheme, "_one_sided", recording)
    calls = {
        "residual_values": lambda: op.residual_values(values, 0.0),
        "_diagonals": lambda: op._diagonals(values, 0.0),
        "drift_field": lambda: drift_field(values, spec.h, spec.theta),
    }
    for name, call in calls.items():
        differenced.clear()
        call()
        assert differenced == [values.shape], name
    differenced.clear()
    with pytest.raises(SolverError):  # one step from the zero field, then the budget is spent
        solve_ergodic(spec, method="relative_value_iteration", max_iter=1)
    # the iterates at steps 0 and 1, and between them the rung's 1-d factor at a zero axis
    assert differenced == [values.shape, (spec.grid.n_per_axis,), values.shape]


def test_godunov_vanishes_at_discrete_minimum():
    g = Grid(m=1, radius=1.0, h=0.25)
    u = np.abs(g.axis_coords())  # minimum at the origin
    node = g.index_of((0.0,))
    assert laplacian_and_slope(u, g.h)[1][node] == 0.0
    assert np.array_equal(drift_field(u, g.h, 2.0)[(slice(None),) + node], np.zeros(1))


def test_godunov_hand_example_backward_two_forward_three():
    # backward difference 2, forward difference 3 at the middle node: |p| = max(2, -3, 0) = 2
    g = Grid(m=1, radius=1.0, h=0.5)
    i0 = g.index_of((0.0,))[0]
    vals = np.zeros(g.shape)
    vals[i0 - 1] = 1.0 - 2.0 * g.h
    vals[i0] = 1.0
    vals[i0 + 1] = 1.0 + 3.0 * g.h
    assert laplacian_and_slope(vals, g.h)[1][i0] == pytest.approx(2.0, abs=1e-14)
    # backward branch, positive
    assert drift_field(vals, g.h, 2.0)[0, i0] == pytest.approx(2.0, abs=1e-14)
    assert godunov_1d_brute(2.0, 3.0) == 2.0


def test_godunov_on_kink_profile():
    # u = |x| at x = h: backward 1, forward 1, slope 1 exactly
    g = Grid(m=1, radius=1.0, h=0.1)
    mag = laplacian_and_slope(np.abs(g.axis_coords()), g.h)[1]
    assert mag[g.index_of((0.1,))] == pytest.approx(1.0, abs=1e-14)


slopes = st.one_of(st.floats(min_value=-10, max_value=10), st.integers(-3, 3).map(float))


@settings(max_examples=300, deadline=None)
@given(back=slopes, fwd=slopes, tie=st.booleans())
def test_godunov_matches_definitional_extremum(back, fwd, tie):
    # build a 3-node profile with the prescribed one-sided differences; integer
    # differences and fwd = -back make the two candidates tie exactly
    if tie:
        fwd = -back
    g = Grid(m=1, radius=0.5, h=0.5)
    u = np.array([-back * g.h, 0.0, fwd * g.h])
    mag, p = laplacian_and_slope(u, g.h)[1], drift_field(u, g.h, 2.0)
    assert mag[1] == pytest.approx(godunov_1d_brute(back, fwd), abs=1e-12)
    # the sign of the difference that won, the backward one on a tie (the
    # Jacobian's branch follows it); D^-u, D^+u as the grid holds them
    dm, dp = (u[1] - u[0]) / g.h, (u[2] - u[1]) / g.h
    if dm >= -dp and dm > 0:
        assert p[0, 1] == dm
    elif -dp > dm and -dp > 0:
        assert p[0, 1] == dp
    else:
        assert p[0, 1] == 0.0


def separate_laplacian(values, h):
    """The Laplacian as its own pass over the axes, padding with concatenate."""
    m = values.ndim
    lap = np.zeros(values.shape)
    for a in range(m):
        d = np.diff(values, axis=a) / h
        pad = list(values.shape)
        pad[a] = 1
        zeros = np.zeros(pad)
        lap += (np.concatenate([d, zeros], axis=a) - np.concatenate([zeros, d], axis=a)) / h
    return lap


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fused_kernel_equals_the_separate_formulas_bitwise(m):
    # Newton needs the residual's |p| to be the magnitude of the slopes the
    # Jacobian's drift is built from (drift_field at theta = 2 is p itself).
    # Integer-valued fields make the backward and forward candidates tie.
    n = {1: 41, 2: 17, 3: 9}[m]
    rng = np.random.default_rng(m)
    fields = [np.full((n,) * m, 2.5), np.zeros((n,) * m)]
    for _ in range(5):
        fields.append(rng.standard_normal((n,) * m) * rng.uniform(0.1, 10.0))
        fields.append(rng.integers(-2, 3, (n,) * m).astype(float))
    for h in (1.0, 0.1):
        for u in fields:
            lap, mag = laplacian_and_slope(u, h)
            assert np.array_equal(lap, separate_laplacian(u, h))
            assert np.array_equal(mag, np.sqrt(np.sum(drift_field(u, h, 2.0) ** 2, axis=0)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_and_upwind_state_agree_next_to_nan_nodes(m):
    # the upwind state the Jacobian reads is drift_field's p (theta = 2);
    # a NaN arm makes the slope NaN in both: NaN residual and NaN Jacobian rows
    n = {1: 41, 2: 17, 3: 9}[m]
    rng = np.random.default_rng(10 + m)
    for _ in range(5):
        u = rng.standard_normal((n,) * m)
        u.flat[rng.choice(u.size, 3, replace=False)] = np.nan
        for h in (1.0, 0.1):
            lap, mag = laplacian_and_slope(u, h)
            p = drift_field(u, h, 2.0)
            assert np.isnan(mag).sum() > 3  # the NaN nodes and their neighbours
            assert np.array_equal(lap, separate_laplacian(u, h), equal_nan=True)
            assert np.array_equal(np.sqrt(np.sum(p**2, axis=0)), mag, equal_nan=True)
            assert np.array_equal(np.isnan(p).any(axis=0), np.isnan(mag))


def test_godunov_boundary_uses_only_interior_information():
    g = Grid(m=1, radius=1.0, h=0.5)
    u = np.array([5.0, 0.0, 0.0, 0.0, 7.0])
    mag, p = laplacian_and_slope(u, g.h)[1], drift_field(u, g.h, 2.0)
    # left boundary: only the forward arm; slope max(-(-10), 0) = 10, forward sign
    assert mag[0] == pytest.approx(10.0)
    assert p[0, 0] == pytest.approx(-10.0)
    # right boundary: only the backward arm; slope max(14, 0) = 14, backward sign
    assert mag[4] == pytest.approx(14.0)
    assert p[0, 4] == pytest.approx(14.0)


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
    mag, p = laplacian_and_slope(phi.values, g.h)[1], drift_field(phi.values, g.h, 2.0)
    b = drift_field(phi.values, g.h, spec.theta)
    theta_star = spec.theta_star
    mask = mag > 1e-8
    lhs = np.sum(b * p, axis=0) - np.linalg.norm(b, axis=0) ** theta_star / theta_star
    rhs = mag**spec.theta / spec.theta
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
    assert np.allclose(action, -0.5 * laplacian_and_slope(v, g.h)[0], atol=1e-10)


def test_jacobian_annihilates_constants():
    spec = closed_form_spec(2.0, 1, 4.0, 0.05)
    op = DiscreteOperator(spec)
    g = spec.grid
    rng = np.random.default_rng(9)
    phi = Field(g, rng.standard_normal(g.shape))
    jac = op.jacobian(phi.values)
    action = jac @ np.ones(g.n_nodes)
    assert np.max(np.abs(action)) <= 1e-8  # rounding on 1/h^2-scale entries


def kink_distance(values, h):
    """Least distance of a one-sided slope from 0 and of back + fwd from a tie, over all axes."""
    out = np.inf
    for a in range(values.ndim):
        u = values.swapaxes(0, a)
        slopes = np.diff(u, axis=0) / h
        out = min(out, np.min(np.abs(slopes)), np.min(np.abs(slopes[:-1] + slopes[1:])))
    return out


@pytest.mark.parametrize("theta", [1.1, 1.5, 2.0, 3.0, 6.0])
def test_jacobian_matches_finite_differences(theta):
    spec = closed_form_spec(theta, 1, 2.0, 0.1)
    op = DiscreteOperator(spec)
    g = spec.grid
    rng = np.random.default_rng(12)
    base = rng.standard_normal(g.shape).cumsum() * 0.3  # smooth-ish, no exact ties
    # the upwind choice and |p|^(theta-2) are smooth within a step's reach
    assert kink_distance(base, g.h) > 0.05
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
    # off theta = 2 each axis's drift |p|^(theta-2) p_a couples to the other axis's slope
    g = Grid(m=2, radius=1.0, h=0.25)
    rng = np.random.default_rng(13)
    base = rng.standard_normal(g.shape)
    assert kink_distance(base, g.h) > 0.05
    step = 1e-6
    direction = rng.standard_normal(g.shape)
    for theta in (1.5, 2.0, 3.0):
        op = DiscreteOperator(closed_form_spec(theta, 2, 1.0, 0.25))
        jac = op.jacobian(base)
        fd = (op.residual_values(base + step * direction, 0.0)
              - op.residual_values(base - step * direction, 0.0)) / (2 * step)
        action = (jac @ direction.ravel()).reshape(g.shape)
        assert np.max(np.abs(action - fd)) / max(np.max(np.abs(fd)), 1.0) <= 1e-5, theta


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


def jacobian_fields(spec):
    """Zero, eikonal, rough, one-NaN-node, 1e150- and 1e-300-scaled fields on spec's grid."""
    g = spec.grid
    rough = np.random.default_rng(15).standard_normal(g.shape)
    nan_node = rough.copy()
    nan_node.flat[g.n_nodes // 3] = np.nan
    return [
        np.zeros(g.shape),
        eikonal_initial_guess(spec).values,
        rough,
        nan_node,
        1e150 * rough,
        1e-300 * rough,
    ]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jacobian_pattern_is_independent_of_the_field(m):
    # 2m+1 arms per node less the out-of-grid ones, whatever the drift
    spec = closed_form_spec(3.0, m, 1.0, 0.25)
    op = DiscreteOperator(spec)
    g = spec.grid
    k = g.shape[0]
    # the conversion from diagonals drops zeros: none of these may lose an arm
    fields = jacobian_fields(spec)
    jacs = [op.jacobian(v, shift) for v in fields for shift in (0.0, 1.0 / PTC_TAU0)]
    for jac in jacs:
        assert jac.has_canonical_format
        assert jac.nnz == g.n_nodes + 2 * m * (k - 1) * k ** (m - 1)
        assert np.array_equal(jac.indptr, jacs[0].indptr)
        assert np.array_equal(jac.indices, jacs[0].indices)


@pytest.mark.parametrize("theta", [1.1, 1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_diagonals_are_the_per_node_reference_byte_for_byte(m, theta):
    # _diagonals against a loop over nodes and axes in the same float order: besides
    # jacobian_fields, a checkerboard of ties in the Godunov slope at every interior
    # node (back = -fwd on each axis), NaN at an end node (a NaN arm next to an
    # off-grid one), and slopes whose squares overflow, where |p| is the root of the
    # summed squares: inf, not |p|. A NaN entry is compared as NaN only: its sign
    # comes from NaN * NaN, whose operand order the compiled loop is free to choose
    spec = closed_form_spec(theta, m, 1.0, 0.25)
    op = DiscreteOperator(spec)
    g = spec.grid
    rough = np.random.default_rng(16).standard_normal(g.shape)
    ties = np.indices(g.shape).sum(axis=0) % 2.0
    nan_end = rough.copy()
    nan_end.flat[-1] = np.nan
    fields = jacobian_fields(spec) + [ties, -ties, nan_end, 1e160 * rough, 1e160 * ties]
    for v in fields:
        for shift in (0.0, 1.0 / PTC_TAU0):
            with np.errstate(over="ignore", invalid="ignore"):
                bands = op._diagonals(v, shift)
                reference = jacobian_diagonals_brute(v, spec.h, theta, shift)
            assert sorted(bands) == sorted(reference)
            for k, expected in reference.items():
                nan = np.isnan(expected)
                assert np.array_equal(np.isnan(bands[k]), nan)
                assert bands[k][~nan].tobytes() == expected[~nan].tobytes()


def test_tridiagonal_step_reads_the_jacobians_diagonals(monkeypatch):
    # a 1-d step factors the operator's diagonals without building the CSR
    # matrix: they must be the matrix's, byte for byte
    spec = closed_form_spec(3.0, 1, 1.0, 0.25)
    op = DiscreteOperator(spec)
    n = spec.grid.n_nodes
    read = []
    tridiagonal_solve = solvers._tridiagonal_solve

    def recording_solve(dl, d, du, b):
        read.append((dl.copy(), d.copy(), du.copy()))
        return tridiagonal_solve(dl, d, du, b)

    monkeypatch.setattr(solvers, "_tridiagonal_solve", recording_solve)
    for v in jacobian_fields(spec):
        for shift in (0.0, 1.0 / PTC_TAU0):
            step = solvers._tridiagonal_step(op, lambda x, s: (v, s), np.arange(n))
            trace = ConvergenceTrace()
            step(None, shift, np.ones(n), 0.0, trace)
            assert (trace.factorizations, trace.reused_steps, trace.reused_iterations) == (1, 0, 0)
            jac = op.jacobian(v, shift)
            for diagonal, k in zip(read.pop(), (-1, 0, 1)):
                assert diagonal.tobytes() == jac.diagonal(k).tobytes()
