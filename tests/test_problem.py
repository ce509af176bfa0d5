"""Right-hand-side families and structural hypothesis validation."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_hjb.grid import Grid
from ergodic_hjb.problem import (
    ProblemSpec,
    blend_rhs,
    make_power_rhs,
    make_pure_power_rhs,
)

from oracles import centered_fd_gradient, convergence_order


def sympy_power_gradient(c, alpha, point):
    """Symbolic-differentiation oracle for the smooth power family."""
    m = len(point)
    ys = sp.symbols(f"y0:{m}", real=True)
    f = c * (1 + sum(y**2 for y in ys)) ** (sp.nsimplify(alpha) / 2)
    grads = [sp.diff(f, y) for y in ys]
    subs = dict(zip(ys, point))
    return np.array([float(g.subs(subs)) for g in grads])


def test_constant_case_alpha_zero():
    rhs = make_power_rhs(1.0, 0.0, 0.0)
    ys = np.array([[0.0], [0.7], [-3.0]])
    assert np.array_equal(rhs.evaluate(ys), np.ones(3))
    assert np.array_equal(rhs.gradient(ys), np.zeros((3, 1)))


def test_quadratic_case_matches_symbolic_oracle():
    rhs = make_power_rhs(1.0, 2.0, 0.0)
    y = np.array([0.8, -1.3])
    assert rhs.value_at(y) == pytest.approx(1.0 + np.dot(y, y), abs=1e-14)
    # Df = 2y, both by hand and by the symbolic oracle
    assert np.allclose(rhs.gradient(np.atleast_2d(y))[0], 2 * y, atol=1e-14)
    assert np.allclose(sympy_power_gradient(1, 2, y), 2 * y, atol=1e-12)
    # two-sided growth constant is exactly 1 for this instance
    assert rhs.f0 == pytest.approx(1.0, abs=1e-12)


def test_quartic_case_at_unit_diagonal_matches_symbolic_oracle():
    # f = (1 + |y|^2)^2 at y = (1, 1): value 9; |Df| = |4 (1+|y|^2) y| = 12 sqrt(2).
    rhs = make_power_rhs(1.0, 4.0, 0.0)
    y = np.array([1.0, 1.0])
    assert rhs.value_at(y) == pytest.approx(9.0, abs=1e-12)
    oracle = sympy_power_gradient(1, 4, y)
    assert np.linalg.norm(oracle) == pytest.approx(12.0 * np.sqrt(2.0), abs=1e-10)
    assert np.allclose(rhs.gradient(np.atleast_2d(y))[0], oracle, atol=1e-10)


def test_power_rhs_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_power_rhs(0.0, 2.0)
    with pytest.raises(ValueError):
        make_power_rhs(-1.0, 2.0)
    with pytest.raises(ValueError):
        make_power_rhs(1.0, -0.5)
    with pytest.raises(ValueError):
        make_pure_power_rhs(1.0, 0.5)  # non-Lipschitz at 0; smooth form exists for that


def test_pure_power_gradient_and_origin_convention():
    rhs = make_pure_power_rhs(2.0, 3.0, 0.5)
    y = np.array([1.0, -2.0])
    r = np.linalg.norm(y)
    assert rhs.value_at(y) == pytest.approx(2.0 * r**3 + 0.5, rel=1e-14)
    assert np.allclose(rhs.gradient(np.atleast_2d(y))[0], 2.0 * 3.0 * r * y, rtol=1e-14)
    assert np.array_equal(rhs.gradient(np.atleast_2d(np.zeros(2)))[0], np.zeros(2))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_radial_value_of_a_scalar_is_one_value(m):
    for rhs in (make_power_rhs(1.0, 2.0), make_pure_power_rhs(2.0, 3.0, 0.5)):
        for t in (0.0, 1.0, 2.5):
            val = rhs.radial_value(t, m)
            assert np.shape(val) == ()
            assert val == rhs.value_at([t] + [0.0] * (m - 1))
        ts = np.array([0.0, 1.0, 2.5])
        assert rhs.radial_value(ts, m).shape == ts.shape


def test_blend_endpoints_return_operands():
    f1 = make_power_rhs(1.0, 2.0, 0.0)
    f2 = make_power_rhs(3.0, 2.0, 0.0)
    assert blend_rhs(f1, f2, 1.0) is f1
    assert blend_rhs(f1, f2, 0.0) is f2


def test_blend_midpoint_value():
    # f1 = 1 + |y|^2, f2 = 3 + 3|y|^2... use shifts so f2(0) = 3: value at 0 is 2
    f1 = make_power_rhs(1.0, 2.0, 0.0)
    f2 = make_power_rhs(1.0, 2.0, 2.0)
    b = blend_rhs(f1, f2, 0.5)
    assert b.value_at(np.zeros(1)) == pytest.approx(2.0, abs=1e-14)


def test_blend_rejects_weight_outside_unit_interval():
    f1 = make_power_rhs(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        blend_rhs(f1, f1, 1.5)
    with pytest.raises(ValueError):
        blend_rhs(f1, f1, -0.1)


@settings(max_examples=100, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=-20.0, max_value=20.0),
)
def test_blend_is_affine_combination(t, y):
    f1 = make_power_rhs(1.0, 2.0, 0.0)
    f2 = make_pure_power_rhs(2.0, 4.0, 1.0)
    b = blend_rhs(f1, f2, t)
    expected = t * f1.value_at([y]) + (1 - t) * f2.value_at([y])
    assert b.value_at([y]) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_power_minimum_at_origin_and_shell_coercivity():
    rhs = make_pure_power_rhs(0.5, 2.0, shift=1.0)
    assert rhs.min_value() == 1.0
    grid = Grid(m=2, radius=8.0, h=0.5)
    vals = rhs.evaluate(grid.points()).reshape(grid.shape)
    shell = ~grid.interior_mask()
    # outermost shell values exceed any fixed threshold once R is large
    assert np.min(vals[shell]) > 30.0
    assert np.min(vals) == rhs.value_at(np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(y=st.floats(min_value=-40.0, max_value=40.0))
def test_recorded_growth_constant_is_valid(y):
    rhs = make_power_rhs(1.3, 3.0, 0.7)
    f0 = rhs.f0
    base = abs(y) ** 3 + 1.0
    val = rhs.value_at([y])
    assert val <= f0 * base * (1 + 1e-9)
    assert val >= base / f0 * (1 - 1e-9)


def test_analytic_gradient_matches_centered_differences_order_two():
    rhs = make_power_rhs(1.0, 3.0, 0.2)
    point = np.array([0.7, -0.4])
    exact = rhs.gradient(np.atleast_2d(point))[0]
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [
        np.linalg.norm(centered_fd_gradient(lambda p: rhs.value_at(p), point, h) - exact)
        for h in hs
    ]
    assert convergence_order(hs, errs) >= 1.9


def test_problem_spec_invariants():
    rhs = make_power_rhs(1.0, 2.0, 0.0)
    spec = ProblemSpec(theta=2.0, m=1, rhs=rhs, radius=8.0, h=0.01)
    assert spec.theta_star == pytest.approx(2.0)
    assert 1.0 / spec.theta + 1.0 / spec.theta_star == pytest.approx(1.0)
    spec3 = ProblemSpec(theta=1.5, m=1, rhs=rhs, radius=8.0, h=0.01)
    assert spec3.theta_star == pytest.approx(3.0)
    with pytest.raises(ValueError):
        ProblemSpec(theta=1.0, m=1, rhs=rhs, radius=8.0, h=0.01)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_anchor_is_the_origin_node(m):
    spec = ProblemSpec(theta=2.0, m=m, rhs=make_power_rhs(1.0, 2.0, 0.0), radius=1.0, h=0.25)
    assert spec.anchor_index == spec.grid.index_of((0.0,) * m)
