"""Grid, field serialization, and the difference stencils of the scheme kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_hjb.grid import Field, Grid, field_to_csv
from ergodic_hjb.scheme import drift_field, laplacian_and_slope

from oracles import convergence_order


def test_grid_node_count_is_odd_and_origin_is_a_node():
    g = Grid(m=1, radius=8.0, h=0.01)
    assert g.n_per_axis == 2 * round(8.0 / 0.01) + 1 == 1601
    assert g.n_per_axis % 2 == 1
    origin = g.index_of((0.0,))
    assert g.axis_coords()[origin[0]] == 0.0
    # coordinates are exactly i*h
    k = g.half_count
    assert g.axis_coords()[k + 3] == 3 * 0.01


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(m=0, radius=1.0, h=0.1)
    with pytest.raises(ValueError):
        Grid(m=1, radius=-1.0, h=0.1)
    with pytest.raises(ValueError):
        Grid(m=1, radius=1.0, h=2.0)


def test_index_of_rejects_off_grid_points():
    g = Grid(m=2, radius=1.0, h=0.25)
    assert g.index_of((0.25, -0.5)) == (5, 2)
    with pytest.raises(ValueError):
        g.index_of((0.3, 0.0))
    with pytest.raises(ValueError):
        g.index_of((2.0, 0.0))


def test_one_sided_diffs_on_constant_field():
    g = Grid(m=1, radius=1.0, h=0.1)
    u = np.full(g.shape, 5.0)
    assert np.array_equal(drift_field(u, g.h, 2.0), np.zeros((1,) + g.shape))
    assert np.array_equal(laplacian_and_slope(u, g.h)[1], np.zeros(g.shape))


def test_one_sided_diffs_linear_exactness():
    # slope +1 takes the backward arm, slope -1 the forward arm; both give p exactly
    g = Grid(m=1, radius=1.0, h=0.1)
    up = drift_field(g.axis_coords(), g.h, 2.0)
    down = drift_field(-g.axis_coords(), g.h, 2.0)
    for i in range(1, g.n_per_axis - 1):
        assert up[0, i] == pytest.approx(1.0, abs=1e-12)
        assert down[0, i] == pytest.approx(-1.0, abs=1e-12)


def test_one_sided_diffs_on_parabola_at_origin():
    # u(x) = x^2, h = 0.1: the backward difference at x = h is (h^2 - 0)/h = 0.1,
    # the forward difference at x = -h is (0 - h^2)/h = -0.1; the origin is a
    # discrete minimum, so its slope vanishes
    g = Grid(m=1, radius=1.0, h=0.1)
    p = drift_field(g.axis_coords() ** 2, g.h, 2.0)
    i0 = g.index_of((0.0,))[0]
    assert p[0, i0 + 1] == pytest.approx(0.1, abs=1e-13)
    assert p[0, i0 - 1] == pytest.approx(-0.1, abs=1e-13)
    assert p[0, i0] == 0.0


def test_laplacian_constant_and_quadratic_exactness():
    g = Grid(m=1, radius=2.0, h=0.1)
    const = laplacian_and_slope(np.full(g.shape, 3.7), g.h)[0]
    quad = laplacian_and_slope(g.axis_coords() ** 2, g.h)[0]
    for i in range(1, g.n_per_axis - 1):
        assert const[i] == pytest.approx(0.0, abs=1e-12)
        assert quad[i] == pytest.approx(2.0, abs=1e-9)
    # a boundary node keeps only its inward arm: (u(-R + h) - u(-R)) / h^2 = 1 - 2R/h
    assert const[0] == 0.0
    assert quad[0] == pytest.approx(1.0 - 2.0 * 2.0 / 0.1, rel=1e-12)
    assert quad[-1] == pytest.approx(1.0 - 2.0 * 2.0 / 0.1, rel=1e-12)


def test_laplacian_quadratic_exactness_2d():
    g = Grid(m=2, radius=1.0, h=0.125)
    xx, yy = g.meshgrid()
    lap = laplacian_and_slope(xx**2 + yy**2, g.h)[0]
    assert lap[4, 5] == pytest.approx(4.0, abs=1e-10)
    # the corner keeps one inward arm per axis, each (1 - 2R/h); an edge node
    # keeps the central difference along the edge
    assert lap[0, 0] == pytest.approx(2.0 * (1.0 - 2.0 / 0.125), rel=1e-12)
    assert lap[0, 5] == pytest.approx(2.0 + (1.0 - 2.0 / 0.125), rel=1e-12)


def test_laplacian_second_order_convergence():
    # smooth test function sin(x): error O(h^2), order fit >= 1.9
    errs = []
    hs = [0.2, 0.1, 0.05, 0.025]
    for h in hs:
        g = Grid(m=1, radius=2.0, h=h)
        lap = laplacian_and_slope(np.sin(g.axis_coords()), h)[0]
        errs.append(abs(lap[g.index_of((1.0,))] - (-np.sin(1.0))))
    assert convergence_order(hs, errs) >= 1.9


def test_field_requires_matching_shape():
    g = Grid(m=2, radius=1.0, h=0.5)
    Field(g, np.zeros(g.n_nodes))  # flat is fine, gets reshaped
    with pytest.raises(ValueError):
        Field(g, np.zeros(7))


def test_csv_round_trip_is_bit_exact():
    g = Grid(m=2, radius=1.0, h=0.25)
    rng = np.random.default_rng(3)
    u = Field(g, rng.standard_normal(g.shape) * np.pi)
    text = field_to_csv(u)
    header, *rows = text.splitlines()
    assert header == "x1,x2,value"
    parsed = np.array([float(row.split(",")[-1]) for row in rows])
    assert np.array_equal(parsed, u.values.ravel())


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_subnormal=False),
        min_size=5,
        max_size=5,
    )
)
def test_serialization_round_trip_property(vals):
    g = Grid(m=1, radius=1.0, h=0.5)
    u = Field(g, np.asarray(vals))
    rows = field_to_csv(u).splitlines()[1:]
    assert np.array_equal([float(row.split(",")[-1]) for row in rows], u.values)
