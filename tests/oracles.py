"""Shared independent oracles for the test suite.

Everything here is deliberately simple and separate from the library code
paths it checks: closed-form substitutions, quadratic ansatz values, and
brute-force stencil evaluations; and one deliberately wrong operator, a
mutant that a verify battery should be able to see.
"""

from __future__ import annotations

import numpy as np

from ergodic_hjb.grid import Field, Grid
from ergodic_hjb.problem import ProblemSpec, make_pure_power_rhs
from ergodic_hjb.scheme import GRADIENT_CLAMP, laplacian_and_slope


def closed_form_spec(theta: float, m: int, radius: float, h: float) -> ProblemSpec:
    """Instance with f = (1/theta)|y|^theta + 1, solved exactly by phi = |y|^2/2.

    Substitution: |D phi| = |y| so (1/theta)|D phi|^theta = (1/theta)|y|^theta,
    and -1/2 Lap phi = -m/2, hence lambda = m/2 + 1.
    """
    rhs = make_pure_power_rhs(1.0 / theta, theta, shift=1.0)
    return ProblemSpec(theta=theta, m=m, rhs=rhs, radius=radius, h=h)


def closed_form_lambda(m: int) -> float:
    return 0.5 * m + 1.0


def closed_form_phi(grid: Grid, anchor_index) -> np.ndarray:
    vals = 0.5 * grid.radii() ** 2
    return vals - vals[anchor_index]


def quad_ansatz_lambda(c: float, shift: float, m: int = 1) -> float:
    """Critical value of f = c|y|^2 + shift for theta = 2 via phi = a|y|^2.

    Substitution: -a m + 2 a^2 |y|^2 = c|y|^2 + shift - lambda, so a = sqrt(c/2)
    and lambda = shift + m sqrt(c/2).
    """
    a = np.sqrt(c / 2.0)
    return float(shift + m * a)


def smooth_power_lambda(c: float, shift: float, m: int = 1) -> float:
    """Critical value of the smooth quadratic family c(1 + |y|^2) + shift, theta = 2."""
    return quad_ansatz_lambda(c, c + shift, m)


def godunov_1d_brute(backward: float, forward: float) -> float:
    """Definitional Godunov slope for H(|p|) increasing: extremize over the interval.

    If backward <= forward the minimizing |p| over [backward, forward] is the
    projection of 0; otherwise the maximizing |p| over [forward, backward].
    """
    lo, hi = min(backward, forward), max(backward, forward)
    if backward <= forward:
        if lo <= 0.0 <= hi:
            return 0.0
        return min(abs(lo), abs(hi))
    return max(abs(lo), abs(hi))


def jacobian_diagonals_brute(values: np.ndarray, h: float, theta: float,
                             shift: float) -> dict[int, np.ndarray]:
    """{offset: diagonal} of the upwind Jacobian plus shift * I, one node and axis at a time.

    At each node and axis: the one-sided differences (0 off the grid), the
    signed Godunov slope p_a (backward on ties), b = max(|p|, GRADIENT_CLAMP)^(theta-2) p
    with |p| the root of the squares summed over the axes, then the arms
    -1/(2h^2) - max(b_a, 0)/h and -1/(2h^2) + min(b_a, 0)/h and the diagonal
    sum of the in-grid Laplacian arms and |b_a|/h, axis by axis, then the
    shift. Each float is formed in DiscreteOperator._diagonals's order, with
    numpy's ufuncs on scalars, so the two agree byte for byte.
    """
    shape, n, m = values.shape, values.size, values.ndim
    strides = [int(np.prod(shape[a + 1:])) for a in range(m)]
    arm = 0.5 * (1.0 / h**2)
    bands = {0: np.zeros(n)}
    for s in strides:
        bands[-s], bands[s] = np.zeros(n - s), np.zeros(n - s)
    for node in np.ndindex(shape):
        i = int(np.ravel_multi_index(node, shape))
        p, arms = [], []
        for a in range(m):
            lo, hi = node[a] > 0, node[a] < shape[a] - 1
            prev = node[:a] + (node[a] - 1,) + node[a + 1:]
            nxt = node[:a] + (node[a] + 1,) + node[a + 1:]
            back = (values[node] - values[prev]) / h if lo else np.float64(0.0)
            fwd = (values[nxt] - values[node]) / h if hi else np.float64(0.0)
            nf = -fwd
            g = np.maximum(np.maximum(back, nf), 0.0)
            p.append(g if back >= nf else -g)
            arms.append((lo, hi))
        sq = np.square(p[0])
        for pa in p[1:]:
            sq = sq + np.square(pa)
        weight = np.power(np.maximum(np.sqrt(sq), GRADIENT_CLAMP), theta - 2.0)
        d = 0.0
        for s, pa, (lo, hi) in zip(strides, p, arms):
            bh = weight * pa / h
            if hi:
                d += arm
                bands[s][i] = -arm + np.minimum(bh, 0.0)
            if lo:
                d += arm
                bands[-s][i - s] = -arm - np.maximum(bh, 0.0)
            d += np.abs(bh)
        bands[0][i] = d + shift
    return bands


def centered_fd_gradient(f, point: np.ndarray, h: float) -> np.ndarray:
    """Second-order centered finite differences of a scalar callable."""
    point = np.asarray(point, dtype=float)
    out = np.empty_like(point)
    for a in range(point.size):
        e = np.zeros_like(point)
        e[a] = h
        out[a] = (f(point + e) - f(point - e)) / (2.0 * h)
    return out


def convergence_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def dyadic_field(grid: Grid, seed: int, scale: float = 2.0**-6, span: int = 2**12) -> Field:
    """Random field whose values are exact dyadics with few mantissa bits.

    Sums and differences with similarly coarse dyadics are then exact in IEEE
    double arithmetic, which makes structural identities machine-checkable.
    """
    rng = np.random.default_rng(seed)
    ints = rng.integers(-span, span + 1, size=grid.shape)
    return Field(grid, ints.astype(float) * scale)


def hopf_cole_residual(phi: Field, lam: float, spec: ProblemSpec) -> Field:
    """Residual of the transformed equation satisfied by z = -exp(-phi).

    -1/2 Lap z + z (1/2 q^2 - q^theta / theta + f - lambda) with q = |Dz/z|,
    by centered differences at interior nodes, written with plain slicing;
    a diagnostic for smooth fields. Boundary entries are zero.
    """
    if float(np.min(phi.values)) < -700.0:
        raise OverflowError(
            "exp(-phi) overflows for min(phi) < -700; renormalize phi by adding a constant"
        )
    z = -np.exp(-phi.values)
    h, theta = spec.h, spec.theta
    inner = (slice(1, -1),) * spec.m
    zi = z[inner]
    lap = np.zeros(zi.shape)
    grad_sq = np.zeros(zi.shape)
    for a in range(spec.m):
        up = inner[:a] + (slice(2, None),) + inner[a + 1:]
        down = inner[:a] + (slice(None, -2),) + inner[a + 1:]
        lap += (z[up] - 2.0 * zi + z[down]) / h**2
        grad_sq += ((z[up] - z[down]) / (2.0 * h)) ** 2
    q = np.sqrt(grad_sq) / np.abs(zi)
    f = spec.f_field().values[inner]
    out = np.zeros(z.shape)
    out[inner] = -0.5 * lap + zi * (0.5 * q**2 - q**theta / theta + f - lam)
    return Field(spec.grid, out)


def m5_residual_values(op, values: np.ndarray, lam: float) -> np.ndarray:
    """Mutant M5 of DiscreteOperator.residual_values: Laplacian weight 0.52 instead of 1/2.

    Patched in for residual_values alone, it leaves the Jacobian and relative
    value iteration's inline rate formula on the true weight. Newton, policy
    iteration and the discount path then solve the mutant, and the march the
    true operator.
    """
    theta = op.spec.theta
    lap, mag = laplacian_and_slope(values, op.spec.h)
    return -0.52 * lap + mag**theta / theta - op._f + lam
