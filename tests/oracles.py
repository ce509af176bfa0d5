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
from ergodic_hjb.scheme import laplacian_and_slope


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
