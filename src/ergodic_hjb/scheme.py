"""Monotone finite-difference discretization of G[phi] = -1/2 Lap(phi) + (1/theta)|D phi|^theta - f.

Gradient terms use Godunov upwinding: per axis the slope p_i has magnitude

    |p_i| = max(D_i^- u, -D_i^+ u, 0)   (backward and forward differences D^-, D^+)

and the sign of the difference it came from, which for the radial convex
Hamiltonian H(p) = (1/theta)|p|^theta is the exact Godunov flux per axis and
yields a monotone (degenerate-elliptic) scheme.

Boundary handling is the state constraint: at boundary nodes every stencil
arm that would leave the grid is dropped, from both the Laplacian and the
Hamiltonian, so only interior information enters. This is the discrete
counterpart of "no data prescribed on the boundary". At interior nodes both
arms exist, so the Dirichlet problem uses the same operator restricted to the
interior rows (``solvers.solve_dirichlet``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Field, Grid
from .problem import ProblemSpec

__all__ = [
    "DiscreteOperator",
    "UpwindState",
    "upwind_state",
    "laplacian_values",
    "drift_field",
    "hopf_cole_residual",
]

# |p|^(theta-2) is unbounded at p=0 for theta < 2; derivative denominators
# clamp |p| below to keep Jacobian entries finite without moving iterates.
GRADIENT_CLAMP = 1e-10

STATE_CONSTRAINT = "state_constraint"


def _axis_slice(m: int, axis: int, sl: slice) -> tuple:
    out = [slice(None)] * m
    out[axis] = sl
    return tuple(out)


@dataclass
class UpwindState:
    """Per-axis Godunov slopes of a field.

    p[a]      signed upwind derivative along axis a: the backward difference
              where it is the active candidate (also on ties), the forward
              difference where that is, else 0
    mag       Euclidean magnitude of p across axes
    """

    p: np.ndarray
    mag: np.ndarray


def upwind_state(values: np.ndarray, h: float) -> UpwindState:
    """Godunov upwind slopes at every node; out-of-grid arms are excluded."""
    m = values.ndim
    shape = values.shape
    p = np.empty((m,) + shape)
    for a in range(m):
        d = np.diff(values, axis=a) / h
        pad = list(shape)
        pad[a] = 1
        ninf = np.full(pad, -np.inf)
        cb = np.concatenate([ninf, d], axis=a)  # backward difference
        cf = np.concatenate([-d, ninf], axis=a)  # minus forward difference
        p[a] = np.where((cb >= cf) & (cb > 0), cb, np.where((cf > cb) & (cf > 0), -cf, 0.0))
    return UpwindState(p=p, mag=np.sqrt(np.sum(p**2, axis=0)))


def laplacian_values(values: np.ndarray, h: float) -> np.ndarray:
    """Discrete Laplacian with out-of-grid arms dropped at boundary nodes.

    Interior nodes get the standard central second difference; a boundary node
    keeps only the inward contributions (u(x +- h e) - u(x)) / h^2.
    """
    m = values.ndim
    shape = values.shape
    lap = np.zeros(shape)
    for a in range(m):
        d = np.diff(values, axis=a) / h
        pad = list(shape)
        pad[a] = 1
        zeros = np.zeros(pad)
        right = np.concatenate([d, zeros], axis=a)
        left = np.concatenate([zeros, d], axis=a)
        lap += (right - left) / h
    return lap


@dataclass
class DiscreteOperator:
    """State-constraint discretization of the operator for one problem instance.

    The operator is defined at every node, with truncated stencils on the
    boundary. ``boundary_policy`` accepts only ``state_constraint``.
    """

    spec: ProblemSpec
    boundary_policy: str = STATE_CONSTRAINT

    def __post_init__(self) -> None:
        if self.boundary_policy != STATE_CONSTRAINT:
            raise ValueError(f"unknown boundary policy {self.boundary_policy!r}")
        self._f = self.spec.f_field().values

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    def residual_values(self, values: np.ndarray, lam: float) -> np.ndarray:
        """-1/2 Lap + (1/theta) |upwind gradient|^theta - f + lambda, grid-shaped."""
        theta = self.spec.theta
        h = self.spec.h
        state = upwind_state(values, h)
        return -0.5 * laplacian_values(values, h) + state.mag**theta / theta - self._f + lam

    def jacobian(self, values: np.ndarray) -> sp.csr_matrix:
        """Derivative of the node residuals with respect to the node values.

        The Laplacian couplings plus the upwind stencil of the optimal drift
        b = drift_field(values): along axis a a node with b[a] > 0 differences
        backward, one with b[a] < 0 forward. This is the generator of the
        controlled chain under the policy b, i.e. Howard's policy-evaluation
        matrix (Bokanowski, Maroso & Zidani 2009). Ties in the Godunov slope
        differentiate through the backward branch; for theta < 2 the
        gradient-magnitude factor is clamped below at GRADIENT_CLAMP.
        """
        h = self.spec.h
        grid = self.grid
        n = values.size
        flat = np.arange(n).reshape(values.shape)
        b = drift_field(values, h, self.spec.theta)

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []

        def add(r, c, v):
            rows.append(np.asarray(r).ravel())
            cols.append(np.asarray(c).ravel())
            data.append(np.asarray(v).ravel())

        inv_h2 = 1.0 / h**2
        m = grid.m
        for a in range(m):
            lo = _axis_slice(m, a, slice(None, -1))
            hi = _axis_slice(m, a, slice(1, None))
            # -1/2 Lap: each available arm couples a node pair symmetrically
            add(flat[lo], flat[hi], np.full(flat[lo].size, -0.5 * inv_h2))
            add(flat[lo], flat[lo], np.full(flat[lo].size, 0.5 * inv_h2))
            add(flat[hi], flat[lo], np.full(flat[hi].size, -0.5 * inv_h2))
            add(flat[hi], flat[hi], np.full(flat[hi].size, 0.5 * inv_h2))

            # Hamiltonian: d/dp (1/theta)|p|^theta = b, routed through the
            # one-sided difference that produced p (never an out-of-grid arm)
            stride = flat.strides[a] // flat.itemsize
            ba = b[a]
            back = ba > 0
            add(flat[back], flat[back], ba[back] / h)
            add(flat[back], flat[back] - stride, -ba[back] / h)
            fwd = ba < 0
            add(flat[fwd], flat[fwd], -ba[fwd] / h)
            add(flat[fwd], flat[fwd] + stride, ba[fwd] / h)

        return sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        ).tocsr()


def drift_field(values: np.ndarray, h: float, theta: float) -> np.ndarray:
    """Maximizing drift b* = |p|^(theta-2) p of the upwind gradient, shape (m, ...)."""
    state = upwind_state(values, h)
    magc = np.maximum(state.mag, GRADIENT_CLAMP)
    return magc ** (theta - 2.0) * state.p


def hopf_cole_residual(phi: Field, lam: float, spec: ProblemSpec) -> Field:
    """Residual of the transformed equation satisfied by z = -exp(-phi).

    Centered differences throughout; this is a diagnostic for smooth fields,
    not a monotone solver ingredient. Boundary entries are set to zero.
    """
    if phi.grid != spec.grid:
        raise ValueError("field grid does not match the problem grid")
    vals = phi.values
    if float(np.min(vals)) < -700.0:
        raise OverflowError(
            "exp(-phi) overflows for min(phi) < -700; renormalize phi by adding a constant"
        )
    z = -np.exp(-vals)
    h = spec.h
    m = spec.m
    grid = spec.grid
    interior = grid.interior_mask()

    lap = np.zeros_like(z)
    dz = np.zeros((m,) + z.shape)
    for a in range(m):
        up = _axis_slice(m, a, slice(2, None))
        mid = _axis_slice(m, a, slice(1, -1))
        dn = _axis_slice(m, a, slice(None, -2))
        lap[mid] += (z[up] - 2.0 * z[mid] + z[dn]) / h**2
        dz[a][mid] = (z[up] - z[dn]) / (2.0 * h)
    grad_sq = np.sum(dz**2, axis=0)

    f = spec.f_field().values
    q = np.sqrt(grad_sq) / np.abs(z)  # |Dz/z|
    theta = spec.theta
    res = -0.5 * lap + z * (0.5 * q**2 - q**theta / theta + f - lam)
    out = np.zeros_like(res)
    out[interior] = res[interior]
    return Field(grid, out)
