"""Monotone finite-difference discretization of G[phi] = -1/2 Lap(phi) + (1/theta)|D phi|^theta - f.

Gradient terms use Godunov upwinding: per axis the slope p_i has magnitude

    |p_i| = max(D_i^- u, -D_i^+ u, 0)   (backward and forward differences D^-, D^+)

and the sign of the difference it came from, which for the radial convex
Hamiltonian H(p) = (1/theta)|p|^theta is the exact Godunov flux per axis and
yields a monotone (degenerate-elliptic) scheme.

Boundary handling is reflecting (homogeneous Neumann), written once
(``_one_sided``): a stencil arm that would leave the grid is a zero, in the
Laplacian, the Hamiltonian and the Jacobian alike, so no flux crosses the
boundary and no data is prescribed on it. At interior nodes both arms exist,
so the Dirichlet problem uses the same operator restricted to the interior
rows (``solvers.solve_dirichlet``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .problem import ProblemSpec

__all__ = ["DiscreteOperator", "laplacian_and_slope", "drift_field"]

# |p|^(theta-2) is unbounded at p=0 for theta < 2; derivative denominators
# clamp |p| below to keep Jacobian entries finite without moving iterates.
GRADIENT_CLAMP = 1e-10

STATE_CONSTRAINT = "state_constraint"


def _one_sided(values: np.ndarray, h: float) -> Callable[[], list[tuple[np.ndarray, np.ndarray]]]:
    """differences() -> per axis (D^- u, D^+ u) at every node, 0 on an arm that leaves the grid.

    Each call differences the entries values holds then, so values may
    change in place between calls. Per axis the pair are views of one held
    buffer, the differences along the axis padded by a zero at each end, and
    are overwritten by the next call; a caller must not write to them.
    """
    axes, pairs = [], []
    for a in range(values.ndim):
        shape = list(values.shape)
        shape[a] += 1
        u, e = values.swapaxes(0, a), np.zeros(shape).swapaxes(0, a)
        axes.append((u[1:], u[:-1], e[1:-1]))
        pairs.append((e[:-1].swapaxes(0, a), e[1:].swapaxes(0, a)))

    def differences() -> list[tuple[np.ndarray, np.ndarray]]:
        for hi, lo, inner in axes:
            np.subtract(hi, lo, out=inner)
            inner /= h
        return pairs

    return differences


def laplacian_and_slope(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Laplacian and Godunov slope magnitude |p| from one difference per axis.

    Per axis the Laplacian adds (D^+ u - D^- u) / h: the central second
    difference at interior nodes, only the inward arm at a boundary node.
    |p_a| = max(D^- u, -D^+ u, 0), so |p| is the magnitude of drift_field's
    slopes p bit for bit, NaN where an arm is NaN.
    """
    return _slope_kernel(values, h)()


def _slope_kernel(values: np.ndarray, h: float) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
    """kernel() -> (lap, |p|) of the entries values holds then, as laplacian_and_slope.

    The kernel holds its buffers: the differences (_one_sided), lap, |p| and
    a scratch array, which every call overwrites. A march that updates
    values in place builds one kernel and allocates nothing per step. The
    first axis writes its terms into lap and |p| and later axes add theirs.
    """
    differences = _one_sided(values, h)
    lap, mag, work = np.empty(values.shape), np.empty(values.shape), np.empty(values.shape)

    def kernel() -> tuple[np.ndarray, np.ndarray]:
        for a, (back, fwd) in enumerate(differences()):
            term = work if a else lap
            np.subtract(fwd, back, out=term)
            np.divide(term, h, out=term)
            if a:
                np.add(lap, work, out=lap)
            term = work if a else mag  # |p| holds the sum of the squared slopes until the root
            np.negative(fwd, out=term)
            np.maximum(back, term, out=term)
            np.maximum(term, 0.0, out=term)
            np.multiply(term, term, out=term)
            if a:
                np.add(mag, work, out=mag)
        np.sqrt(mag, out=mag)
        return lap, mag

    return kernel


@dataclass
class DiscreteOperator:
    """Reflecting (Neumann) discretization of the operator for one problem instance.

    The operator is defined at every node, with truncated stencils on the
    boundary. ``boundary_policy`` accepts only ``state_constraint``, a
    historical name for that reflecting boundary.
    """

    spec: ProblemSpec
    boundary_policy: str = STATE_CONSTRAINT

    def __post_init__(self) -> None:
        if self.boundary_policy != STATE_CONSTRAINT:
            raise ValueError(f"unknown boundary policy {self.boundary_policy!r}")
        self._f = self.spec.f_field().values

    def residual_values(self, values: np.ndarray, lam: float) -> np.ndarray:
        """-1/2 Lap + (1/theta) |upwind gradient|^theta - f + lambda, grid-shaped."""
        theta = self.spec.theta
        lap, mag = laplacian_and_slope(values, self.spec.h)
        return -0.5 * lap + mag**theta / theta - self._f + lam

    def jacobian(self, values: np.ndarray, shift: float = 0.0) -> sp.csr_matrix:
        """Derivative of the node residuals with respect to the node values, plus shift * I.

        The Laplacian couplings plus the upwind stencil of the optimal drift
        b = drift_field(values): along axis a a node with b[a] > 0 differences
        backward, one with b[a] < 0 forward. This is the generator of the
        controlled chain under the policy b, i.e. Howard's policy-evaluation
        matrix (Bokanowski, Maroso & Zidani 2009). Ties in the Godunov slope
        differentiate through the backward branch; for theta < 2 the
        gradient-magnitude factor is clamped below at GRADIENT_CLAMP.

        The matrix is built from its diagonals (_diagonals). The CSR
        conversion drops exactly the off-grid zeros: an in-grid coupling is
        <= -1/(2h^2) or NaN, and the diagonal >= 1/(2h^2) for shift >= 0. So
        the canonical CSR pattern depends on the grid alone, which the cached
        layout of solvers._nd_matrix relies on.
        """
        n = values.size
        diagonals = self._diagonals(values, shift)
        offsets = sorted(diagonals)  # each row's columns in order, however scipy converts
        return sp.diags([diagonals[k] for k in offsets], offsets, shape=(n, n), format="csr")

    def _diagonals(self, values: np.ndarray, shift: float) -> dict[int, np.ndarray]:
        """{offset: diagonal} of jacobian(values, shift), fresh arrays a caller may write to.

        The offsets are 0 and +-stride of each axis, and the diagonal at
        offset k has n - |k| entries, as sp.diags takes them; in 1-d the
        offsets -1, 0, 1 are ?gtsv's dl, d and du. Per axis, the minus- and
        plus-neighbour couplings are grid-shaped, with 0 on an arm that
        leaves the grid; the diagonal sums, axis by axis, the in-grid
        Laplacian arms and |b[a]|/h, then the shift.
        """
        h = self.spec.h
        n = values.size
        b = drift_field(values, h, self.spec.theta)
        arm = 0.5 * (1.0 / h**2)  # weight of one Laplacian arm
        diag = np.zeros(values.shape)
        bands = {}  # offset: diagonal
        for a in range(values.ndim):
            stride = math.prod(values.shape[a + 1:])
            ba = b[a]
            on_axis = diag.swapaxes(0, a)
            on_axis[:-1] += arm
            on_axis[1:] += arm
            diag += np.abs(ba) / h
            # d/dp (1/theta)|p|^theta = b goes through the one-sided difference
            # that produced p: the minus arm where b > 0, the plus arm where b < 0
            minus = -arm - np.maximum(ba, 0.0) / h
            plus = -arm + np.minimum(ba, 0.0) / h
            minus.swapaxes(0, a)[0] = 0.0
            plus.swapaxes(0, a)[-1] = 0.0
            bands[-stride], bands[stride] = minus.ravel()[stride:], plus.ravel()[: n - stride]
        bands[0] = (diag + shift).ravel()
        return bands


def drift_field(values: np.ndarray, h: float, theta: float) -> np.ndarray:
    """Maximizing drift b* = |p|^(theta-2) p of the upwind gradient, shape (m, ...).

    p[a] is the signed Godunov slope along axis a: the backward difference
    where it is active (also on ties), the forward difference where that
    is, else 0. An arm off the grid is a zero candidate, a NaN arm makes p
    NaN, and at theta = 2 the drift is p itself.
    """
    p = np.empty((values.ndim,) + values.shape)
    for a, (back, fwd) in enumerate(_one_sided(values, h)()):
        nf = -fwd
        g = np.maximum(np.maximum(back, nf), 0.0)
        p[a] = np.where(back >= nf, g, -g)  # ties go backward
    magc = np.maximum(np.sqrt(np.sum(p**2, axis=0)), GRADIENT_CLAMP)
    return np.multiply(magc ** (theta - 2.0), p, out=p)
