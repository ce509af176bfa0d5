"""Problem instances: exponent, right-hand-side families, structural hypotheses.

The right-hand sides f are bounded-from-below, locally Lipschitz functions.
Two structural hypotheses matter for the quantitative checks:

* a gradient bound  |Df(y)| <= f0 (1 + |y|^(alpha-1))  (for alpha >= 1, or a
  plain bound for alpha < 1), and
* two-sided power growth  f0^-1 (|y|^alpha + 1) <= f(y) <= f0 (|y|^alpha + 1).

When both hold, bounded-from-below solutions of the ergodic equation grow
like |y|^gamma with gamma = alpha/theta + 1, which is what the growth checks
measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .grid import Field, Grid

__all__ = [
    "ProblemSpec",
    "RhsFunction",
    "PowerRhs",
    "PurePowerRhs",
    "BlendRhs",
    "make_power_rhs",
    "make_pure_power_rhs",
    "blend_rhs",
]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0 or (pts.ndim == 1 and pts.shape[0] != 1):
        pts = pts[..., None]
    return pts


class RhsFunction:
    """Common interface of the right-hand-side families.

    Concrete instances are immutable after construction and safe to share
    across concurrent solver instances.
    """

    form: str = ""
    alpha: Optional[float] = None
    f0: Optional[float] = None
    shift: float = 0.0

    def evaluate(self, points) -> np.ndarray:
        """Values at an array of points with trailing dimension m.

        A flat array is interpreted as a sequence of 1-d points; use
        value_at for one point of any dimension.
        """
        raise NotImplementedError

    def gradient(self, points) -> np.ndarray:
        raise NotImplementedError

    def value_at(self, point) -> float:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return float(self.evaluate(p[None, :])[0])

    def min_value(self) -> float:
        raise NotImplementedError

    def radial_value(self, t: np.ndarray, m: int) -> np.ndarray:
        """f along the first coordinate axis; exact for the radial families."""
        t = np.asarray(t, dtype=float)
        pts = np.zeros(t.shape + (m,))
        pts[..., 0] = t
        return self.evaluate(pts.reshape(-1, m)).reshape(t.shape)

    def descriptor(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerRhs(RhsFunction):
    """Smooth power family f(y) = c (1 + |y|^2)^(alpha/2) + shift.

    The regularized form keeps Df Lipschitz near the origin even for
    alpha < 2, which the plain power |y|^alpha does not.
    """

    coeff: float = 1.0
    alpha: float = 2.0
    shift: float = 0.0
    f0: Optional[float] = None
    form: str = field(default="power", init=False)

    def evaluate(self, points) -> np.ndarray:
        pts = _as_points(points)
        r2 = np.sum(pts**2, axis=-1)
        return self.coeff * (1.0 + r2) ** (self.alpha / 2.0) + self.shift

    def gradient(self, points) -> np.ndarray:
        pts = _as_points(points)
        r2 = np.sum(pts**2, axis=-1)
        fac = self.coeff * self.alpha * (1.0 + r2) ** (self.alpha / 2.0 - 1.0)
        return fac[..., None] * pts

    def min_value(self) -> float:
        return self.coeff + self.shift

    def descriptor(self) -> dict:
        return {"form": "power", "coeff": self.coeff, "alpha": self.alpha, "shift": self.shift}


@dataclass(frozen=True)
class PurePowerRhs(RhsFunction):
    """Homogeneous family f(y) = c |y|^alpha + shift, alpha >= 1.

    Exact homogeneity is what the dilation law for the critical value needs;
    for alpha in [1, 2) the gradient at the origin is taken to be 0.
    """

    coeff: float = 1.0
    alpha: float = 2.0
    shift: float = 0.0
    f0: Optional[float] = None
    form: str = field(default="pure_power", init=False)

    def evaluate(self, points) -> np.ndarray:
        pts = _as_points(points)
        r = np.sqrt(np.sum(pts**2, axis=-1))
        return self.coeff * r**self.alpha + self.shift

    def gradient(self, points) -> np.ndarray:
        pts = _as_points(points)
        r = np.sqrt(np.sum(pts**2, axis=-1))
        safe = np.maximum(r, 1e-300)
        fac = self.coeff * self.alpha * safe ** (self.alpha - 2.0)
        out = fac[..., None] * pts
        return np.where((r == 0.0)[..., None], 0.0, out)

    def min_value(self) -> float:
        return self.shift

    def descriptor(self) -> dict:
        return {"form": "pure_power", "coeff": self.coeff, "alpha": self.alpha, "shift": self.shift}


@dataclass(frozen=True)
class BlendRhs(RhsFunction):
    """Pointwise convex combination t*f1 + (1-t)*f2."""

    f1: RhsFunction = None
    f2: RhsFunction = None
    t: float = 0.5
    alpha: Optional[float] = None
    f0: Optional[float] = None
    shift: float = 0.0
    form: str = field(default="blend", init=False)

    def evaluate(self, points) -> np.ndarray:
        return self.t * self.f1.evaluate(points) + (1.0 - self.t) * self.f2.evaluate(points)

    def gradient(self, points) -> np.ndarray:
        return self.t * self.f1.gradient(points) + (1.0 - self.t) * self.f2.gradient(points)

    def min_value(self) -> float:
        # both parametric families attain their minimum at the origin
        return self.t * self.f1.min_value() + (1.0 - self.t) * self.f2.min_value()

    def descriptor(self) -> dict:
        return {
            "form": "blend",
            "t": self.t,
            "f1": self.f1.descriptor(),
            "f2": self.f2.descriptor(),
        }


# -- hypothesis scans --------------------------------------------------------


def _growth_constant(rhs: RhsFunction, alpha: float, m: int = 1) -> Optional[float]:
    """Smallest f0 with f0^-1 (t^alpha + 1) <= f <= f0 (t^alpha + 1) on the scan range.

    Valid for the radial families; returns None when f is not strictly
    positive (the lower bound is then unattainable).
    """
    t = np.concatenate([np.linspace(0.0, 20.0, 8001), np.geomspace(20.0, 1e6, 1500)])
    fv = rhs.radial_value(t, m)
    if np.min(fv) <= 0:
        return None
    base = t**alpha + 1.0
    hi = float(np.max(fv / base))
    lo = float(np.max(base / fv))
    return max(hi, lo)


# -- factories ----------------------------------------------------------------


def make_power_rhs(c: float, alpha: float, shift: float = 0.0) -> PowerRhs:
    """Smooth power right-hand side c (1 + |y|^2)^(alpha/2) + shift.

    Records the smallest growth constant f0 valid on the scan range whenever
    f stays positive (always true for shift >= 0).
    """
    if not c > 0:
        raise ValueError(f"coefficient must be positive, got {c}")
    if alpha < 0:
        raise ValueError(f"growth exponent must be >= 0, got {alpha}")
    rhs = PowerRhs(coeff=float(c), alpha=float(alpha), shift=float(shift))
    f0 = _growth_constant(rhs, alpha) if alpha > 0 else None
    return replace(rhs, f0=f0)


def make_pure_power_rhs(c: float, alpha: float, shift: float = 0.0) -> PurePowerRhs:
    """Homogeneous right-hand side c |y|^alpha + shift with alpha >= 1."""
    if not c > 0:
        raise ValueError(f"coefficient must be positive, got {c}")
    if alpha < 1:
        raise ValueError(f"pure power form needs alpha >= 1 (got {alpha}); use the smooth form")
    rhs = PurePowerRhs(coeff=float(c), alpha=float(alpha), shift=float(shift))
    f0 = _growth_constant(rhs, alpha)
    return replace(rhs, f0=f0)


def blend_rhs(f1: RhsFunction, f2: RhsFunction, t: float) -> RhsFunction:
    """Pointwise t*f1 + (1-t)*f2 with blended gradient."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"blend weight must lie in [0, 1], got {t}")
    if t == 1.0:
        return f1
    if t == 0.0:
        return f2
    alpha = None
    if f1.alpha is not None and f2.alpha is not None:
        alpha = max(f1.alpha, f2.alpha)
    return BlendRhs(f1=f1, f2=f2, t=float(t), alpha=alpha)


# -- problem spec ---------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Full instance: -1/2 Lap(phi) + (1/theta)|D phi|^theta = f - lambda on [-R, R]^m.

    Solutions are unique up to an additive constant; every route fixes it by
    phi(0) = 0 at the origin, the grid's central node (anchor_index).
    """

    theta: float
    m: int
    rhs: RhsFunction
    radius: float
    h: float

    def __post_init__(self) -> None:
        if not self.theta > 1:
            raise ValueError(f"exponent theta must exceed 1, got {self.theta}")
        Grid(self.m, self.radius, self.h)  # validates radius/h

    @property
    def theta_star(self) -> float:
        """Conjugate exponent: 1/theta + 1/theta_star = 1."""
        return self.theta / (self.theta - 1.0)

    @property
    def grid(self) -> Grid:
        return Grid(self.m, self.radius, self.h)

    @property
    def anchor_index(self) -> tuple[int, ...]:
        return (self.grid.half_count,) * self.m

    def f_field(self) -> Field:
        g = self.grid
        return Field(g, self.rhs.evaluate(g.points()).reshape(g.shape))
