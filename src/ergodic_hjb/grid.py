"""Uniform tensor grids on centered boxes and real-valued grid fields.

The computational domain is the box [-R, R]^m sampled with spacing h and an
odd node count per axis, so the origin is always a node and can serve as the
anchor for the additive normalization of solutions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "field_to_csv",
]

# 17 significant decimal digits round-trip any IEEE double exactly.
_FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FMT % float(x)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-R, R]^m; node coordinates along each axis are i*h."""

    m: int
    radius: float
    h: float

    def __post_init__(self) -> None:
        if int(self.m) < 1:
            raise ValueError(f"dimension must be >= 1, got {self.m}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (np.isfinite(self.h) and 0 < self.h <= self.radius):
            raise ValueError(f"spacing must lie in (0, radius], got {self.h}")

    @cached_property  # like n_per_axis and shape, computed once; not a field, so not in == or hash
    def half_count(self) -> int:
        """Number of nodes on each side of the origin along one axis."""
        return int(round(self.radius / self.h))

    @cached_property
    def n_per_axis(self) -> int:
        return 2 * self.half_count + 1

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.m

    @property
    def n_nodes(self) -> int:
        return self.n_per_axis**self.m

    def axis_coords(self) -> np.ndarray:
        k = self.half_count
        return np.arange(-k, k + 1, dtype=float) * self.h

    def meshgrid(self) -> list[np.ndarray]:
        ax = self.axis_coords()
        return list(np.meshgrid(*([ax] * self.m), indexing="ij"))

    def points(self) -> np.ndarray:
        """All node coordinates as an (n_nodes, m) array in C order."""
        mesh = self.meshgrid()
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def radii(self) -> np.ndarray:
        """Euclidean distance of every node from the origin, grid-shaped."""
        mesh = self.meshgrid()
        return np.sqrt(sum(g**2 for g in mesh))

    def index_of(self, point) -> tuple[int, ...]:
        """Grid index of a point that must coincide with a node."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.m,):
            raise ValueError(f"point has shape {point.shape}, expected ({self.m},)")
        k = self.half_count
        idx = []
        for x in point:
            j = round(x / self.h)
            if abs(x - j * self.h) > 1e-9 * max(1.0, self.h):
                raise ValueError(f"point {point} does not lie on the grid (h={self.h})")
            if not -k <= j <= k:
                raise ValueError(f"point {point} outside the box of radius {self.radius}")
            idx.append(int(j + k))
        return tuple(idx)

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.m] = True
        return mask


@dataclass
class Field:
    """Real-valued grid function; values are stored grid-shaped in C order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.n_nodes:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"values shape {self.values.shape} incompatible with grid shape {self.grid.shape}"
                )


# -- serialization ----------------------------------------------------------


def _numeric_csv(header: list[str], values: list) -> str:
    """CSV of header, then values len(header) a row, each as _fmt writes it, by one %."""
    line = ",".join([_FLOAT_FMT] * len(header))
    body = "\n".join([line] * (len(values) // len(header))) % tuple(values)
    return ",".join(header) + "\n" + body + "\n"


def field_to_csv(field: Field) -> str:
    """One row per node, coordinates then value, C order, 17 significant digits."""
    g = field.grid
    cells = np.column_stack([g.points(), field.values.ravel()])
    return _numeric_csv([f"x{i + 1}" for i in range(g.m)] + ["value"], cells.ravel().tolist())


def dump_json(obj) -> str:
    """Deterministic JSON with floats rendered to 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dump_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return json.dumps(str(x))
        return _fmt(x)
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist())
    return json.dumps(obj)

