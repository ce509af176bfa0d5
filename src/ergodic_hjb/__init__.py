"""Numerical solver and verification harness for the ergodic problem

    -1/2 Lap(phi) + (1/theta) |D phi|^theta = f - lambda   on R^m,

approximated on boxes [-R, R]^m with a monotone Godunov finite-difference
scheme: critical-value estimation, bounded-from-below solutions, and
executable checks of the quantitative laws they satisfy.
"""

__version__ = "0.1.0"

from .grid import Field, Grid
from .problem import (
    ProblemSpec,
    RhsFunction,
    blend_rhs,
    make_power_rhs,
    make_pure_power_rhs,
)
from .scheme import DiscreteOperator
from .solvers import (
    ConvergenceTrace,
    ErgodicSolution,
    SolverError,
    solve_dirichlet,
    solve_discounted,
    solve_ergodic,
)

__all__ = [
    "__version__",
    "Field",
    "Grid",
    "ProblemSpec",
    "RhsFunction",
    "blend_rhs",
    "make_power_rhs",
    "make_pure_power_rhs",
    "DiscreteOperator",
    "ConvergenceTrace",
    "ErgodicSolution",
    "SolverError",
    "solve_dirichlet",
    "solve_discounted",
    "solve_ergodic",
]
