"""Experiment configuration: a flat, sectioned key-value text format.

The format is diffable and easy to generate from sweep scripts:

    [run]
    mode = solve
    seed = 0

    [problem]
    theta = 2.0
    dim = 1
    rhs = power
    alpha = 2.0
    coeff = 1.0
    shift = 0.0

    [numerics]
    radius = 8.0
    h = 0.01
    tol = 1e-08
    max_iter = 300
    method = newton_augmented

Without max_iter each method keeps its own budget. Unknown sections or keys
are rejected (no silent typos), and a config round-trips losslessly through
to_text/from_text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .problem import (
    ProblemSpec,
    RhsFunction,
    make_power_rhs,
    make_pure_power_rhs,
)

__all__ = [
    "ConfigError",
    "RunSettings",
    "ProblemSettings",
    "NumericsSettings",
    "SweepSettings",
    "VerifySettings",
    "ExperimentConfig",
    "parse_config",
    "config_to_text",
    "build_rhs",
    "build_spec",
]

MODES = ("solve", "sweep", "verify")
RHS_FORMS = ("power", "pure_power")
METHODS = ("newton_augmented", "relative_value_iteration", "policy_iteration")
SWEEP_AXES = ("radius", "epsilon", "coeff")

CHECK_NAMES = (
    "shift_equivariance",
    "scaling_law",
    "lambda_shape",
    "growth_exponent",
    "continuity_bound",
    "uniqueness",
    "cross_method",
    "radius_monotonicity",
    "lambda_star_characterization",
    "interior_minimum",
    "gradient_estimate",
    "power_supersolution",
    "dirichlet_family",
)


class ConfigError(Exception):
    """Malformed, unknown, or inconsistent configuration input."""


@dataclass(frozen=True)
class RunSettings:
    mode: str = "solve"
    seed: int = 0


@dataclass(frozen=True)
class ProblemSettings:
    theta: float = 2.0
    dim: int = 1
    rhs: str = "power"
    alpha: float = 2.0
    coeff: float = 1.0
    shift: float = 0.0


@dataclass(frozen=True)
class NumericsSettings:
    radius: float = 8.0
    h: float = 0.01
    tol: float = 1e-8
    max_iter: Optional[int] = None  # None: the method's own budget (solvers.METHOD_BUDGETS)
    method: str = "newton_augmented"


@dataclass(frozen=True)
class SweepSettings:
    axis: str = "radius"
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class VerifySettings:
    checks: tuple[str, ...] = ()
    tol: float = 0.03
    radii: tuple[float, ...] = (4.0, 6.0, 8.0)
    c: float = 4.0
    alpha2: float = 4.0
    coeff2: float = 1.0
    shift2: float = 1.0
    t_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    eps: tuple[float, ...] = (0.1, 0.05, 0.025)
    horizon: float = 50.0
    q: float = 1.01
    r_inner: float = 3.0
    r_primes: tuple[float, ...] = (2.0, 3.0, 4.0)
    gap: float = 4.0
    lambdas: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunSettings = field(default_factory=RunSettings)
    problem: ProblemSettings = field(default_factory=ProblemSettings)
    numerics: NumericsSettings = field(default_factory=NumericsSettings)
    sweep: Optional[SweepSettings] = None
    verify: Optional[VerifySettings] = None
    out_dir: str = "out"


# (type, required) per key; types: float, int, str, float_list, str_list
_SCHEMA: dict[str, dict[str, tuple[str, bool]]] = {
    "run": {"mode": ("str", True), "seed": ("int", False)},
    "problem": {
        "theta": ("float", True),
        "dim": ("int", True),
        "rhs": ("str", False),
        "alpha": ("float", False),
        "coeff": ("float", False),
        "shift": ("float", False),
    },
    "numerics": {
        "radius": ("float", False),
        "h": ("float", False),
        "tol": ("float", False),
        "max_iter": ("int", False),
        "method": ("str", False),
    },
    "output": {"dir": ("str", False)},
    "sweep": {"axis": ("str", True), "values": ("float_list", True)},
    "verify": {
        "checks": ("str_list", True),
        "tol": ("float", False),
        "radii": ("float_list", False),
        "c": ("float", False),
        "alpha2": ("float", False),
        "coeff2": ("float", False),
        "shift2": ("float", False),
        "t_grid": ("float_list", False),
        "eps": ("float_list", False),
        "horizon": ("float", False),
        "q": ("float", False),
        "r_inner": ("float", False),
        "r_primes": ("float_list", False),
        "gap": ("float", False),
        "lambdas": ("float_list", False),
    },
}


def _parse_value(raw: str, kind: str, where: str):
    try:
        if kind in ("float", "float_list"):
            parts = [raw] if kind == "float" else [p for p in raw.split(",") if p.strip()]
            values = tuple(float(p) for p in parts)
            if not all(math.isfinite(x) for x in values):
                raise ValueError("not finite")
            return values[0] if kind == "float" else values
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw
        if kind == "str_list":
            return tuple(p.strip() for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind} ({exc})") from exc
    raise ConfigError(f"{where}: unknown value kind {kind}")


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)
    for name in ("run", "problem"):
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    for name, spec in _SCHEMA.items():
        if name not in sections:
            continue
        for key, (_, required) in spec.items():
            if required and key not in sections[name]:
                raise ConfigError(f"missing required key {key!r} in [{name}]")

    def typed(section: str) -> dict:
        out = {}
        for key, raw in sections.get(section, {}).items():
            kind, _ = _SCHEMA[section][key]
            out[key] = _parse_value(raw, kind, f"[{section}] {key}")
        return out

    run = RunSettings(**typed("run"))
    if run.mode not in MODES:
        raise ConfigError(f"[run] mode must be one of {MODES}, got {run.mode!r}")
    if run.seed < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {run.seed}")

    problem = ProblemSettings(**typed("problem"))
    if not problem.theta > 1:
        raise ConfigError(f"[problem] theta must exceed 1, got {problem.theta}")
    if problem.dim not in (1, 2, 3):
        raise ConfigError(f"[problem] dim must be 1, 2, or 3, got {problem.dim}")
    if problem.rhs not in RHS_FORMS:
        raise ConfigError(f"[problem] rhs must be one of {RHS_FORMS}, got {problem.rhs!r}")
    if problem.coeff <= 0:
        raise ConfigError(f"[problem] coeff must be positive, got {problem.coeff}")
    if problem.alpha < 0:
        raise ConfigError(f"[problem] alpha must be >= 0, got {problem.alpha}")

    numerics = NumericsSettings(**typed("numerics"))
    if numerics.radius <= 0 or numerics.h <= 0 or numerics.h > numerics.radius:
        raise ConfigError("[numerics] need radius > 0 and 0 < h <= radius")
    if numerics.tol <= 0 or (numerics.max_iter is not None and numerics.max_iter <= 0):
        raise ConfigError("[numerics] need tol > 0 and max_iter > 0")
    if numerics.method not in METHODS:
        raise ConfigError(f"[numerics] method must be one of {METHODS}, got {numerics.method!r}")

    out_dir = typed("output").get("dir", "out")

    sweep = None
    if run.mode == "sweep":
        if "sweep" not in sections:
            raise ConfigError("mode=sweep requires a [sweep] section")
        sweep = SweepSettings(**typed("sweep"))
        if sweep.axis not in SWEEP_AXES:
            raise ConfigError(f"[sweep] axis must be one of {SWEEP_AXES}, got {sweep.axis!r}")
        if not sweep.values:
            raise ConfigError("[sweep] values must be a nonempty list")
        if any(v <= 0 for v in sweep.values):
            raise ConfigError(f"[sweep] {sweep.axis} values must be positive")
    elif "sweep" in sections:
        raise ConfigError(f"[sweep] section is only valid for mode=sweep (mode={run.mode})")

    verify = None
    if run.mode == "verify":
        if "verify" not in sections:
            raise ConfigError("mode=verify requires a [verify] section")
        verify = VerifySettings(**typed("verify"))
        if not verify.checks:
            raise ConfigError("[verify] checks must be a nonempty list")
        for name in verify.checks:
            if name not in CHECK_NAMES:
                raise ConfigError(
                    f"[verify] unknown check {name!r}; known checks: {', '.join(CHECK_NAMES)}"
                )
        # the checks guard these too, but only once the checks before them have run
        radii = verify.radii
        if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])) or radii[0] < numerics.h:
            raise ConfigError("[verify] radii must be 3+ strictly increasing values >= [numerics] h")
        if not verify.eps or min(verify.eps) <= 0 or verify.horizon <= 0 or verify.c <= 0:
            raise ConfigError("[verify] need eps values > 0, horizon > 0 and c > 0")
    elif "verify" in sections:
        raise ConfigError(f"[verify] section is only valid for mode=verify (mode={run.mode})")

    return ExperimentConfig(
        run=run, problem=problem, numerics=numerics, sweep=sweep, verify=verify, out_dir=out_dir
    )


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical text rendering; parse_config(config_to_text(c)) == c."""
    lines: list[str] = []

    def emit(section: str, obj, keys: list[str]) -> None:
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(obj, key)
            if value is not None:
                lines.append(f"{key} = {_format_value(value)}")
        lines.append("")

    emit("run", cfg.run, ["mode", "seed"])
    emit("problem", cfg.problem, ["theta", "dim", "rhs", "alpha", "coeff", "shift"])
    emit("numerics", cfg.numerics, ["radius", "h", "tol", "max_iter", "method"])
    lines.append("[output]")
    lines.append(f"dir = {cfg.out_dir}")
    lines.append("")
    if cfg.sweep is not None:
        emit("sweep", cfg.sweep, ["axis", "values"])
    if cfg.verify is not None:
        emit(
            "verify",
            cfg.verify,
            [
                "checks",
                "tol",
                "radii",
                "c",
                "alpha2",
                "coeff2",
                "shift2",
                "t_grid",
                "eps",
                "horizon",
                "q",
                "r_inner",
                "r_primes",
                "gap",
                "lambdas",
            ],
        )
    return "\n".join(lines)


def build_rhs(problem: ProblemSettings) -> RhsFunction:
    if problem.rhs == "power":
        return make_power_rhs(problem.coeff, problem.alpha, problem.shift)
    if problem.rhs == "pure_power":
        return make_pure_power_rhs(problem.coeff, problem.alpha, problem.shift)
    raise ConfigError(f"unknown rhs form {problem.rhs!r}")


def build_spec(cfg: ExperimentConfig) -> ProblemSpec:
    return ProblemSpec(
        theta=cfg.problem.theta,
        m=cfg.problem.dim,
        rhs=build_rhs(cfg.problem),
        radius=cfg.numerics.radius,
        h=cfg.numerics.h,
    )
