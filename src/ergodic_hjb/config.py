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

Each section's keys are the fields of its settings dataclass, and each
value is parsed as its field's annotation; [output] dir is
ExperimentConfig.out_dir. Without max_iter each method keeps its own budget.
Unknown sections or keys are rejected (no silent typos), so are the values a
check would refuse before any solve, and a config round-trips losslessly
through config_to_text/parse_config.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .problem import (
    ProblemSpec,
    RhsFunction,
    make_power_rhs,
    make_pure_power_rhs,
)
from .solvers import METHOD_BUDGETS

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
RHS_FORMS = {"power": make_power_rhs, "pure_power": make_pure_power_rhs}
METHODS = tuple(METHOD_BUDGETS)
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


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunSettings = field(default_factory=RunSettings)
    problem: ProblemSettings = field(default_factory=ProblemSettings)
    numerics: NumericsSettings = field(default_factory=NumericsSettings)
    sweep: Optional[SweepSettings] = None
    verify: Optional[VerifySettings] = None
    out_dir: str = "out"


_SECTIONS = {
    "run": RunSettings,
    "problem": ProblemSettings,
    "numerics": NumericsSettings,
    "output": None,  # its one key, dir, is ExperimentConfig.out_dir
    "sweep": SweepSettings,
    "verify": VerifySettings,
}
# keys a config must give even though their field has a default
_REQUIRED = {
    "run": ("mode",),
    "problem": ("theta", "dim"),
    "sweep": ("axis", "values"),
    "verify": ("checks",),
}
_SCALARS = {"float": float, "int": int, "Optional[int]": int, "str": str}


def _kinds(section: str) -> dict[str, str]:
    """Key -> value kind of a section: its settings fields and their annotations."""
    if _SECTIONS[section] is None:
        return {"dir": "str"}
    return {f.name: f.type for f in fields(_SECTIONS[section])}


def _parse_value(raw: str, kind: str, where: str):
    """A scalar annotation parses raw whole; tuple[<scalar>, ...] parses a comma list."""
    item = kind.removeprefix("tuple[").removesuffix(", ...]")
    try:
        parts = [raw] if item == kind else [p.strip() for p in raw.split(",") if p.strip()]
        values = tuple(_SCALARS[item](p) for p in parts)
        if not all(math.isfinite(x) for x in values if isinstance(x, float)):
            raise ValueError("not finite")
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind} ({exc})") from exc
    return values[0] if item == kind else values


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
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
        if key not in _kinds(current):
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
    for name, keys in _REQUIRED.items():
        for key in keys:
            if name in sections and key not in sections[name]:
                raise ConfigError(f"missing required key {key!r} in [{name}]")

    def typed(section: str) -> dict:
        kinds = _kinds(section)
        return {
            key: _parse_value(raw, kinds[key], f"[{section}] {key}")
            for key, raw in sections.get(section, {}).items()
        }

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
        raise ConfigError(f"[problem] rhs must be one of {tuple(RHS_FORMS)}, got {problem.rhs!r}")
    if problem.coeff <= 0:
        raise ConfigError(f"[problem] coeff must be positive, got {problem.coeff}")
    if problem.alpha < 0:
        raise ConfigError(f"[problem] alpha must be >= 0, got {problem.alpha}")
    if problem.rhs == "pure_power" and problem.alpha < 1:
        raise ConfigError(f"[problem] rhs = pure_power needs alpha >= 1, got {problem.alpha}")

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
        if any(v <= 0 or (sweep.axis == "radius" and v < numerics.h) for v in sweep.values):
            raise ConfigError(f"[sweep] {sweep.axis} values must be > 0, radii >= [numerics] h")
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
        # the checks guard these too, but only once the checks before them have run. Every
        # box verify solves is at least radius/2 wide, and h <= radius/2 also puts an axis
        # node in power_supersolution's annulus [0.375, 0.8] * radius
        if numerics.h > 0.5 * numerics.radius:
            raise ConfigError("[numerics] verify needs h <= radius / 2")
        if "gradient_estimate" in verify.checks and numerics.radius < 2:
            raise ConfigError("[verify] gradient_estimate needs [numerics] radius >= 2")
        if "power_supersolution" in verify.checks and problem.theta >= 2:
            raise ConfigError("[verify] power_supersolution needs [problem] theta < 2")
        for name in ("growth_exponent", "continuity_bound"):
            if name in verify.checks and problem.alpha < 1:
                raise ConfigError(f"[verify] {name} needs [problem] alpha >= 1")
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
    for section in _SECTIONS:
        if section == "output":
            values = {"dir": cfg.out_dir}
        elif getattr(cfg, section) is not None:
            values = asdict(getattr(cfg, section))
        else:
            continue
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {_format_value(v)}" for k, v in values.items() if v is not None)
        lines.append("")
    return "\n".join(lines)


def build_rhs(problem: ProblemSettings) -> RhsFunction:
    return RHS_FORMS[problem.rhs](problem.coeff, problem.alpha, problem.shift)


def build_spec(cfg: ExperimentConfig) -> ProblemSpec:
    return ProblemSpec(
        theta=cfg.problem.theta,
        m=cfg.problem.dim,
        rhs=build_rhs(cfg.problem),
        radius=cfg.numerics.radius,
        h=cfg.numerics.h,
    )
