"""Experiment configuration: a flat, sectioned key-value text format.

The format is diffable and easy to generate from sweep scripts:

    [run]
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

The settings dataclasses are the whole schema: each section is a field of
ExperimentConfig, its keys are the fields of its settings dataclass, and each
value is parsed as its field's annotation. A section or key is required when
its field has no default. The sections a config carries name its mode:
[sweep] sweep, [verify] verify, neither solve (ExperimentConfig.mode); a
config with both is refused. Without max_iter each method keeps its own
budget. Unknown sections or keys are rejected (no silent typos), so are the
values a check would refuse before any solve, and a config round-trips
losslessly through config_to_text/parse_config.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

from .problem import ProblemSpec, make_power_rhs, make_pure_power_rhs
from .solvers import METHOD_BUDGETS

__all__ = [
    "ConfigError",
    "RunSettings",
    "ProblemSettings",
    "NumericsSettings",
    "OutputSettings",
    "SweepSettings",
    "VerifySettings",
    "ExperimentConfig",
    "parse_config",
    "config_to_text",
    "build_spec",
]

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
    seed: int = 0


@dataclass(frozen=True)
class ProblemSettings:
    theta: float
    dim: int
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
class OutputSettings:
    dir: str = "out"


@dataclass(frozen=True)
class SweepSettings:
    axis: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class VerifySettings:
    checks: tuple[str, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSettings
    run: RunSettings = field(default_factory=RunSettings)
    numerics: NumericsSettings = field(default_factory=NumericsSettings)
    output: OutputSettings = field(default_factory=OutputSettings)
    sweep: Optional[SweepSettings] = None
    verify: Optional[VerifySettings] = None

    @property
    def mode(self) -> str:
        """The subcommand this config is for, named by the section it carries."""
        if self.sweep is not None:
            return "sweep"
        return "verify" if self.verify is not None else "solve"


_SECTIONS = {
    "run": RunSettings,
    "problem": ProblemSettings,
    "numerics": NumericsSettings,
    "output": OutputSettings,
    "sweep": SweepSettings,
    "verify": VerifySettings,
}
_SCALARS = {"float": float, "int": int, "Optional[int]": int, "str": str}


def _kinds(section: str) -> dict[str, str]:
    """Key -> value kind of a section: its settings fields and their annotations."""
    return {f.name: f.type for f in fields(_SECTIONS[section])}


def _required(cls) -> list[str]:
    """The fields of a dataclass without a default: the sections or keys a config must give."""
    return [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]


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
    for name in _required(ExperimentConfig):
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    for name, keys in sections.items():
        for key in _required(_SECTIONS[name]):
            if key not in keys:
                raise ConfigError(f"missing required key {key!r} in [{name}]")
    if "sweep" in sections and "verify" in sections:
        raise ConfigError("a config carries [sweep] or [verify], not both")

    def settings(section: str):
        kinds = _kinds(section)
        return _SECTIONS[section](**{
            key: _parse_value(raw, kinds[key], f"[{section}] {key}")
            for key, raw in sections[section].items()
        })

    cfg = ExperimentConfig(**{name: settings(name) for name in sections})
    run, problem, numerics = cfg.run, cfg.problem, cfg.numerics
    if run.seed < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {run.seed}")

    if problem.dim not in (1, 2, 3):
        raise ConfigError(f"[problem] dim must be 1, 2, or 3, got {problem.dim}")
    if problem.rhs not in RHS_FORMS:
        raise ConfigError(f"[problem] rhs must be one of {tuple(RHS_FORMS)}, got {problem.rhs!r}")

    if numerics.tol <= 0 or (numerics.max_iter is not None and numerics.max_iter <= 0):
        raise ConfigError("[numerics] need tol > 0 and max_iter > 0")
    if numerics.method not in METHODS:
        raise ConfigError(f"[numerics] method must be one of {METHODS}, got {numerics.method!r}")
    try:  # ProblemSpec, Grid and the rhs factories refuse theta, the box and the rhs values
        spec = build_spec(cfg)
    except ValueError as exc:
        raise ConfigError(f"[problem]/[numerics] (rhs = {problem.rhs}): {exc}") from exc

    sweep = cfg.sweep
    if sweep is not None:
        if sweep.axis not in SWEEP_AXES:
            raise ConfigError(f"[sweep] axis must be one of {SWEEP_AXES}, got {sweep.axis!r}")
        if not sweep.values:
            raise ConfigError("[sweep] values must be a nonempty list")
        if any(v <= 0 or (sweep.axis == "radius" and v < numerics.h) for v in sweep.values):
            raise ConfigError(f"[sweep] {sweep.axis} values must be > 0, radii >= [numerics] h")

    verify = cfg.verify
    if verify is not None:
        if not verify.checks:
            raise ConfigError("[verify] checks must be a nonempty list")
        for i, name in enumerate(verify.checks):
            if name not in CHECK_NAMES:
                raise ConfigError(
                    f"[verify] unknown check {name!r}; known checks: {', '.join(CHECK_NAMES)}"
                )
            if name in verify.checks[:i]:
                raise ConfigError(f"[verify] check {name!r} is listed twice")
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
        if "continuity_bound" in verify.checks and not spec.rhs.min_value() > 0:
            raise ConfigError("[verify] continuity_bound needs f > 0: raise [problem] shift")

    return cfg


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
        if getattr(cfg, section) is None:
            continue
        lines.append(f"[{section}]")
        values = asdict(getattr(cfg, section))
        lines.extend(f"{k} = {_format_value(v)}" for k, v in values.items() if v is not None)
        lines.append("")
    return "\n".join(lines)


def build_spec(cfg: ExperimentConfig) -> ProblemSpec:
    p = cfg.problem
    return ProblemSpec(
        theta=p.theta,
        m=p.dim,
        rhs=RHS_FORMS[p.rhs](p.coeff, p.alpha, p.shift),
        radius=cfg.numerics.radius,
        h=cfg.numerics.h,
    )
