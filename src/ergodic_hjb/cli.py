"""Batch front-end: solve, sweep, and verify subcommands.

Exit codes: 0 success, 1 configuration error, 2 solver failure (any error
raised once the config is accepted), 3 verification failure. Result files are
deterministic for a fixed config; wall times and timestamps live only in
meta.json / sweep_timing.csv.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import (
    check_cross_method,
    check_continuity_bound,
    check_dirichlet_family,
    check_gradient_estimate,
    check_growth_exponent,
    check_interior_minimum,
    check_lambda_shape,
    check_lambda_star_characterization,
    check_power_supersolution,
    check_radius_monotonicity,
    check_scaling_law,
    check_shift_equivariance,
    check_uniqueness,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    build_spec,
    parse_config,
)
from .grid import _fmt, dump_json, field_to_csv
from .problem import ProblemSpec, make_pure_power_rhs
from .scheme import STATE_CONSTRAINT
from .solvers import (
    ConvergenceTrace,
    SolverError,
    discounted_lambda_path,
    eikonal_initial_guess,
    solve_ergodic,
)

__all__ = ["main", "run_solve", "run_sweep", "run_verify"]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_meta(out: Path, wall_s: float, extra: dict | None = None) -> None:
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall_s,
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    _write(out / "meta.json", dump_json(meta) + "\n")


def _csv(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


# -- solve ------------------------------------------------------------------------


def _linear_counts(trace: ConvergenceTrace) -> dict:
    """How a solve's steps were solved, for meta.json: the fine grid's fresh
    and reused LU steps, and one entry per coarser grid solved first."""
    return {
        "factorizations": trace.factorizations,
        "reused_steps": trace.reused_steps,
        "coarse_levels": trace.coarse_levels,
    }


def run_solve(cfg: ExperimentConfig, out_dir: str) -> int:
    out = Path(out_dir)
    spec = build_spec(cfg)
    start = time.perf_counter()
    try:
        sol = solve_ergodic(
            spec,
            method=cfg.numerics.method,
            tol=cfg.numerics.tol,
            max_iter=cfg.numerics.max_iter,
        )
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        linear = {}
        if exc.trace is not None:
            _write(out / "trace.jsonl", exc.trace.to_jsonl())
            linear = _linear_counts(exc.trace)
        _write_meta(out, time.perf_counter() - start, {"status": "solver_failure", **linear})
        return 2
    wall = time.perf_counter() - start
    doc = {
        "lambda": sol.lam,
        "residual_sup": sol.residual_sup,
        "method": sol.method,
        "boundary_policy": STATE_CONSTRAINT,
        "tolerance": sol.tol,
        "grid": {"m": spec.m, "radius": spec.radius, "h": spec.h},
        "anchor": [0.0] * spec.m,
        "theta": spec.theta,
        "rhs": spec.rhs.descriptor(),
        "values": sol.phi.values.ravel().tolist(),
    }
    _write(out / "solution.json", dump_json(doc) + "\n")
    _write(out / "solution.csv", field_to_csv(sol.phi))
    _write(out / "trace.jsonl", sol.trace.to_jsonl())
    _write_meta(out, wall, {"status": "ok", **_linear_counts(sol.trace)})
    return 0


# -- sweep ------------------------------------------------------------------------


def _sweep_row(cfg: ExperimentConfig, axis: str, value: float) -> dict:
    t0 = time.perf_counter()
    n = cfg.numerics
    try:
        if axis == "epsilon":
            (row,), _ = discounted_lambda_path(build_spec(cfg), [float(value)], n.tol)
            lam, res = row["lambda"], row["residual_sup"]
        else:
            if axis == "radius":
                cfg = replace(cfg, numerics=replace(n, radius=float(value)))
            else:  # coeff
                cfg = replace(cfg, problem=replace(cfg.problem, coeff=float(value)))
            sol = solve_ergodic(build_spec(cfg), method=n.method, tol=n.tol, max_iter=n.max_iter)
            lam, res = sol.lam, sol.residual_sup
        return {
            "value": value, "lambda": lam, "residual": res,
            "status": "ok", "wall_s": time.perf_counter() - t0,
        }
    except SolverError as exc:
        return {
            "value": value, "lambda": None, "residual": None,
            "status": f"failed:{type(exc).__name__}", "wall_s": time.perf_counter() - t0,
        }


def run_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    out = Path(out_dir)
    axis = cfg.sweep.axis
    start = time.perf_counter()
    rows = [_sweep_row(cfg, axis, v) for v in cfg.sweep.values]

    header = [axis, "lambda", "residual_sup", "status"]
    body = [
        [_fmt(r["value"]),
         _fmt(r["lambda"]) if r["lambda"] is not None else "",
         _fmt(r["residual"]) if r["residual"] is not None else "",
         r["status"]]
        for r in rows
    ]
    _write(out / "sweep.csv", _csv(header, body))
    timing = [[_fmt(r["value"]), _fmt(r["wall_s"])] for r in rows]
    _write(out / "sweep_timing.csv", _csv([axis, "wall_time_s"], timing))
    _write_meta(out, time.perf_counter() - start, {"axis": axis, "n_rows": len(rows)})
    ok = all(r["status"] == "ok" for r in rows)
    if not ok:
        failed = [r for r in rows if r["status"] != "ok"]
        print(f"sweep: {len(failed)}/{len(rows)} rows failed", file=sys.stderr)
    return 0 if ok else 2


# -- verify -----------------------------------------------------------------------

# Each entry maps (cfg, spec) to (verdicts, plot tables as {filename: (header, rows)}) and
# calls its check by module-global name, so a wrapper installed on that name sees the call.

# Each property is stated for one problem, so the battery checks the config's problem on its
# box at fixed inputs: the constants below, and boxes and radii that are fractions of
# R = [numerics] radius. The checks were calibrated at R = 8, where each fraction is exact.
# CHECK_TOL is the one check-level tolerance, kept in one place to be split per check.
CHECK_TOL = 0.03
SCALING_C = 4.0  # dilation constant of scaling_law
F2 = (1.0, 4.0, 1.0)  # (coeff, alpha, shift) of the second rhs; continuity_bound keeps f's family
T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)  # blend weights of lambda_shape
SUPERSOLUTION_Q = 1.01


def _shift_equivariance(cfg: ExperimentConfig, spec: ProblemSpec):
    rep = check_shift_equivariance(spec, tol=CHECK_TOL, solver_tol=cfg.numerics.tol)
    return [rep], {}


def _scaling_law(cfg: ExperimentConfig, spec: ProblemSpec):
    rep = check_scaling_law(spec, SCALING_C, tol_rel=CHECK_TOL, tol=cfg.numerics.tol)
    return [rep], {}


def _lambda_shape(cfg: ExperimentConfig, spec: ProblemSpec):
    reps = check_lambda_shape(
        spec, make_pure_power_rhs(*F2), list(T_GRID), tol=CHECK_TOL, solver_tol=cfg.numerics.tol
    )
    return reps, {}


def _growth_exponent(cfg: ExperimentConfig, spec: ProblemSpec):
    rep, sol = check_growth_exponent(spec.theta, spec.rhs.alpha, m=spec.m, tol=cfg.numerics.tol)
    rr = sol.phi.grid.radii().ravel()
    shifted = (sol.phi.values - sol.phi.values.min() + 1.0).ravel()
    mask = rr > 0
    rows = [[_fmt(r), _fmt(val)] for r, val in zip(rr[mask], shifted[mask])]
    return [rep], {"growth_loglog.csv": (["abs_y", "phi_shifted"], rows)}


def _continuity_bound(cfg: ExperimentConfig, spec: ProblemSpec):
    coeff2, _, shift2 = F2
    f2 = replace(spec.rhs, coeff=coeff2, shift=shift2)
    rep = check_continuity_bound(spec, f2, tol=CHECK_TOL, solver_tol=cfg.numerics.tol)
    return [rep], {}


def _uniqueness(cfg: ExperimentConfig, spec: ProblemSpec):
    seeds = (cfg.run.seed + 1, cfg.run.seed + 2)
    return [check_uniqueness(spec, seeds=seeds, solver_tol=cfg.numerics.tol)], {}


def _cross_method(cfg: ExperimentConfig, spec: ProblemSpec):
    rep, march, drows = check_cross_method(spec, pair_tol=CHECK_TOL, solver_tol=cfg.numerics.tol)
    rates = [[_fmt(t), _fmt(a), _fmt(b), _fmt(c)] for t, a, b, c in march.rate_stats]
    path = [[_fmt(r["epsilon"]), _fmt(r["lambda"])] for r in drows]
    return [rep], {
        "parabolic_rate.csv": (["t", "rate_min", "rate_mean", "rate_max"], rates),
        "discount_path.csv": (["epsilon", "lambda"], path),
    }


def _radius_monotonicity(cfg: ExperimentConfig, spec: ProblemSpec):
    big = spec.radius
    rep, table = check_radius_monotonicity(
        spec, radii=(big / 2, 3 * big / 4, big), slack=CHECK_TOL, solver_tol=cfg.numerics.tol
    )
    rows = [[_fmt(r["radius"]), _fmt(r["lambda"])] for r in table]
    return [rep], {"lambda_vs_radius.csv": (["radius", "lambda"], rows)}


def _lambda_star_characterization(cfg: ExperimentConfig, spec: ProblemSpec):
    rep, table = check_lambda_star_characterization(spec, solver_tol=cfg.numerics.tol)
    rows = [[_fmt(r["lambda"]), "1" if r["solvable"] else "0"] for r in table]
    return [rep], {"dirichlet_bracket.csv": (["lambda", "solvable"], rows)}


def _interior_minimum(cfg: ExperimentConfig, spec: ProblemSpec):
    n = cfg.numerics
    sol = solve_ergodic(spec, method=n.method, tol=n.tol, max_iter=n.max_iter)
    return [check_interior_minimum(sol)], {}


def _gradient_estimate(cfg: ExperimentConfig, spec: ProblemSpec):
    big = spec.radius  # boxes r_prime + gap of 3/4, 7/8 and all of it
    rep = check_gradient_estimate(
        spec, r_primes=(big / 4, 3 * big / 8, big / 2), gap=big / 2, tol=cfg.numerics.tol
    )
    return [rep], {}


def _warm_solve(cfg: ExperimentConfig, spec: ProblemSpec):
    n = cfg.numerics
    guess = eikonal_initial_guess(spec)
    return solve_ergodic(spec, initial_guess=guess, tol=n.tol, max_iter=n.max_iter)


def _power_supersolution(cfg: ExperimentConfig, spec: ProblemSpec):
    sol = _warm_solve(cfg, spec)
    return [check_power_supersolution(sol, q=SUPERSOLUTION_Q, r_inner=0.375 * spec.radius)], {}


def _dirichlet_family(cfg: ExperimentConfig, spec: ProblemSpec):
    sol = _warm_solve(cfg, spec)
    low = spec.rhs.min_value()
    lambdas = [low, 0.5 * (low + sol.lam - 0.1), sol.lam - 0.1]
    return [check_dirichlet_family(spec, lambdas, sol.lam, tol=cfg.numerics.tol)], {}


_CHECKS = {
    "shift_equivariance": _shift_equivariance,
    "scaling_law": _scaling_law,
    "lambda_shape": _lambda_shape,
    "growth_exponent": _growth_exponent,
    "continuity_bound": _continuity_bound,
    "uniqueness": _uniqueness,
    "cross_method": _cross_method,
    "radius_monotonicity": _radius_monotonicity,
    "lambda_star_characterization": _lambda_star_characterization,
    "interior_minimum": _interior_minimum,
    "gradient_estimate": _gradient_estimate,
    "power_supersolution": _power_supersolution,
    "dirichlet_family": _dirichlet_family,
}


def _run_one_check(name: str, cfg: ExperimentConfig):
    """One check's (verdicts, plots), and [name, wall seconds] for meta.json."""
    t0 = time.perf_counter()
    result = _CHECKS[name](cfg, build_spec(cfg))
    return result, [name, time.perf_counter() - t0]


def run_verify(cfg: ExperimentConfig, out_dir: str) -> int:
    out = Path(out_dir)
    start = time.perf_counter()
    results = [_run_one_check(nm, cfg) for nm in cfg.verify.checks]

    verdicts = []
    for (reps, plots), _ in results:
        verdicts.extend(reps)
        for fname, (header, rows) in plots.items():
            _write(out / "plots" / fname, _csv(header, rows))

    _write(out / "verdicts.json", dump_json([asdict(r) for r in verdicts]) + "\n")
    summary_rows = []
    for r in verdicts:
        measured = ";".join(f"{k}={_fmt(val)}" for k, val in r.measured.items())
        predicted = ";".join(f"{k}={_fmt(val)}" for k, val in r.predicted.items())
        summary_rows.append(
            [r.name, "pass" if r.passed else "fail", measured, predicted, _fmt(r.tolerance)]
        )
    _write(
        out / "verdicts.csv",
        _csv(["check", "outcome", "measured", "predicted", "tolerance"], summary_rows),
    )
    meta = {"n_checks": len(verdicts), "check_wall_s": [wall for _, wall in results]}
    _write_meta(out, time.perf_counter() - start, meta)
    failed = [r.name for r in verdicts if not r.passed]
    for r in verdicts:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodic-hjb",
        description="Solve and verify ergodic problems of viscous Hamilton-Jacobi equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, desc in (
        ("solve", "one state-constraint ergodic solve"),
        ("sweep", "a parameter sweep producing a CSV table"),
        ("verify", "run property checks and aggregate verdicts"),
    ):
        p = sub.add_parser(cmd, help=desc)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if cfg.mode != args.command:
            raise ConfigError(
                f"subcommand {args.command!r} needs a {args.command} config; this one is for "
                f"{cfg.mode!r} ([sweep] means sweep, [verify] verify, neither solve)"
            )
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or cfg.output.dir
    try:
        if args.command == "solve":
            return run_solve(cfg, out_dir)
        if args.command == "sweep":
            return run_sweep(cfg, out_dir)
        return run_verify(cfg, out_dir)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except Exception:  # parse_config refused every bad value: this is a solver fault
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
