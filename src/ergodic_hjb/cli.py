"""Batch front-end: solve, sweep, and verify subcommands.

Exit codes: 0 success, 1 configuration error, 2 solver failure (any error
raised once the config is accepted), 3 verification failure. Result files are
deterministic for a fixed config; wall times and timestamps live only in
meta.json (per sweep row in row_wall_s, per check in check_wall_s). verify
runs analysis.check_<name>(spec, solver_tol) for each configured check, with
the run's seed for uniqueness: every other input of a check is its default in
analysis. The checks of one verify run share their ergodic solves: each
problem is solved once, by Newton from the eikonal guess, so a check's wall
time leaves out a solve an earlier check made. method and max_iter of
[numerics] apply to solve, and radius and coeff sweeps; an epsilon sweep runs
the discount route at its own budget.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, analysis
from .config import (
    ConfigError,
    ExperimentConfig,
    build_spec,
    parse_config,
)
from .grid import _fmt, dump_json, field_to_csv
from .solvers import (
    ConvergenceTrace,
    SolverError,
    discounted_lambda_path,
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
    and reused LU steps and GMRES iterations on the held LU, and one entry per
    coarser grid solved first."""
    return {
        "factorizations": trace.factorizations,
        "reused_steps": trace.reused_steps,
        "reused_iterations": trace.reused_iterations,
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
        _write(out / "trace.jsonl", exc.trace.to_jsonl())
        linear = _linear_counts(exc.trace)
        _write_meta(out, time.perf_counter() - start, {"status": "solver_failure", **linear})
        return 2
    wall = time.perf_counter() - start
    doc = {
        "lambda": sol.lam,
        "lambda_lo": sol.lambda_lo,
        "lambda_hi": sol.lambda_hi,
        "residual_sup": sol.residual_sup,
        "method": sol.method,
        "boundary_policy": "reflecting",
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
    meta = {
        "axis": axis, "n_rows": len(rows), "row_wall_s": [[r["value"], r["wall_s"]] for r in rows]
    }
    _write_meta(out, time.perf_counter() - start, meta)
    ok = all(r["status"] == "ok" for r in rows)
    if not ok:
        failed = [r for r in rows if r["status"] != "ok"]
        print(f"sweep: {len(failed)}/{len(rows)} rows failed", file=sys.stderr)
    return 0 if ok else 2


# -- verify -----------------------------------------------------------------------


def _run_one_check(name: str, cfg: ExperimentConfig):
    """One check's (verdicts, plot tables), and [name, wall seconds] for meta.json.

    The check is looked up on analysis at call time, so a wrapper installed there sees the call.
    """
    t0 = time.perf_counter()
    seed = {"seed": cfg.run.seed} if name == "uniqueness" else {}
    check = getattr(analysis, f"check_{name}")
    result = check(build_spec(cfg), solver_tol=cfg.numerics.tol, **seed)
    return result, [name, time.perf_counter() - t0]


def run_verify(cfg: ExperimentConfig, out_dir: str) -> int:
    out = Path(out_dir)
    start = time.perf_counter()
    with analysis._verify_pass():  # each distinct ergodic solve once per pass
        results = [_run_one_check(nm, cfg) for nm in cfg.verify.checks]

    verdicts = []
    for (reps, tables), _ in results:
        verdicts.extend(reps)
        for fname, rows in tables.items():
            body = [[_fmt(value) for value in row.values()] for row in rows]
            _write(out / "plots" / fname, _csv(list(rows[0]), body))

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
    meta = {"n_checks": len(results), "check_wall_s": [wall for _, wall in results]}
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
        ("solve", "one reflecting (Neumann) ergodic solve"),
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
