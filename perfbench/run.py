#!/usr/bin/env python3
"""Benchmark of ergodic-hjb: one workload per process, one caller, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): verify_suite, closed_form_warm, closed_form_cold.
The package is imported from ``src/`` of the checkout; without it the command
exits with code 2 and prints no result.

A run sets up the workload's inputs from --seed, then runs whole passes over
its operations, one call at a time, until --seconds have elapsed and the
workload's minimum number of passes is done (two for verify_suite and
closed_form_warm, one for closed_form_cold). After the timed passes it checks
every output and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 wrappers around the package's public functions
record spans and the metrics are the per-layer ones (end-to-end numbers never
come from a traced run). A line ``report {...}`` before it carries the seed,
the output digest, per-op medians, the versions and the machine facts the
numbers depend on.

The run exits 1 when a correctness check failed and 2 on a usage or set-up
error.
"""

import os
import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

# One thread per BLAS/OpenMP pool; must be set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3  # this process plus two fresh ones

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lambda_err_max", "abs"),
    ("ok_frac", "ratio"),
)


def _parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package() -> None:
    """Import ergodic_hjb from src/ of this checkout, never from elsewhere."""
    if not (SRC / "ergodic_hjb" / "__init__.py").is_file():
        _fail(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ergodic_hjb

    if Path(ergodic_hjb.__file__).resolve().parent != (SRC / "ergodic_hjb").resolve():
        _fail(f"imported ergodic_hjb from {ergodic_hjb.__file__}, not from {SRC}")


def _getconf(name: str):
    try:
        out = subprocess.run(
            ["getconf", name], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _setup_samples(args) -> list[float]:
    """Set-up time of fresh processes (imports plus inputs), one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--setup-only",
                "--workload", args.workload, "--seed", str(args.seed),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"set-up subprocess failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _run_passes(workload, seconds: float, recorder=None):
    """Closed loop: whole passes, one op at a time, until `seconds` have elapsed.

    A workload whose single pass is short asks for more via min_passes.
    """
    passes = []
    op_times: dict[str, list[float]] = {}
    pass_walls = []
    begin = time.perf_counter()
    while True:
        workload.before_pass()
        results = []
        pass_wall = 0.0
        for op in workload.ops():
            t0 = time.perf_counter()
            try:
                if recorder is not None:
                    out = recorder.span("bench.op", op.call)
                else:
                    out = op.call()
            except Exception as exc:  # a failed op is counted, never skipped
                out = exc
            dt = time.perf_counter() - t0
            pass_wall += dt
            op_times.setdefault(op.label, []).append(dt)
            if not isinstance(out, Exception):
                out = workload.after_op(op, out)
            results.append((op, out))
        passes.append(results)
        pass_walls.append(pass_wall)
        if time.perf_counter() - begin >= seconds and len(passes) >= workload.min_passes:
            return passes, pass_walls, op_times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, SCRATCH)
    workload.setup()
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(own_setup))
        return 0

    setup = [own_setup] + (_setup_samples(args) if not args.trace else [])

    trace = None
    if args.trace:
        import tracer

        trace = tracer.Tracer()
        trace.install()
    try:
        passes, pass_walls, op_times = _run_passes(
            workload, args.seconds, trace.rec if trace else None
        )
    finally:
        if trace is not None:
            trace.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome = workloads.Outcome()
    workload.check(passes, outcome)

    import numpy
    import scipy

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "op_median_s": {k: statistics.median(v) for k, v in op_times.items()},
        "setup_samples_s": setup,
        "digest": workloads.digest(outcome.digest_lines),
        "failures": outcome.failures,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        **outcome.details,
    }

    if trace is not None:
        extras = {
            "artifact_files": outcome.details.get("artifact_files", 0),
            "artifact_bytes": outcome.details.get("artifact_bytes", 0),
            "wrapper_cost_s": tracer.wrapper_cost_s(),
        }
        layer = tracer.layer_metrics(trace.rec, len(passes), extras)
        spans_path = SCRATCH / f"spans-{args.workload}-{args.seed}.npz"
        trace.rec.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {name: _metric(layer[name], unit) for name, unit, _ in tracer.PER_LAYER}
        notes = {name: f"per pass, mean of {len(passes)}" for name in metrics}
    else:
        values = {
            "wall_s": statistics.median(pass_walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "lambda_err_max": outcome.lambda_err_max,
            "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted
            if outcome.attempted
            else 0.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        notes = {name: "whole run" for name in metrics}
        notes["wall_s"] = f"median of {len(pass_walls)} passes"
        notes["setup_s"] = f"median of {len(setup)} set-ups"

    correct = outcome.failed == 0 and outcome.attempted > 0
    print("report " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}  ({notes[name]})")
    print(
        f"{args.workload} fail_frac = {outcome.failed / max(outcome.attempted, 1):.6g} ratio"
        f"  ({outcome.failed} of {outcome.attempted} operations failed)"
    )
    print(f"{args.workload} digest = {report['digest']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed if outcome.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
