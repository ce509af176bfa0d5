#!/usr/bin/env python3
"""Sweep the box radius and tabulate lambda_R, checking monotone decay.

Thin front-end over the package CLI so the output layout matches batch runs.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's package

from ergodic_hjb.cli import main as cli_main
from ergodic_hjb.config import (
    ExperimentConfig,
    NumericsSettings,
    OutputSettings,
    ProblemSettings,
    SweepSettings,
    config_to_text,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=2.0)
    ap.add_argument("--dim", type=int, default=1)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--coeff", type=float, default=0.5)
    ap.add_argument("--h", type=float, default=0.02)
    ap.add_argument("--radii", type=float, nargs="+", default=[4.0, 5.0, 6.0, 7.0, 8.0])
    ap.add_argument("--out", default="out/radius_sweep")
    args = ap.parse_args()

    out = Path(args.out)
    cfg = ExperimentConfig(
        problem=ProblemSettings(
            theta=args.theta, dim=args.dim, rhs="pure_power", alpha=args.alpha, coeff=args.coeff
        ),
        numerics=NumericsSettings(radius=max(args.radii), h=args.h),
        sweep=SweepSettings(axis="radius", values=tuple(sorted(args.radii))),
        output=OutputSettings(dir=str(out)),
    )
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "sweep.cfg"
    cfg_path.write_text(config_to_text(cfg))
    code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    if code == 0:
        print((out / "sweep.csv").read_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
