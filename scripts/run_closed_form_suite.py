#!/usr/bin/env python3
"""Solve the closed-form family and print measured vs exact critical values.

f = (1/theta)|y|^theta + 1 is solved by phi = |y|^2/2 with lambda = m/2 + 1,
which makes this the quickest end-to-end sanity run for the solver stack.
The last columns are the Newton iterations and LU factorizations on the
requested grid and, for a nested solve, one n_per_axis:iterations pair per
coarser grid solved first.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's package

from ergodic_hjb.problem import ProblemSpec, make_pure_power_rhs
from ergodic_hjb.solvers import eikonal_initial_guess, solve_ergodic


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h1", type=float, default=0.01, help="spacing in dimension 1")
    ap.add_argument("--h2", type=float, default=0.05, help="spacing in dimension 2")
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args()

    grids = {1: (8.0, args.h1), 2: (6.0, args.h2)}
    print(f"{'theta':>6} {'m':>3} {'lambda':>12} {'exact':>8} {'lam err':>9} "
          f"{'phi err':>9} {'residual':>10} {'time':>7} {'iters':>5} {'LUs':>4}  coarse")
    for theta in (1.5, 2.0, 3.0):
        for m, (radius, h) in grids.items():
            rhs = make_pure_power_rhs(1.0 / theta, theta, shift=1.0)
            spec = ProblemSpec(theta=theta, m=m, rhs=rhs, radius=radius, h=h)
            t0 = time.perf_counter()
            sol = solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=args.tol)
            wall = time.perf_counter() - t0
            trace = sol.trace  # fine-grid counts, then n_per_axis:iterations per coarse grid
            coarse = " ".join(f"{lv['n_per_axis']}:{lv['iterations']}" for lv in trace.coarse_levels)
            exact_lam = 0.5 * m + 1.0
            exact_phi = 0.5 * spec.grid.radii() ** 2
            exact_phi -= exact_phi[spec.anchor_index]
            bulk = spec.grid.radii() <= radius / 2.0
            d = sol.phi.values[bulk] - exact_phi[bulk]
            print(f"{theta:>6} {m:>3} {sol.lam:>12.6f} {exact_lam:>8.3f} "
                  f"{abs(sol.lam - exact_lam):>9.2e} {(d.max() - d.min()) / 2:>9.2e} "
                  f"{sol.residual_sup:>10.2e} {wall:>6.1f}s {trace.records[-1].iteration:>5} "
                  f"{trace.factorizations:>4}  {coarse or '-'}")


if __name__ == "__main__":
    main()
