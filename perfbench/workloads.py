"""The benchmark's three workloads on the public API of ``ergodic_hjb``.

verify_suite
    ``ergodic-hjb verify --config configs/verify_suite.cfg --seed <seed>``,
    run in-process through ``cli.main``: the acceptance run. Its time is the
    explicit marches of ``cross_method`` on 801 nodes, so per-call overhead of
    the march kernels dominates and sparse LU is about 1% of it.
closed_form_warm
    ``solve_ergodic`` from ``eikonal_initial_guess`` with Newton and policy
    iteration, theta in {1.5, 2, 3}, on the 1-d (R=8, h=0.01) and 2-d (R=6,
    h=0.05) closed-form instances: sparse factor+solve dominates, no march
    steps and no Newton restarts. The control for march and restart changes.
closed_form_cold
    Newton from ``random_smooth_field`` on the 2-d instances, with field seeds
    derived from the benchmark seed: exercises the stall -> march -> restart
    path on 58,081-node arrays, the opposite array size to verify_suite.

The closed-form family f = |y|^theta/theta + 1 is solved by phi = |y|^2/2
with lambda = m/2 + 1.

Each workload has ``setup`` (inputs from the seed; its time is ``setup_s``),
``ops`` (the timed calls of one pass, run one at a time) and ``check`` (the
correctness gate and the output digest, outside the timed region).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TOL = 1e-8
THETAS = (1.5, 2.0, 3.0)
GRID_1D = (1, 8.0, 0.01)  # (m, R, h)
GRID_2D = (2, 6.0, 0.05)  # 241 x 241 = 58,081 nodes
WARM_METHODS = ("newton_augmented", "policy_iteration")
VERIFY_CONFIG = Path("configs") / "verify_suite.cfg"
CROSS_ROUTES = (
    "newton_augmented",
    "policy_iteration",
    "relative_value_iteration",
    "parabolic_march",
    "discounted_extrapolation",
)
LAMBDA_REL_TOL = 0.05


@dataclass
class Op:
    """One timed call: a solve or one verify run."""

    label: str
    call: Callable[[], object]
    spec: object = None  # the ProblemSpec a solve works on


@dataclass
class Outcome:
    """Result of checking every op of every pass."""

    attempted: int = 0
    failed: int = 0
    lambda_err_max: float = 0.0
    failures: list = field(default_factory=list)
    digest_lines: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def record(self, label: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {why}")


def _closed_form_spec(theta: float, m: int, radius: float, h: float):
    from ergodic_hjb.problem import ProblemSpec, make_pure_power_rhs

    rhs = make_pure_power_rhs(1.0 / theta, theta, shift=1.0)
    return ProblemSpec(theta=theta, m=m, rhs=rhs, radius=radius, h=h)


def _field_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def restarts(records) -> int:
    """Newton restarts in a returned trace: records with iteration 0 after the first."""
    return sum(1 for r in records[1:] if r.iteration == 0)


def _lu_fill(spec, values) -> dict:
    """Fill of the LU factors of the augmented Newton system at `values`.

    Uses the same SuperLU column ordering (COLAMD) that spsolve uses.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from ergodic_hjb.scheme import STATE_CONSTRAINT, DiscreteOperator

    n = spec.grid.n_nodes
    anchor = int(np.ravel_multi_index(spec.anchor_index, spec.grid.shape))
    jac = DiscreteOperator(spec, boundary_policy=STATE_CONSTRAINT).jacobian(values)
    aug = sp.bmat(
        [
            [jac, sp.csr_matrix(np.ones((n, 1)))],
            [sp.csr_matrix(([1.0], ([0], [anchor])), shape=(1, n)), None],
        ],
        format="csc",
    )
    lu = splu(aug, permc_spec="COLAMD")
    return {
        "n": int(aug.shape[0]),
        "nnz_matrix": int(aug.nnz),
        "nnz_factors": int(lu.L.nnz + lu.U.nnz),
    }


def _largest_array(spec) -> dict:
    nodes = int(spec.grid.n_nodes)
    return {"nodes": nodes, "field_bytes": 8 * nodes, "shape": list(spec.grid.shape)}


# -- verify_suite -------------------------------------------------------------------


class VerifySuite:
    name = "verify_suite"
    # Host load from other tenants drifts over tens of seconds; a run measures
    # at least about 20 s so that one slow stretch does not set its median.
    min_passes = 2

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.out = scratch / f"verify_suite-{seed}"

    def setup(self) -> None:
        from ergodic_hjb import cli  # noqa: F401  (import cost belongs to set-up)
        from ergodic_hjb.config import build_spec, parse_config

        cfg = parse_config((self.root / VERIFY_CONFIG).read_text())
        self.spec = build_spec(cfg)
        self.argv = [
            "verify",
            "--config", str(self.root / VERIFY_CONFIG),
            "--out", str(self.out),
            "--seed", str(self.seed),
        ]

    def ops(self) -> list[Op]:
        from ergodic_hjb import cli

        def run() -> int:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(self.argv)

        return [Op("verify", run)]

    def before_pass(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def after_op(self, op: Op, result) -> dict:
        """Collect what the op wrote before the next pass removes it."""
        files = [p for p in self.out.rglob("*") if p.is_file()] if self.out.exists() else []
        verdicts_path = self.out / "verdicts.json"
        return {
            "rc": result,
            "verdicts_text": verdicts_path.read_text() if verdicts_path.is_file() else None,
            "artifact_files": len(files),
            "artifact_bytes": sum(p.stat().st_size for p in files),
        }

    def check(self, passes: list[list[tuple[Op, object]]], outcome: Outcome) -> None:
        """Operations are the cli.main call and each verdict it wrote."""
        reference = 1.0 + 1.0 / math.sqrt(2.0)
        first = None
        for p, results in enumerate(passes):
            for op, res in results:
                label = f"pass{p}:{op.label}"
                if isinstance(res, BaseException):
                    outcome.record(label, False, repr(res))
                    continue
                text = res["verdicts_text"]
                why = f"exit code {res['rc']}" if res["rc"] != 0 else ""
                if text is None:
                    why += " verdicts.json not written"
                elif first is None:
                    first = text
                    outcome.digest_lines.append(text)
                    outcome.details["artifact_files"] = res["artifact_files"]
                    outcome.details["artifact_bytes"] = res["artifact_bytes"]
                elif text != first:
                    why += " verdicts.json differs from the first pass"
                outcome.record(label, not why, why.strip())
                for v in json.loads(text) if text is not None else []:
                    outcome.record(f"{label}:{v['name']}", bool(v["passed"]), "verdict failed")
                    if v["name"] == "cross_method":
                        for route in CROSS_ROUTES:
                            err = abs(float(v["measured"][route]) - reference)
                            outcome.lambda_err_max = max(outcome.lambda_err_max, err)
        shutil.rmtree(self.out, ignore_errors=True)
        outcome.details["largest_array"] = _largest_array(self.spec)
        from ergodic_hjb.solvers import eikonal_initial_guess

        outcome.details["lu_fill"] = _lu_fill(self.spec, eikonal_initial_guess(self.spec).values)


# -- closed-form solves ----------------------------------------------------------------


class ClosedForm:
    """Shared part of the warm and cold closed-form workloads."""

    name = ""
    grids: tuple = ()
    min_passes = 1

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.seed = seed

    def instances(self):
        for theta in THETAS:
            for m, radius, h in self.grids:
                yield theta, m, radius, h

    def before_pass(self) -> None:
        pass

    def after_op(self, op: Op, result):
        return result

    def _solve_op(self, label: str, spec, guess, method: str) -> Op:
        from ergodic_hjb import solvers

        def run():
            return solvers.solve_ergodic(spec, initial_guess=guess, method=method, tol=TOL)

        return Op(label, run, spec)

    def _check_solution(self, sol, spec, outcome: Outcome) -> str:
        """Closed-form gate; returns why it failed, or "" when it passed."""
        exact = 0.5 * spec.m + 1.0
        err = abs(sol.lam - exact)
        outcome.lambda_err_max = max(outcome.lambda_err_max, err)
        if err <= LAMBDA_REL_TOL * exact and sol.residual_sup <= TOL:
            return ""
        return f"lambda {sol.lam!r} vs {exact}, residual {sol.residual_sup:.3e}"

    def _digest_line(self, op: Op, sol) -> str:
        records = sol.trace.records
        return (
            f"{op.label} lambda={sol.lam:.17g} records={len(records)} "
            f"restarts={restarts(records)}"
        )

    def _same_as_first_pass(self, op: Op, sol, first: dict) -> str:
        """Deterministic outputs must repeat exactly in every pass."""
        line = self._digest_line(op, sol)
        if first.setdefault(op.label, line) == line:
            return ""
        return f" output differs from the first pass: {line}"

    def _sizes(self, outcome: Outcome) -> None:
        from ergodic_hjb.solvers import eikonal_initial_guess

        theta, m, radius, h = max(self.instances(), key=lambda t: (t[1], t[0]))
        spec = _closed_form_spec(theta, m, radius, h)
        outcome.details["largest_array"] = _largest_array(spec)
        outcome.details["lu_fill"] = _lu_fill(spec, eikonal_initial_guess(spec).values)


class ClosedFormWarm(ClosedForm):
    name = "closed_form_warm"
    grids = (GRID_1D, GRID_2D)
    min_passes = 2  # a pass takes about 11 s; see VerifySuite.min_passes

    def setup(self) -> None:
        from ergodic_hjb.solvers import eikonal_initial_guess

        self.inputs = []
        for theta, m, radius, h in self.instances():
            spec = _closed_form_spec(theta, m, radius, h)
            self.inputs.append((theta, m, spec, eikonal_initial_guess(spec)))

    def ops(self) -> list[Op]:
        return [
            self._solve_op(f"{method} theta={theta:g} m={m}", spec, guess, method)
            for theta, m, spec, guess in self.inputs
            for method in WARM_METHODS
        ]

    def check(self, passes, outcome: Outcome) -> None:
        first: dict[str, str] = {}
        for p, results in enumerate(passes):
            for op, sol in results:
                label = f"pass{p}:{op.label}"
                if isinstance(sol, BaseException):
                    outcome.record(label, False, repr(sol))
                    continue
                why = self._check_solution(sol, op.spec, outcome)
                why += self._same_as_first_pass(op, sol, first)
                outcome.record(label, not why, why)
        outcome.digest_lines.extend(first.values())
        self._sizes(outcome)


class ClosedFormCold(ClosedForm):
    """Newton from seeded random fields on the 2-d instances.

    The 1-d instances are not part of this workload: from random fields
    Newton stagnates on about one field in seven at theta 1.5 and 2 (h=0.01),
    and a benchmark operation must not fail. The 2-d instances converge from
    every field tried, with one restart at theta 3.
    """

    name = "closed_form_cold"
    grids = (GRID_2D,)

    def setup(self) -> None:
        from ergodic_hjb.solvers import random_smooth_field

        self.inputs = []
        for index, (theta, m, radius, h) in enumerate(self.instances()):
            spec = _closed_form_spec(theta, m, radius, h)
            field_seed = _field_seed(self.seed, index)
            self.inputs.append(
                (theta, m, spec, field_seed, random_smooth_field(spec.grid, field_seed))
            )

    def ops(self) -> list[Op]:
        return [
            self._solve_op(
                f"newton_augmented theta={theta:g} m={m} field_seed={fs}",
                spec, guess, "newton_augmented",
            )
            for theta, m, spec, fs, guess in self.inputs
        ]

    def check(self, passes, outcome: Outcome) -> None:
        """Closed-form gate plus agreement with the warm-start Newton solve.

        The warm-start reference solves run here, outside the timed region.
        The lambda gap passes at 1e-10 or, failing that, within the sum of the
        two residual sup-norms: for a monotone scheme, comparing the two
        solutions at the extrema of their difference bounds the lambda gap by
        that sum, so a larger gap means a defect, not an unlucky start.
        """
        from ergodic_hjb import solvers

        refs = {}
        for op, _ in passes[0]:
            spec = op.spec
            refs[op.label] = solvers.solve_ergodic(
                spec, initial_guess=solvers.eikonal_initial_guess(spec), tol=TOL
            )
        first: dict[str, str] = {}
        gap_max = 0.0
        osc_max = 0.0
        restart_count = 0
        for p, results in enumerate(passes):
            for op, sol in results:
                label = f"pass{p}:{op.label}"
                if isinstance(sol, BaseException):
                    outcome.record(label, False, repr(sol))
                    continue
                why = self._check_solution(sol, op.spec, outcome)
                ref = refs[op.label]
                gap = abs(sol.lam - ref.lam)
                diff = sol.phi.values - ref.phi.values
                osc = float(diff.max() - diff.min())
                gap_max = max(gap_max, gap)
                osc_max = max(osc_max, osc)
                lam_ok = gap <= 1e-10 or gap <= sol.residual_sup + ref.residual_sup
                if not (lam_ok and osc <= 10.0 * TOL):
                    why += f" cold vs warm: lambda gap {gap:.3e}, phi oscillation {osc:.3e}"
                why += self._same_as_first_pass(op, sol, first)
                outcome.record(label, not why, why.strip())
                if p == 0:
                    restart_count += restarts(sol.trace.records)
        outcome.digest_lines.extend(first.values())
        outcome.details["cold_vs_warm_lambda_gap_max"] = gap_max
        outcome.details["cold_vs_warm_phi_osc_max"] = osc_max
        outcome.details["restarts_per_pass"] = restart_count
        self._sizes(outcome)


WORKLOADS = {
    VerifySuite.name: VerifySuite,
    ClosedFormWarm.name: ClosedFormWarm,
    ClosedFormCold.name: ClosedFormCold,
}


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
