"""Traced-run mode: spans around calls into the package's layers.

Wrappers are installed on public names of ``ergodic_hjb`` from outside the
package. A name imported by several modules (``upwind_state`` lives in
``scheme`` and is imported by ``solvers`` and ``analysis``) is replaced in
every module dictionary that holds the same function object, so the calls
the package makes internally are caught too. Nothing in the package is
edited; ``uninstall`` puts the original objects back.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written once, by ``write``, when the benchmark ends. Self time of a span is
its duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap). Per-layer metrics are totals over
the measured passes divided by the number of passes.

Counts read from the span tree: a march step is an ``upwind_state`` call made
directly by a march (RVI, parabolic march, Newton's restart march); a Newton or
policy iteration is an ``spsolve`` call made directly by that solve; Newton
restarts are read from the trace the solve returns.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import restarts

ROOT_SPAN = "bench.op"

# solve_ergodic is one public entry point for three methods; its span is
# named after the method so each method is its own layer metric.
SOLVE_SPANS = {
    "newton_augmented": "solvers.newton",
    "policy_iteration": "solvers.policy",
    "relative_value_iteration": "solvers.rvi",
}
MARCH_PARENTS = ("solvers.rvi", "solvers.parabolic_march", "solvers.newton")

CHECKS = (
    "shift_equivariance", "scaling_law", "lambda_shape", "growth_exponent",
    "continuity_bound", "uniqueness", "cross_method", "radius_monotonicity",
    "lambda_star_characterization", "interior_minimum", "gradient_estimate",
    "dirichlet_family",
)
# (metric name, unit, better) for every per-layer metric, in print order.
PER_LAYER = (
    [
        ("scheme.upwind_state.calls", "count", "lower"),
        ("scheme.upwind_state.self_s", "s", "lower"),
        ("scheme.upwind_state.ns_per_node", "ns", "lower"),
        ("scheme.laplacian.calls", "count", "lower"),
        ("scheme.laplacian.self_s", "s", "lower"),
        ("scheme.laplacian.ns_per_node", "ns", "lower"),
        ("scheme.kernels.share", "ratio", "lower"),
        ("solvers.march.steps", "count", "lower"),
        ("solvers.parabolic_march.self_s", "s", "lower"),
        ("solvers.parabolic_march.steps", "count", "lower"),
        ("solvers.rvi.self_s", "s", "lower"),
        ("solvers.rvi.steps", "count", "lower"),
        ("solvers.spsolve.calls", "count", "lower"),
        ("solvers.spsolve.self_s", "s", "lower"),
        ("solvers.spsolve.nnz", "count", "lower"),
        ("solvers.spsolve.share", "ratio", "lower"),
        ("scheme.jacobian.calls", "count", "lower"),
        ("scheme.jacobian.self_s", "s", "lower"),
        ("scheme.jacobian.nnz", "count", "lower"),
        ("solvers.policy.calls", "count", "lower"),
        ("solvers.policy.self_s", "s", "lower"),
        ("solvers.policy.iterations", "count", "lower"),
        ("solvers.newton.calls", "count", "lower"),
        ("solvers.newton.self_s", "s", "lower"),
        ("solvers.newton.iterations", "count", "lower"),
        ("solvers.newton.restarts", "count", "lower"),
        ("solvers.newton.residuals_per_iteration", "ratio", "lower"),
        ("scheme.residual.calls", "count", "lower"),
        ("scheme.residual.self_s", "s", "lower"),
        ("scheme.drift_field.calls", "count", "lower"),
        ("scheme.drift_field.self_s", "s", "lower"),
        ("problem.f_field.calls", "count", "lower"),
        ("problem.f_field.self_s", "s", "lower"),
        ("solvers.discounted.calls", "count", "lower"),
        ("solvers.discounted.self_s", "s", "lower"),
        ("solvers.dirichlet.calls", "count", "lower"),
        ("solvers.dirichlet.failed", "count", "lower"),
        ("solvers.dirichlet.self_s", "s", "lower"),
        ("solvers.dirichlet.solved_frac", "ratio", "higher"),
    ]
    + [(f"analysis.{c}.s", "s", "lower") for c in CHECKS]
    + [
        ("cli.verify.s", "s", "lower"),
        ("cli.artifact_files", "count", "lower"),
        ("cli.artifact_bytes", "bytes", "lower"),
        ("config.parse_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
    ]
)


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nodes = array("q")
        self.nnz = array("q")
        self.failed = array("b")
        self.stack: list[int] = [-1]
        self.extra: dict[int, dict] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.nodes.append(0)
        self.nnz.append(0)
        self.failed.append(0)
        self.stack.append(idx)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; used for the benchmark's own ops."""
        idx = self.open(self.name_id(name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            nodes=np.array(self.nodes, dtype=np.int64),
            nnz=np.array(self.nnz, dtype=np.int64),
            failed=np.array(self.failed, dtype=np.int8),
        )


def _array_wrapper(rec: Recorder, name: str, fn):
    """Span around a grid kernel; records the node count of its first argument."""
    nid = rec.name_id(name)
    perf = time.perf_counter

    def wrapper(values, *args, **kwargs):
        stack = rec.stack
        idx = rec.open(nid)
        rec.nodes[idx] = getattr(values, "size", 0)
        t0 = perf()
        try:
            return fn(values, *args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            rec.start[idx] = t0
            rec.end[idx] = t1

    return wrapper


def _call_wrapper(rec: Recorder, name_of, fn, nnz_of=None, on_result=None):
    """Span around any other call; a raised exception marks the span failed.

    name_of is the span name, or a function of (args, kwargs) giving it (for
    solve_ergodic, whose name depends on its method argument). nnz_of reads a
    nonzero count from (args, result); on_result keeps extra facts of a span.
    """
    perf = time.perf_counter
    fixed = rec.name_id(name_of) if isinstance(name_of, str) else None

    def wrapper(*args, **kwargs):
        nid = fixed if fixed is not None else rec.name_id(name_of(args, kwargs))
        idx = rec.open(nid)
        t0 = perf()
        try:
            out = fn(*args, **kwargs)
            if nnz_of is not None:
                rec.nnz[idx] = int(getattr(nnz_of(args, out), "nnz", 0))
            if on_result is not None:
                rec.extra[idx] = on_result(out)
            return out
        except BaseException:
            rec.failed[idx] = 1
            raise
        finally:
            t1 = perf()
            rec.stack.pop()
            rec.start[idx] = t0
            rec.end[idx] = t1

    return wrapper


def _restarts(sol) -> dict:
    return {"restarts": restarts(getattr(getattr(sol, "trace", None), "records", None) or [])}


class Tracer:
    """Installs span wrappers on the package's public names and restores them."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self._patched: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "ergodic_hjb" or modname.startswith("ergodic_hjb.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary that exists; a name that is gone is skipped."""
        import ergodic_hjb.analysis as analysis
        import ergodic_hjb.cli as cli
        import ergodic_hjb.config as config
        import ergodic_hjb.problem as problem
        import ergodic_hjb.scheme as scheme
        import ergodic_hjb.solvers as solvers

        rec = self.rec
        done: set[int] = set()

        def wrap(module, attr: str, make) -> None:
            orig = getattr(module, attr, None)
            if inspect.isfunction(orig) and id(orig) not in done:
                done.add(id(orig))
                self._replace_everywhere(orig, make(orig))

        def wrap_method(cls, attr: str, make) -> None:
            orig = getattr(cls, attr, None)
            if inspect.isfunction(orig):
                self._patched.append((cls, attr, orig))
                setattr(cls, attr, make(orig))

        # grid kernels, called hundreds of thousands of times: leanest wrapper
        wrap(scheme, "upwind_state", lambda f: _array_wrapper(rec, "scheme.upwind_state", f))
        wrap(scheme, "laplacian_values", lambda f: _array_wrapper(rec, "scheme.laplacian", f))
        wrap(scheme, "drift_field", lambda f: _array_wrapper(rec, "scheme.drift_field", f))
        op = getattr(scheme, "DiscreteOperator", None)
        wrap_method(op, "residual_values", lambda f: _call_wrapper(rec, "scheme.residual", f))
        wrap_method(
            op, "jacobian",
            lambda f: _call_wrapper(rec, "scheme.jacobian", f, nnz_of=lambda a, out: out),
        )
        wrap_method(
            getattr(problem, "ProblemSpec", None), "f_field",
            lambda f: _call_wrapper(rec, "problem.f_field", f),
        )
        # sparse factor + solve, under the name the solvers module calls
        wrap(
            solvers, "spsolve",
            lambda f: _call_wrapper(rec, "solvers.spsolve", f, nnz_of=lambda a, out: a[0]),
        )

        def solve_name_of(fn):
            sig = inspect.signature(fn)
            default = sig.parameters["method"].default if "method" in sig.parameters else None

            def name_of(args, kwargs):
                try:
                    method = sig.bind(*args, **kwargs).arguments.get("method", default)
                except TypeError:
                    method = default
                return SOLVE_SPANS.get(method, f"solvers.solve_ergodic.{method}")

            return name_of

        wrap(
            solvers, "solve_ergodic",
            lambda f: _call_wrapper(rec, solve_name_of(f), f, on_result=_restarts),
        )
        renamed = {"solve_dirichlet": "solvers.dirichlet", "solve_discounted": "solvers.discounted"}
        for name in getattr(solvers, "__all__", ()):
            span = renamed.get(name, f"solvers.{name}")
            wrap(solvers, name, lambda f, span=span: _call_wrapper(rec, span, f))
        for name in getattr(scheme, "__all__", ()):
            wrap(scheme, name, lambda f, name=name: _call_wrapper(rec, f"scheme.{name}", f))
        # property checks: one span per check function
        for name in getattr(analysis, "__all__", ()):
            short = name[len("check_"):] if name.startswith("check_") else name
            wrap(analysis, name, lambda f, s=short: _call_wrapper(rec, f"analysis.{s}", f))
        # front end and configuration
        wrap(config, "parse_config", lambda f: _call_wrapper(rec, "config.parse", f))
        for name in getattr(cli, "__all__", ()):
            short = name[len("run_"):] if name.startswith("run_") else name
            wrap(cli, name, lambda f, s=short: _call_wrapper(rec, f"cli.{s}", f))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost of one span around a trivial call, in seconds."""
    def noop(values):
        return values

    arr = np.zeros(1)
    best = float("inf")
    for _ in range(5):
        wrapped = _array_wrapper(Recorder(), "calibration", noop)
        t0 = time.perf_counter()
        for _ in range(n):
            noop(arr)
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped(arr)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def layer_metrics(rec: Recorder, passes: int, extras: dict) -> dict[str, float]:
    """Per-layer metrics, as per-pass averages over the traced passes."""
    n = len(rec.start)
    name = np.array(rec.span_name, dtype=np.int64)
    parent = np.array(rec.parent, dtype=np.int64)
    dur = np.array(rec.end) - np.array(rec.start)
    nodes = np.array(rec.nodes, dtype=np.int64)
    nnz = np.array(rec.nnz, dtype=np.int64)
    failed = np.array(rec.failed, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n) if n else dur
    self_t = dur - child

    def ids(*span_names: str) -> np.ndarray:
        wanted = [rec.name_ids[s] for s in span_names if s in rec.name_ids]
        return np.isin(name, wanted) if n else np.zeros(0, dtype=bool)

    def count(span: str) -> float:
        return float(np.sum(ids(span))) / passes

    def self_s(span: str) -> float:
        return float(np.sum(self_t[ids(span)])) / passes

    def total_s(span: str) -> float:
        return float(np.sum(dur[ids(span)])) / passes

    def children_of(span_mask: np.ndarray, child_span: str) -> float:
        """Direct children named child_span of the spans selected by span_mask."""
        parents = np.flatnonzero(span_mask)
        sel = ids(child_span) & np.isin(parent, parents)
        return float(np.sum(sel)) / passes

    def ns_per_node(span: str) -> float:
        sel = ids(span)
        total_nodes = float(np.sum(nodes[sel]))
        return 1e9 * float(np.sum(self_t[sel])) / total_nodes if total_nodes else 0.0

    def mean_nnz(span: str) -> float:
        sel = ids(span)
        return float(np.mean(nnz[sel])) if np.any(sel) else 0.0

    root = ids(ROOT_SPAN)
    traced_wall = float(np.sum(dur[root])) / passes
    covered = float(np.sum(dur[has_parent & np.isin(parent, np.flatnonzero(root))])) / passes
    newton = ids("solvers.newton")
    policy = ids("solvers.policy")
    newton_iters = children_of(newton, "solvers.spsolve")
    restart_total = sum(
        rec.extra.get(int(i), {}).get("restarts", 0) for i in np.flatnonzero(newton)
    )
    dirichlet = ids("solvers.dirichlet")
    d_calls = float(np.sum(dirichlet)) / passes
    d_failed = float(np.sum(failed[dirichlet])) / passes
    kernels = self_s("scheme.upwind_state") + self_s("scheme.laplacian")

    out = {
        "scheme.upwind_state.calls": count("scheme.upwind_state"),
        "scheme.upwind_state.self_s": self_s("scheme.upwind_state"),
        "scheme.upwind_state.ns_per_node": ns_per_node("scheme.upwind_state"),
        "scheme.laplacian.calls": count("scheme.laplacian"),
        "scheme.laplacian.self_s": self_s("scheme.laplacian"),
        "scheme.laplacian.ns_per_node": ns_per_node("scheme.laplacian"),
        "scheme.kernels.share": kernels / traced_wall if traced_wall else 0.0,
        "solvers.march.steps": children_of(ids(*MARCH_PARENTS), "scheme.upwind_state"),
        "solvers.parabolic_march.self_s": self_s("solvers.parabolic_march"),
        "solvers.parabolic_march.steps": children_of(
            ids("solvers.parabolic_march"), "scheme.upwind_state"
        ),
        "solvers.rvi.self_s": self_s("solvers.rvi"),
        "solvers.rvi.steps": children_of(ids("solvers.rvi"), "scheme.upwind_state"),
        "solvers.spsolve.calls": count("solvers.spsolve"),
        "solvers.spsolve.self_s": self_s("solvers.spsolve"),
        "solvers.spsolve.nnz": mean_nnz("solvers.spsolve"),
        "solvers.spsolve.share": (
            self_s("solvers.spsolve") / traced_wall if traced_wall else 0.0
        ),
        "scheme.jacobian.calls": count("scheme.jacobian"),
        "scheme.jacobian.self_s": self_s("scheme.jacobian"),
        "scheme.jacobian.nnz": mean_nnz("scheme.jacobian"),
        "solvers.policy.calls": count("solvers.policy"),
        "solvers.policy.self_s": self_s("solvers.policy"),
        "solvers.policy.iterations": children_of(policy, "solvers.spsolve"),
        "solvers.newton.calls": count("solvers.newton"),
        "solvers.newton.self_s": self_s("solvers.newton"),
        "solvers.newton.iterations": newton_iters,
        "solvers.newton.restarts": restart_total / passes,
        "solvers.newton.residuals_per_iteration": (
            children_of(newton, "scheme.residual") / newton_iters if newton_iters else 0.0
        ),
        "scheme.residual.calls": count("scheme.residual"),
        "scheme.residual.self_s": self_s("scheme.residual"),
        "scheme.drift_field.calls": count("scheme.drift_field"),
        "scheme.drift_field.self_s": self_s("scheme.drift_field"),
        "problem.f_field.calls": count("problem.f_field"),
        "problem.f_field.self_s": self_s("problem.f_field"),
        "solvers.discounted.calls": count("solvers.discounted"),
        "solvers.discounted.self_s": self_s("solvers.discounted"),
        "solvers.dirichlet.calls": d_calls,
        "solvers.dirichlet.failed": d_failed,
        "solvers.dirichlet.self_s": self_s("solvers.dirichlet"),
        "solvers.dirichlet.solved_frac": (d_calls - d_failed) / d_calls if d_calls else 0.0,
    }
    for c in CHECKS:
        out[f"analysis.{c}.s"] = total_s(f"analysis.{c}")
    out["cli.verify.s"] = total_s("cli.verify")
    out["cli.artifact_files"] = float(extras.get("artifact_files", 0.0))
    out["cli.artifact_bytes"] = float(extras.get("artifact_bytes", 0.0))
    out["config.parse_s"] = total_s("config.parse")
    out["trace.wall_s"] = traced_wall
    out["trace.spans"] = float(n) / passes
    out["trace_overhead_frac"] = (
        extras.get("wrapper_cost_s", 0.0) * n / passes / traced_wall if traced_wall else 0.0
    )
    out["trace.unattributed_frac"] = 1.0 - covered / traced_wall if traced_wall else 0.0
    return out
