"""Config schema, round-trips, CLI subcommands, exit codes, determinism."""

import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_hjb import analysis, cli, config
from ergodic_hjb.cli import main
from ergodic_hjb.config import (
    ConfigError,
    ExperimentConfig,
    NumericsSettings,
    OutputSettings,
    ProblemSettings,
    RunSettings,
    SweepSettings,
    VerifySettings,
    build_spec,
    config_to_text,
    parse_config,
)
from ergodic_hjb.grid import dump_json
from ergodic_hjb.scheme import DiscreteOperator
from ergodic_hjb.solvers import (
    ConvergenceTrace,
    SolverError,
    TraceRecord,
    eikonal_initial_guess,
    solve_ergodic,
)

from oracles import m5_residual_values

BASE = """
[run]
seed = 0

[problem]
theta = 2.0
dim = 1
rhs = power
alpha = 0.0
coeff = 1.0
shift = 0.0

[numerics]
radius = 2.0
h = 0.1
tol = 1e-08
max_iter = 100
method = newton_augmented
"""


def test_parse_minimal_config():
    cfg = parse_config(BASE)
    assert cfg.mode == "solve"
    assert cfg.problem.theta == 2.0
    assert cfg.numerics.h == 0.1
    assert cfg.sweep is None and cfg.verify is None


def test_unknown_key_is_rejected_by_name():
    bad = BASE.replace("theta = 2.0", "thetta = 2.0")
    with pytest.raises(ConfigError, match="thetta"):
        parse_config(bad)


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError, match="extras"):
        parse_config(BASE + "\n[extras]\nfoo = 1\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(BASE + "\n[output]\ndir = a\ndir = b\n")


def test_invalid_values_are_rejected():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("theta = 2.0", "theta = one"))
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("theta = 2.0", "theta = 0.5"))
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("method = newton_augmented", "method = bogus"))
    with pytest.raises(ConfigError, match="pure_power"):
        parse_config(BASE.replace("rhs = power", "rhs = pure_power"))  # alpha = 0 < 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("theta = 2.0", "theta = 1.0", "exponent theta must exceed 1, got 1.0"),
        ("coeff = 1.0", "coeff = 0.0", "coefficient must be positive, got 0.0"),
        ("alpha = 0.0", "alpha = -1.0", "growth exponent must be >= 0, got -1.0"),
        ("radius = 2.0", "radius = -2.0", "radius must be positive, got -2.0"),
        ("h = 0.1", "h = 2.5", "spacing must lie in (0, radius], got 2.5"),
    ],
)
def test_refused_problem_values_report_the_constructors_message(tmp_path, old, new, message):
    text = BASE.replace(old, new)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"[problem]/[numerics] (rhs = power): {message}"
    assert main(["solve", "--config", write_cfg(tmp_path, text)]) == 1


def test_non_finite_floats_are_rejected(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a config with a non-finite float must not reach a solve")

    monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    verify = BASE + "\n[verify]\nchecks = cross_method\n"
    solves = [BASE.replace("tol = 1e-08", "tol = inf"), BASE.replace("tol = 1e-08", "tol = nan")]
    for text in solves + [verify.replace("tol = 1e-08", "tol = inf")]:
        with pytest.raises(ConfigError, match="not finite"):
            parse_config(text)
    for text in solves:
        assert main(["solve", "--config", write_cfg(tmp_path, text)]) == 1


def test_sweep_requires_section_and_values(tmp_path):
    assert main(["sweep", "--config", write_cfg(tmp_path, BASE)]) == 1
    with pytest.raises(ConfigError, match="values"):
        parse_config(BASE + "\n[sweep]\naxis = radius\nvalues = \n")


def test_verify_rejects_unknown_check():
    with pytest.raises(ConfigError, match="no_such_check"):
        parse_config(BASE + "\n[verify]\nchecks = no_such_check\n")


def test_verify_rejects_a_repeated_check(tmp_path):
    text = VERIFY.replace("checks = shift_equivariance, uniqueness", "checks = uniqueness, uniqueness")
    with pytest.raises(ConfigError, match="'uniqueness' is listed twice"):
        parse_config(text)
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        (BASE[BASE.index("[problem]") : BASE.index("[numerics]")], "", "missing required section [problem]"),
        ("theta = 2.0\n", "", "missing required key 'theta' in [problem]"),
        ("dim = 1\n", "", "missing required key 'dim' in [problem]"),
    ],
)
def test_required_sections_and_keys_are_the_fields_without_a_default(tmp_path, old, new, message):
    text = BASE.replace(old, new, 1)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message
    assert main(["solve", "--config", write_cfg(tmp_path, text)]) == 1


@pytest.mark.parametrize(
    "section, message",
    [
        ("[sweep]\nvalues = 1.0", "missing required key 'axis' in [sweep]"),
        ("[sweep]\naxis = radius", "missing required key 'values' in [sweep]"),
        ("[verify]", "missing required key 'checks' in [verify]"),
        (
            "[sweep]\naxis = radius\nvalues = 1.0\n[verify]\nchecks = uniqueness",
            "a config carries [sweep] or [verify], not both",
        ),
    ],
)
def test_sweep_and_verify_sections_are_checked_without_a_mode(tmp_path, section, message):
    text = f"{BASE}\n{section}\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message
    for command in ("sweep", "verify"):
        assert main([command, "--config", write_cfg(tmp_path, text)]) == 1


def test_the_mode_is_the_section_a_config_carries(tmp_path, capsys):
    assert parse_config(BASE.replace("[run]\nseed = 0\n", "")).run == RunSettings(seed=0)
    assert parse_config(BASE + "\n[sweep]\naxis = radius\nvalues = 1.0\n").mode == "sweep"
    assert parse_config(BASE + "\n[verify]\nchecks = uniqueness\n").mode == "verify"
    with pytest.raises(ConfigError, match="unknown key 'mode' in \\[run\\]"):
        parse_config(BASE.replace("seed = 0", "mode = solve\nseed = 0"))
    shipped = Path(__file__).resolve().parents[1] / "configs" / "solve_quadratic_1d.cfg"
    assert main(["sweep", "--config", str(shipped), "--out", str(tmp_path / "o")]) == 1
    assert "for 'solve'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_round_trip_is_lossless():
    cfg = parse_config(BASE)
    assert parse_config(config_to_text(cfg)) == cfg
    sweep_cfg = ExperimentConfig(
        run=RunSettings(seed=7),
        problem=ProblemSettings(theta=1.5, dim=2, rhs="pure_power", alpha=1.5, coeff=2.0 / 3.0),
        numerics=NumericsSettings(radius=6.0, h=0.05, tol=1e-9, max_iter=42, method="policy_iteration"),
        sweep=SweepSettings(axis="epsilon", values=(0.1, 0.05, 0.025)),
        output=OutputSettings(dir="results"),
    )
    assert parse_config(config_to_text(sweep_cfg)) == sweep_cfg
    verify_cfg = ExperimentConfig(
        run=RunSettings(seed=3),
        problem=ProblemSettings(theta=2.0, dim=1),
        numerics=NumericsSettings(),
        verify=VerifySettings(checks=("uniqueness", "scaling_law")),
    )
    assert parse_config(config_to_text(verify_cfg)) == verify_cfg


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=1.0001, max_value=9.0, allow_nan=False),
    h=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**62),
    method=st.sampled_from(["newton_augmented", "relative_value_iteration", "policy_iteration"]),
)
def test_round_trip_property(theta, h, seed, method):
    cfg = ExperimentConfig(
        run=RunSettings(seed=seed),
        problem=ProblemSettings(theta=theta, dim=1),
        numerics=NumericsSettings(radius=1.0, h=h, method=method),
    )
    assert parse_config(config_to_text(cfg)) == cfg


# -- CLI ------------------------------------------------------------------------------


def write_cfg(tmp_path: Path, text: str) -> str:
    p = tmp_path / "config.cfg"
    p.write_text(text)
    return str(p)


def test_cli_solve_constant_f(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["lambda"] == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(doc["values"], 0.0, atol=1e-10)
    assert (out / "solution.csv").exists()
    assert (out / "trace.jsonl").exists()
    assert (out / "meta.json").exists()


def test_cli_solve_quadratic_rhs(tmp_path):
    text = BASE.replace("alpha = 0.0", "alpha = 2.0").replace("rhs = power", "rhs = pure_power")
    text = text.replace("coeff = 1.0", "coeff = 0.5").replace("radius = 2.0", "radius = 8.0")
    text = text.replace("h = 0.1", "h = 0.02")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["lambda"] == pytest.approx(0.5, abs=0.02)
    # the linear-step counts go to meta.json only; a 1-d factor is too cheap to reuse
    meta = json.loads((out / "meta.json").read_text())
    *records, done = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert (meta["factorizations"], meta["reused_steps"]) == (records[-1]["iteration"], 0)
    assert meta["coarse_levels"] == []  # a 1-d grid is solved on one level
    assert "factorizations" not in done and "coarse_levels" not in done


def test_cli_2d_solve_writes_its_enclosure_and_held_lu_counts(tmp_path):
    # 121 x 121, nested once: solution.json carries the certified enclosure,
    # and meta.json the GMRES iterations on the held LU, per level too
    text = BASE.replace("dim = 1", "dim = 2").replace("radius = 2.0", "radius = 3.0")
    text = text.replace("alpha = 0.0", "alpha = 2.0").replace("rhs = power", "rhs = pure_power")
    text = text.replace("coeff = 1.0", "coeff = 0.5").replace("h = 0.1", "h = 0.05")
    out = tmp_path / "out"
    assert main(["solve", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["lambda_lo"] <= doc["lambda"] <= doc["lambda_hi"]
    assert doc["lambda_hi"] - doc["lambda_lo"] <= 1e-8
    meta = json.loads((out / "meta.json").read_text())
    assert meta["reused_steps"] >= 1 and meta["reused_iterations"] >= meta["reused_steps"]
    (level,) = meta["coarse_levels"]
    assert level["n_per_axis"] == 61 and level["reused_iterations"] >= level["reused_steps"]


def test_cli_unknown_key_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("theta", "thetta"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "thetta" in capsys.readouterr().err


def test_cli_mode_mismatch_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_cli_missing_config_exits_one(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_solver_failure_exits_two(tmp_path):
    text = BASE.replace("max_iter = 100", "max_iter = 4")
    text = text.replace("alpha = 0.0", "alpha = 2.0")
    text = text.replace("method = newton_augmented", "method = relative_value_iteration")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    meta = json.loads((tmp_path / "o" / "meta.json").read_text())
    assert meta["status"] == "solver_failure" and meta["coarse_levels"] == []


def test_cli_rvi_without_max_iter_uses_the_method_budget(tmp_path):
    # relative value iteration needs about 1,100 march steps here, far above
    # the Newton budget of 300 that max_iter used to default to
    text = BASE.replace("max_iter = 100\n", "")
    text = text.replace("alpha = 0.0", "alpha = 2.0")
    text = text.replace("method = newton_augmented", "method = relative_value_iteration")
    parsed = parse_config(text)
    assert parsed.numerics.max_iter is None
    assert "max_iter" not in config_to_text(parsed)
    assert parse_config(config_to_text(parsed)) == parsed
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "solution.json").read_text())
    assert doc["method"] == "relative_value_iteration"


SWEEP = """
[run]
seed = 0

[problem]
theta = 2.0
dim = 1
rhs = pure_power
alpha = 2.0
coeff = 0.5
shift = 0.0

[numerics]
radius = 8.0
h = 0.05
tol = 1e-08

[sweep]
axis = radius
values = 4.0, 6.0, 8.0
"""


def test_cli_radius_sweep_rows_and_monotonicity(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "radius,lambda,residual_sup,status"
    assert len(lines) == 4
    lams = [float(ln.split(",")[1]) for ln in lines[1:]]
    for l1, l2 in zip(lams, lams[1:]):
        # lambda_R rises toward lambda* with R and has settled by R = 4 at this h
        assert abs(l2 - l1) <= 1e-5
    assert all(ln.endswith("ok") for ln in lines[1:])
    assert not (out / "sweep_timing.csv").exists()  # wall times live in meta.json only
    timing = json.loads((out / "meta.json").read_text())["row_wall_s"]
    assert [value for value, _ in timing] == [4.0, 6.0, 8.0]
    assert all(wall >= 0.0 for _, wall in timing)


def test_radius_sweep_values_below_h_are_config_errors(tmp_path):
    # a box narrower than one cell has no grid; refused before any row is solved
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "sweep_radius.cfg").read_text()
    text = shipped.replace("values = 4.0, 5.0, 6.0, 7.0, 8.0", "values = 0.005, 4.0")
    assert "0.005" in text and "h = 0.02" in text
    with pytest.raises(ConfigError, match="radii"):
        parse_config(text)
    out = tmp_path / "o"
    assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    assert not (out / "sweep.csv").exists()


def test_cli_epsilon_sweep(tmp_path):
    text = SWEEP.replace("axis = radius", "axis = epsilon")
    text = text.replace("values = 4.0, 6.0, 8.0", "values = 0.1, 0.05, 0.025")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    lams = [float(ln.split(",")[1]) for ln in lines[1:]]
    # discount estimates approach 1/2 from below as eps shrinks
    assert lams == sorted(lams)
    assert lams[-1] == pytest.approx(0.5, abs=0.02)


def test_epsilon_sweep_ignores_method_and_max_iter(tmp_path):
    # an epsilon row is a discount solve at its own budget, so the numerics
    # keys that pick the ergodic solver change nothing in the shipped sweep
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "sweep_epsilon.cfg").read_text()
    keys = "max_iter = 1\nmethod = policy_iteration\n"
    text = shipped.replace("tol = 1e-08\n", "tol = 1e-08\n" + keys)
    assert keys in text and "max_iter" not in shipped
    csv = []
    for name, cfg_text in (("shipped", shipped), ("keyed", text)):
        out = tmp_path / name
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg_text), "--out", str(out)]) == 0
        csv.append((out / "sweep.csv").read_bytes())
    assert csv[0] == csv[1]


def test_cli_coeff_sweep(tmp_path):
    text = SWEEP.replace("axis = radius", "axis = coeff")
    text = text.replace("values = 4.0, 6.0, 8.0", "values = 0.5, 1.0, 2.0")
    text = text.replace("radius = 8.0", "radius = 6.0").replace("h = 0.05", "h = 0.05")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    lams = [float(ln.split(",")[1]) for ln in lines[1:]]
    # quadratic ansatz: lambda = sqrt(c/2), increasing in c (first-order
    # upwind bias grows with the gradient scale, hence the loose bracket)
    assert lams == sorted(lams)
    assert lams[0] == pytest.approx(0.5, abs=0.02)
    assert lams[-1] == pytest.approx(1.0, abs=0.06)


def test_cli_deterministic_outputs_modulo_metadata(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("solution.json", "solution.csv", "trace.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


VERIFY = """
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
radius = 6.0
h = 0.05
tol = 1e-08

[verify]
checks = shift_equivariance, uniqueness
"""


def test_cli_verify_passes_and_writes_reports(tmp_path):
    cfg = write_cfg(tmp_path, VERIFY)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert {v["name"] for v in verdicts} == {"shift_equivariance", "uniqueness"}
    assert all(v["passed"] for v in verdicts)
    lines = (out / "verdicts.csv").read_text().strip().splitlines()
    assert lines[0].startswith("check,outcome")
    assert len(lines) == 3
    meta = json.loads((out / "meta.json").read_text())
    assert [name for name, _ in meta["check_wall_s"]] == ["shift_equivariance", "uniqueness"]
    assert all(wall >= 0.0 for _, wall in meta["check_wall_s"])
    assert meta["n_checks"] == 2


def test_verify_values_a_check_would_refuse_are_config_errors(tmp_path, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a bad [verify] value must not reach a check")

    monkeypatch.setattr(cli, "_run_one_check", no_check)
    text = VERIFY.replace("checks = shift_equivariance, uniqueness", "checks = cross_method")
    bad = [
        text.replace("rhs = power", "rhs = pure_power").replace("alpha = 2.0", "alpha = 0.5"),
        text.replace("h = 0.05", "h = 3.5"),  # above radius/2, the smallest box verify solves
        text.replace("cross_method", "cross_method, power_supersolution"),  # theta = 2
        text.replace("radius = 6.0", "radius = 1.5")  # gap = radius/2 < 1
        .replace("cross_method", "cross_method, gradient_estimate"),
        text.replace("cross_method", "cross_method, continuity_bound").replace(
            "alpha = 2.0", "alpha = 0.5"
        ),
        text.replace("cross_method", "cross_method, growth_exponent").replace(
            "alpha = 2.0", "alpha = 0.5"
        ),
        # f = (1 + |y|^2) - 1 and f = |y|^2 both vanish at the origin
        text.replace("cross_method", "cross_method, continuity_bound").replace(
            "shift = 0.0", "shift = -1.0"
        ),
        text.replace("cross_method", "cross_method, continuity_bound").replace(
            "rhs = power", "rhs = pure_power"
        ),
    ]
    for bad_text in bad:
        with pytest.raises(ConfigError):
            parse_config(bad_text)
        cfg = write_cfg(tmp_path, bad_text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1, bad_text
    assert not (tmp_path / "o").exists()


def test_verify_configs_at_the_guards_run_without_a_traceback(tmp_path, capsys):
    # h = radius/2, radius = 2 (gap 1) and alpha = 1 are accepted; each check then
    # passes, fails or stops on a SolverError, never on an error of its inputs
    text = VERIFY.replace("theta = 2.0", "theta = 1.5").replace("alpha = 2.0", "alpha = 1.0")
    text = text.replace("radius = 6.0", "radius = 2.0").replace("h = 0.05", "h = 1.0")
    for name in analysis.CHECKS:
        cfg = write_cfg(tmp_path, text.replace("shift_equivariance, uniqueness", name))
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 3) or (code == 2 and err.startswith("solver failure:")), (name, err)


def test_unbracketed_lambda_star_threshold_is_a_failed_verdict(tmp_path, capsys):
    # at h = 0.5 the zero-data Dirichlet problem still solves above lambda_R, so the
    # bracket does not hold and the check fails
    text = VERIFY.replace("theta = 2.0", "theta = 1.5").replace("alpha = 2.0", "alpha = 1.0")
    text = text.replace("radius = 6.0", "radius = 2.0").replace("h = 0.05", "h = 0.5")
    text = text.replace("shift_equivariance, uniqueness", "lambda_star_characterization")
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 3
    assert "lambda_star_characterization" in capsys.readouterr().err
    (verdict,) = json.loads((out / "verdicts.json").read_text())
    assert verdict["measured"]["solvable_above"] == 1
    rows = (out / "plots" / "dirichlet_bracket.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1", "1"]


def test_unsolvable_lower_dirichlet_level_exits_three(tmp_path, monkeypatch, capsys):
    # an unsolvable level below lambda_R contradicts the property: a failed
    # verdict, not a solver failure
    def unsolvable(*args, **kwargs):
        raise SolverError("Dirichlet solve did not converge", ConvergenceTrace())

    monkeypatch.setattr(analysis, "solve_dirichlet", unsolvable)
    text = VERIFY.replace("shift_equivariance, uniqueness", "lambda_star_characterization")
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 3
    assert "lambda_star_characterization" in capsys.readouterr().err
    (verdict,) = json.loads((out / "verdicts.json").read_text())
    assert not verdict["passed"]
    assert verdict["measured"]["solvable_below"] == verdict["measured"]["solvable_above"] == 0
    rows = (out / "plots" / "dirichlet_bracket.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0", "0"]


@pytest.mark.parametrize("coeff", ["0.004", "0.001"])
def test_dirichlet_family_levels_stay_below_a_critical_value_near_min_f(tmp_path, coeff):
    # at coeff 0.004, f = coeff (1 + |y|^2) has lambda_R = 0.048 on this box, so min f = coeff
    # lies above lambda_R - 0.1; the lowest level moves down instead of tripping the margin
    text = VERIFY.replace("coeff = 1.0", f"coeff = {coeff}").replace("radius = 6.0", "radius = 8.0")
    text = text.replace("shift_equivariance, uniqueness", "dirichlet_family")
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    (verdict,) = json.loads((out / "verdicts.json").read_text())
    top = verdict["inputs"]["lambda_star_hint"] - 0.1
    assert verdict["inputs"]["lambdas"] == pytest.approx([top - 0.1, top - 0.05, top])


def test_verify_judges_at_the_library_tolerances(tmp_path):
    # the strictness of each verdict is decided in analysis alone: a library call
    # without a tolerance argument reports the tolerance verify judges at
    checks = "shift_equivariance, scaling_law, lambda_shape, continuity_bound, cross_method, "
    text = VERIFY.replace("radius = 6.0", "radius = 4.0").replace("h = 0.05", "h = 0.1")
    text = text.replace("shift_equivariance, uniqueness", checks + "radius_monotonicity")
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    spec = build_spec(parse_config(text))
    library = [
        *analysis.check_shift_equivariance(spec)[0],
        *analysis.check_scaling_law(spec)[0],
        *analysis.check_lambda_shape(spec)[0],
        *analysis.check_continuity_bound(spec)[0],
        *analysis.check_cross_method(spec)[0],
        *analysis.check_radius_monotonicity(spec)[0],
    ]
    assert [(v["name"], v["tolerance"]) for v in verdicts] == [
        (r.name, r.tolerance) for r in library
    ]


def test_verify_verdicts_are_the_library_calls_with_spec_and_solver_tol(tmp_path):
    # every input of a check is its analysis default, so verify's verdicts are the
    # library calls with the problem and the solver tolerance alone (and the seed)
    text = VERIFY.replace("theta = 2.0", "theta = 1.5").replace("radius = 6.0", "radius = 4.0")
    text = text.replace("h = 0.05", "h = 0.1").replace("seed = 0", "seed = 3")
    text = text.replace("shift_equivariance, uniqueness", ", ".join(analysis.CHECKS))
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) in (0, 3)
    cfg = parse_config(text)
    spec, tol = build_spec(cfg), cfg.numerics.tol
    library = []
    for name in analysis.CHECKS:
        seed = {"seed": cfg.run.seed} if name == "uniqueness" else {}
        library.extend(getattr(analysis, f"check_{name}")(spec, solver_tol=tol, **seed)[0])
    assert (out / "verdicts.json").read_text() == dump_json([asdict(r) for r in library]) + "\n"


def test_pair_checks_judge_the_configured_pure_power_rhs(tmp_path):
    # f = |y|^2 / 2 + 1 has lambda* = 1.5 in closed form; the smooth power form
    # (1 + |y|^2) / 2 + 1 would give 2.03
    text = VERIFY.replace("rhs = power", "rhs = pure_power").replace("coeff = 1.0", "coeff = 0.5")
    text = text.replace("shift = 0.0", "shift = 1.0").replace("radius = 6.0", "radius = 4.0")
    text = text.replace("h = 0.05", "h = 0.1")
    text = text.replace("shift_equivariance, uniqueness", "lambda_shape, continuity_bound")
    cfg = parse_config(text)
    spec = build_spec(cfg)
    lam = solve_ergodic(spec, initial_guess=eikonal_initial_guess(spec), tol=cfg.numerics.tol).lam
    out = tmp_path / "o"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    measured = {v["name"]: v["measured"] for v in json.loads((out / "verdicts.json").read_text())}
    assert measured["monotonicity"]["lambda(f1)"] == lam
    assert measured["continuity_bound"]["lambda_1"] == lam
    assert lam == pytest.approx(1.5, abs=0.05)


def test_cli_verify_solver_failure_exits_two(tmp_path, capsys):
    text = VERIFY.replace("checks = shift_equivariance, uniqueness", "checks = interior_minimum")
    cfg = write_cfg(tmp_path, text.replace("tol = 1e-08", "tol = 1e-15"))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "did not reach tolerance" in capsys.readouterr().err


def test_cli_error_inside_a_check_exits_two(tmp_path, monkeypatch, capsys):
    # the config was accepted, so a ValueError raised by a check is a fault
    # in the solve or the check, not a configuration error
    def broken(*args, **kwargs):
        raise ValueError("inconsistent state inside the check")

    monkeypatch.setattr(analysis, "check_uniqueness", broken)
    cfg = write_cfg(tmp_path, VERIFY.replace("shift_equivariance, uniqueness", "uniqueness"))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "inconsistent state inside the check" in capsys.readouterr().err


SUITE = Path(__file__).resolve().parents[1] / "configs" / "verify_suite.cfg"


def count_ergodic_solves(monkeypatch) -> list:
    """The specs analysis.solve_ergodic is called on from now on, in order."""
    specs = []
    solve = analysis.solve_ergodic

    def counting_solve(spec, *args, **kwargs):
        specs.append(spec)
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_ergodic", counting_solve)
    return specs


def test_a_verify_pass_solves_each_distinct_problem_once(tmp_path, monkeypatch):
    # the suite's checks ask for 27 ergodic solutions: uniqueness's two from random
    # fields, cross_method's policy iteration from the zero field and its march from
    # the shared Newton profile, and 23 requests of 12 distinct (spec, tol), each
    # solved once by Newton from the eikonal guess; library calls outside a pass
    # share nothing
    solved = count_ergodic_solves(monkeypatch)
    counted, starts = analysis.solve_ergodic, []

    def recording_start(spec, *args, **kwargs):
        starts.append(kwargs.get("initial_guess"))
        return counted(spec, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_ergodic", recording_start)
    requests, misses = [], []
    request = analysis._solve

    def counting_request(spec, tol, **changes):
        problem = replace(spec, **changes)
        requests.append(problem)
        before = len(solved)
        sol = request(spec, tol, **changes)
        if len(solved) > before:  # a miss: one solve of the problem, from the eikonal guess
            assert solved[before:] == [problem]
            assert np.array_equal(starts[-1].values, eikonal_initial_guess(problem).values)
            misses.append(problem)
        return sol

    monkeypatch.setattr(analysis, "_solve", counting_request)
    assert main(["verify", "--config", str(SUITE), "--out", str(tmp_path / "o")]) == 0
    assert (len(requests), len(misses), len(solved)) == (23, 12, 16)
    assert len(set(misses)) == len(misses)
    assert analysis._pass_solves.get() is None
    solved.clear()
    spec = build_spec(parse_config(SUITE.read_text()))
    first, _ = analysis.check_interior_minimum(spec)
    again, _ = analysis.check_interior_minimum(spec)
    assert len(solved) == 2
    assert first == again


def test_a_verify_pass_that_raises_drops_its_solves(tmp_path, monkeypatch, capsys):
    # and writes the error's trace to trace.jsonl, and to meta.json the failing
    # check, the wall times of the checks before it and the trace's counts
    solved = count_ergodic_solves(monkeypatch)
    records = [TraceRecord(0, 1.0), TraceRecord(1, 0.5, None, 1.0)]
    trace = ConvergenceTrace(records, "max_iterations", 2, 1, 3)

    def failing(*args, **kwargs):
        raise SolverError("march did not settle", trace)

    monkeypatch.setattr(analysis, "check_uniqueness", failing)
    text = VERIFY.replace("shift_equivariance, uniqueness", "interior_minimum, uniqueness")
    cfg, out = write_cfg(tmp_path, text), tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "march did not settle" in capsys.readouterr().err
    assert len(solved) == 1 and analysis._pass_solves.get() is None
    analysis.check_interior_minimum(build_spec(parse_config(text)))
    assert len(solved) == 2
    assert (out / "trace.jsonl").read_text() == trace.to_jsonl()
    meta = json.loads((out / "meta.json").read_text())
    assert [name for name, _ in meta.pop("check_wall_s")] == ["interior_minimum"]
    assert meta["wall_time_s"] > 0
    for key in ("created_utc", "wall_time_s", "version"):
        meta.pop(key)
    assert meta == {
        "status": "solver_failure",
        "failed_check": "uniqueness",
        "factorizations": 2,
        "reused_steps": 1,
        "reused_iterations": 3,
        "coarse_levels": [],
    }
    assert sorted(p.name for p in out.iterdir()) == ["meta.json", "trace.jsonl"]


def test_shared_solves_change_no_verdict(tmp_path):
    # each check of the suite alone writes the verdicts and plot files it writes
    # in the full pass, floats to the last bit: a memo key that missed a field
    # would hand one check another problem's solution
    text = SUITE.read_text()
    full = tmp_path / "all"
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(full)]) == 0
    verdicts, plots = [], {}
    for name in parse_config(text).verify.checks:
        alone = tmp_path / name
        one = re.sub(r"^checks = .*$", f"checks = {name}", text, flags=re.M)
        assert main(["verify", "--config", write_cfg(tmp_path, one), "--out", str(alone)]) == 0
        verdicts.extend(json.loads((alone / "verdicts.json").read_text()))
        plots.update({p.name: p.read_bytes() for p in (alone / "plots").glob("*.csv")})
    assert json.loads((full / "verdicts.json").read_text()) == verdicts
    assert {p.name: p.read_bytes() for p in (full / "plots").glob("*.csv")} == plots


def test_readme_lists_the_parser_keys_and_check_names():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table, names = text.split("### Configuration schema", 1)[1].split("Check names:", 1)
    pairs, section = set(), None
    for row in table.splitlines():
        cells = row.split("|")[1:3]  # the section and key columns
        if len(cells) < 2 or "`" not in cells[1]:
            continue  # prose, header or separator
        if cells[0].strip():
            section = re.fullmatch(r"`\[(\w+)\]`", cells[0].strip()).group(1)
        pairs |= {(section, key) for key in re.findall(r"`(\w+)`", cells[1])}
    assert pairs == {(s, k) for s in config._SECTIONS for k in config._kinds(s)}
    assert tuple(re.findall(r"`(\w+)`", names.split(".\n", 1)[0])) == analysis.CHECKS


def test_check_table_calls_checks_by_module_global_name(monkeypatch):
    # run-time wrappers replace module attributes; verify looks each check up on
    # analysis at call time, since holding the function object would bypass them
    class Called(Exception):
        pass

    def stub(*args, **kwargs):
        raise Called

    cfg = parse_config(VERIFY)
    for name in analysis.CHECKS:
        monkeypatch.setattr(analysis, f"check_{name}", stub)
        with pytest.raises(Called):
            cli._run_one_check(name, cfg)


# the power-supersolution margin is negative inside the well (annulus [0.375, 0.8]): honest fail
SUPERSOLUTION_FAIL = """
[run]
seed = 0

[problem]
theta = 1.5
dim = 1
rhs = pure_power
alpha = 1.5
coeff = 0.6666666666666666
shift = 1.0

[numerics]
radius = 1.0
h = 0.02
tol = 1e-08

[verify]
checks = power_supersolution
"""


def test_cli_verify_failure_exits_three(tmp_path):
    cfg = write_cfg(tmp_path, SUPERSOLUTION_FAIL)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


SHIPPED_VERIFY = sorted((Path(__file__).resolve().parents[1] / "configs").glob("verify_*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_VERIFY, ids=lambda p: p.stem)
def test_verify_fails_an_operator_that_scales_f(tmp_path, monkeypatch, path):
    # the operator reads 1.02 f where the equation has f: every other verdict
    # compares lambda values of that one operator, whose relations survive, but
    # scaling f scales the shift too, so lambda*(f + 1) - lambda*(f) reads 1.02
    post_init = DiscreteOperator.__post_init__

    def scaled_f(self):
        post_init(self)
        self._f = 1.02 * self._f

    monkeypatch.setattr(DiscreteOperator, "__post_init__", scaled_f)
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 3
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert {v["name"] for v in verdicts if not v["passed"]} == {"shift_equivariance"}


@pytest.mark.parametrize("path", SHIPPED_VERIFY, ids=lambda p: p.stem)
def test_verify_march_settles_at_newtons_profile(tmp_path, path):
    # cross_method starts relative value iteration at the pass's Newton profile,
    # where the march's own rate formula agrees with residual_values to tol/2;
    # meta.json counts the checks run, and lambda_shape writes two reports
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    (cross,) = [v for v in verdicts if v["name"] == "cross_method"]
    assert cross["measured"]["march_iterations"] == 0
    checks = parse_config(path.read_text()).verify.checks
    n_checks = json.loads((out / "meta.json").read_text())["n_checks"]
    assert n_checks == len(checks) == len(verdicts) - 1
    if path.stem == "verify_suite":
        assert n_checks == 12


# mutant M5 on the shipped configs: (exit code, failing checks); its gap of about
# 0.027 to 0.031 crosses CHECK_TOL = 0.03 only at theta 1.5
M5_VERDICTS = {
    "verify_subquadratic": (3, {"cross_method"}),
    "verify_suite": (0, set()),
    "verify_superquadratic": (0, set()),
}


@pytest.mark.parametrize("path", SHIPPED_VERIFY, ids=lambda p: p.stem)
def test_verify_march_sees_a_residual_that_disagrees_with_its_rate(tmp_path, monkeypatch, path):
    # M5 weights the Laplacian 0.52 in residual_values only, so Newton, policy
    # iteration and the discount path solve the mutant while the march, whose rate
    # formula is its own, iterates from Newton's profile to the true operator's
    # fixed point: cross_method reads the gap a march from the zero field reads
    monkeypatch.setattr(DiscreteOperator, "residual_values", m5_residual_values)
    out = tmp_path / "o"
    code = main(["verify", "--config", str(path), "--out", str(out)])
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert (code, {v["name"] for v in verdicts if not v["passed"]}) == M5_VERDICTS[path.stem]
    (cross,) = [v["measured"] for v in verdicts if v["name"] == "cross_method"]
    assert cross["march_iterations"] > 0
    cfg = parse_config(path.read_text())
    tol = cfg.numerics.tol
    from_zero = solve_ergodic(build_spec(cfg), method="relative_value_iteration", tol=tol).lam
    lams = [from_zero] + [
        cross[k] for k in ("newton_augmented", "policy_iteration", "discounted_extrapolation")
    ]
    assert abs(max(lams) - min(lams) - cross["max_pairwise_gap"]) <= 10.0 * tol


def test_cli_verify_emits_plot_data(tmp_path):
    text = VERIFY.replace(
        "checks = shift_equivariance, uniqueness", "checks = radius_monotonicity"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    plot = (out / "plots" / "lambda_vs_radius.csv").read_text().strip().splitlines()
    assert plot[0] == "radius,lambda"
    assert len(plot) == 4


# verify on 24 correct 1-d problems off its calibration point (theta 2, f = 1 + |y|^2,
# R 8): three exponents, four right-hand sides (rhs, alpha, coeff, shift) and two boxes,
# h 0.02, with power_supersolution added at theta 1.5
SPECIFICITY_RHS = {
    "alpha2": ("power", 2.0, 1.0, 0.0),
    "alpha1": ("power", 1.0, 1.0, 1.0),
    "alpha3": ("power", 3.0, 0.5, 1.0),
    "quartic": ("pure_power", 4.0, 1.0, 1.0),
}


@pytest.mark.parametrize("rhs", list(SPECIFICITY_RHS))
def test_continuity_bounds_default_pair_never_compares_f_with_itself(monkeypatch, rhs):
    # the default f2 is f1 + SHIFT_C on every right-hand side of the matrix, so its
    # lambda gap is SHIFT_C, and a pass serves it from shift_equivariance's solve
    form, alpha, coeff, shift = SPECIFICITY_RHS[rhs]
    cfg = parse_config(SUITE.read_text())
    problem = replace(cfg.problem, rhs=form, alpha=alpha, coeff=coeff, shift=shift)
    spec = build_spec(replace(cfg, problem=problem, numerics=replace(cfg.numerics, radius=4.0)))
    solved = count_ergodic_solves(monkeypatch)
    with analysis._verify_pass():
        analysis.check_shift_equivariance(spec)
        (rep,), _ = analysis.check_continuity_bound(spec)
    assert len(solved) == 2
    assert rep.measured["rhs_gap"] == pytest.approx(analysis.SHIFT_C, abs=1e-12)
    assert rep.measured["lambda_gap"] == pytest.approx(analysis.SHIFT_C, abs=1e-6)
    assert rep.passed and rep.predicted["bound"] > analysis.SHIFT_C


# (theta, rhs, radius) -> (exit code, failing checks) of the configs that do not exit 0,
# pinned as they stand; exit 2 is growth_exponent's R 16 Newton solve stopping at
# max_iterations just above its tolerance, below the rounding floor of quartic f
VERIFY_REJECTS_CORRECT = {
    (1.5, "alpha2", 4.0): (3, {"radius_monotonicity"}),
    (1.5, "alpha1", 4.0): (3, {"radius_monotonicity"}),
    (1.5, "alpha3", 4.0): (3, {"radius_monotonicity"}),
    (2.0, "alpha1", 4.0): (3, {"radius_monotonicity"}),
    (3.0, "alpha1", 4.0): (3, {"radius_monotonicity"}),
    (1.5, "alpha3", 8.0): (3, {"gradient_estimate"}),
    (2.0, "quartic", 4.0): (3, {"gradient_estimate"}),
    (2.0, "quartic", 8.0): (3, {"gradient_estimate"}),
    (1.5, "quartic", 4.0): (2, set()),
    (1.5, "quartic", 8.0): (2, set()),
    (3.0, "quartic", 4.0): (2, set()),
    (3.0, "quartic", 8.0): (2, set()),
}


@pytest.mark.parametrize("radius", [4.0, 8.0])
@pytest.mark.parametrize("rhs", list(SPECIFICITY_RHS))
@pytest.mark.parametrize("theta", [1.5, 2.0, 3.0])
def test_verify_specificity_matrix_is_pinned(tmp_path, capsys, theta, rhs, radius):
    form, alpha, coeff, shift = SPECIFICITY_RHS[rhs]
    shipped = Path(__file__).resolve().parents[1] / "configs" / "verify_suite.cfg"
    cfg = parse_config(shipped.read_text())
    checks = cfg.verify.checks + (("power_supersolution",) if theta < 2 else ())
    cfg = replace(
        cfg,
        problem=replace(
            cfg.problem, theta=theta, rhs=form, alpha=alpha, coeff=coeff, shift=shift
        ),
        numerics=replace(cfg.numerics, radius=radius),
        verify=replace(cfg.verify, checks=checks),
    )
    path, out = write_cfg(tmp_path, config_to_text(cfg)), tmp_path / "out"
    code = main(["verify", "--config", path, "--out", str(out)])
    want = VERIFY_REJECTS_CORRECT.get((theta, rhs, radius), (0, set()))
    failed = set()
    if code == 3:
        verdicts = json.loads((out / "verdicts.json").read_text())
        failed = {v["name"] for v in verdicts if not v["passed"]}
    assert (code, failed) == want
    if code == 2:
        assert "did not reach tolerance" in capsys.readouterr().err
