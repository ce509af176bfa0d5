"""Smoke runs of the experiment scripts on tiny instances."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

from test_config_cli import SUPERSOLUTION_FAIL

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, argv: list[str], monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    code = runpy.run_path(str(SCRIPTS / name))["main"]()
    return code or 0


def test_closed_form_suite_prints_its_table(monkeypatch, capsys):
    assert run_script("run_closed_form_suite.py", ["--h1", "0.1", "--h2", "0.5"], monkeypatch) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split()[:4] == ["theta", "m", "lambda", "exact"]
    assert len(rows) == 6  # theta in (1.5, 2, 3) times m in (1, 2)


def test_output_digest_is_stable_across_runs(monkeypatch, capsys):
    cfg = str(SCRIPTS.parent / "configs" / "solve_quadratic_1d.cfg")
    runs = []
    for _ in range(2):
        assert run_script("output_digest.py", [cfg], monkeypatch) == 0
        runs.append(capsys.readouterr().out.strip().splitlines())
    assert runs[0] == runs[1]
    assert [line.split("  ")[1] for line in runs[0]] == [
        "solve_quadratic_1d/solution.csv",
        "solve_quadratic_1d/solution.json",
        "solve_quadratic_1d/trace.jsonl",
    ]
    assert all(len(line.split("  ")[0]) == 64 for line in runs[0])


def test_output_digest_runs_from_a_checkout_without_an_install(tmp_path):
    """No PYTHONPATH and a foreign cwd: the script imports the checkout's src/."""
    cfg = SCRIPTS.parent / "configs" / "solve_quadratic_1d.cfg"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py"), str(cfg)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert [line.split("  ")[1] for line in run.stdout.splitlines()] == [
        "solve_quadratic_1d/solution.csv",
        "solve_quadratic_1d/solution.json",
        "solve_quadratic_1d/trace.jsonl",
    ]


def test_output_digest_exits_nonzero_when_a_run_does(tmp_path, monkeypatch, capsys):
    # verify exits 3 on this config's failed verdict; every file it wrote is still digested
    cfg = tmp_path / "honest_fail.cfg"
    cfg.write_text(SUPERSOLUTION_FAIL)
    assert run_script("output_digest.py", [str(cfg)], monkeypatch) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split("  ")[1] for line in lines] == [
        "honest_fail/verdicts.csv",
        "honest_fail/verdicts.json",
    ]
