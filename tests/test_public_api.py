"""Every exported name resolves, and importing the CLI leaves heavy scipy modules out."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ergodic_hjb

MODULES = [ergodic_hjb] + [
    importlib.import_module(f"ergodic_hjb.{info.name}")
    for info in pkgutil.iter_modules(ergodic_hjb.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    """They cost import time on every run and the package uses neither; nor scipy.ndimage."""
    src = str(Path(ergodic_hjb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, ergodic_hjb.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.ndimage') "
        "if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
