"""Every exported name resolves."""

import importlib
import pkgutil

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
