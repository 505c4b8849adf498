"""Every name a module exports in ``__all__`` exists, once, the package's
names are documented in the README, and the CLI's import graph stays
small."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import ruleval

MODULES = ["ruleval"] + [
    f"ruleval.{info.name}" for info in pkgutil.iter_modules(ruleval.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(
        {e for e in exported if exported.count(e) > 1}
    )
    missing = [e for e in exported if not hasattr(module, e)]
    assert not missing, missing


def test_every_package_name_is_documented_in_the_readme():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    undocumented = [name for name in ruleval.__all__ if f"`{name}`" not in text]
    assert not undocumented, undocumented


def test_cli_import_loads_neither_scipy_nor_a_thread_pool():
    # Every CLI call pays this import: SciPy alone would double it, and the
    # thread pool (with logging and queue) serves only parallel runs.
    code = (
        "import sys, ruleval.cli; "
        "print(' '.join(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    src = os.path.dirname(os.path.dirname(ruleval.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
