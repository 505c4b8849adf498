"""Every name a module exports in ``__all__`` exists, once."""

import importlib
import pkgutil

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
