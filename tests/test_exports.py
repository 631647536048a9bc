"""Each module's ``__all__`` holds unique names that all resolve in the
module, so deleting a name cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import craftfaces

MODULES = sorted(m.name for m in pkgutil.iter_modules(craftfaces.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_unique_and_resolve(name):
    module = importlib.import_module(f"craftfaces.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), sorted(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
