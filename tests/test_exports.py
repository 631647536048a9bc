"""Each module's ``__all__`` holds unique names that all resolve in the
module, so deleting a name cannot leave a stale export behind, and the CLI
reaches the package through public names alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import craftfaces

MODULES = sorted(m.name for m in pkgutil.iter_modules(craftfaces.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_unique_and_resolve(name):
    module = importlib.import_module(f"craftfaces.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), sorted(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_cli_imports_no_private_name():
    """The CLI parses arguments and dispatches: every name it imports from
    the package is public."""
    tree = ast.parse(Path(importlib.import_module("craftfaces.cli").__file__).read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
