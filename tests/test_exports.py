"""The public names: every ``__all__`` entry resolves, and the package imports only those."""

import ast
import importlib
from pathlib import Path

import fermisect

MODULES = ("bogoliubov", "cli", "detector", "field", "fock", "povm", "spectrum", "verify")


def test_every_listed_name_resolves():
    for short in MODULES:
        module = importlib.import_module(f"fermisect.{short}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], short


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(fermisect.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES
        listed = importlib.import_module(f"fermisect.{node.module}").__all__
        unlisted = [alias.name for alias in node.names if alias.name not in listed]
        assert unlisted == [], node.module
        assert all(alias.asname is None for alias in node.names)
