"""The public names: every ``__all__`` entry resolves, has a caller outside the tests, and each
is imported from its module alone; every exported exception class is caught outside the tests."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermisect

MODULES = ("bogoliubov", "cli", "detector", "field", "fock", "povm", "spectrum", "verify")


def test_every_listed_name_resolves():
    for short in MODULES:
        module = importlib.import_module(f"fermisect.{short}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], short


def _program_nodes():
    """Every AST node of ``src/fermisect/*.py`` and ``bench/*.py``."""
    package = Path(fermisect.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def test_every_public_name_has_a_caller_outside_the_tests():
    # a reference is a Name, an Attribute's attr or an import alias in src/ or bench/;
    # strings, def and class names and the __all__ entries themselves do not count
    referenced = set()
    for node in _program_nodes():
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    unused = [f"{short}.{name}" for short in MODULES
              for name in importlib.import_module(f"fermisect.{short}").__all__
              if name not in referenced]
    assert unused == []


def test_every_exported_exception_is_caught_outside_the_tests():
    # an exception type that only the tests tell apart is a ValueError and its message;
    # a `raise` does not count, an except clause in src/ or bench/ naming it alone or in a tuple does
    caught = set()
    for node in _program_nodes():
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(getattr(kind, "id", getattr(kind, "attr", None)) for kind in types)
    uncaught = []
    for short in MODULES:
        module = importlib.import_module(f"fermisect.{short}")
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, BaseException) and name not in caught:
                uncaught.append(f"{short}.{name}")
    assert uncaught == []


def test_package_imports_only_listed_names():
    # the root imports listed submodules alone and holds no name but __version__
    tree = ast.parse(Path(fermisect.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [(type(node), node.level, node.module) for node in imports] == [(ast.ImportFrom, 1, None)]
    assert all(alias.name in MODULES and alias.asname is None for alias in imports[0].names)
    held = [name for name, obj in vars(fermisect).items()
            if not name.startswith("__") and not inspect.ismodule(obj)]
    assert held == [] and fermisect.__version__ == "0.1.0"
    with pytest.raises(ImportError):
        from fermisect import occupation_spectrum  # noqa: F401


def test_package_import_loads_the_computation_modules_in_order():
    # bench/spans.py imports the package and then reads every module from sys.modules
    code = ("import sys, fermisect; "
            "print(' '.join(key for key in sys.modules if key.startswith('fermisect')))")
    src = str(Path(fermisect.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == [f"fermisect.{short}" for short in
                           ("_textio", "field", "bogoliubov", "fock", "detector", "povm",
                            "spectrum")] + ["fermisect"]


def test_spectrum_is_the_one_module_that_imports_scipy():
    importers = []
    for path in sorted(Path(fermisect.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module]
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            importers.append(path.stem)
    assert importers == ["spectrum"]


def test_cli_import_loads_no_sparse_or_linalg_scipy():
    code = ("import sys, fermisect.cli; "
            "print(' '.join(key for key in sys.modules if key.startswith('scipy')))")
    src = str(Path(fermisect.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = out.split()
    assert "scipy.special" in loaded
    assert not [key for key in loaded if key.startswith(("scipy.sparse", "scipy.linalg"))]
