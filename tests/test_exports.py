"""The public names: every ``__all__`` entry resolves, has a caller outside the tests, and each
is imported from its module alone; every public member of an exported class has a caller outside
the tests; every exported exception class is caught outside the tests.  The imports: no module
imports scipy, and no request loads a numpy module the package import did not."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
import types
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


def _public_members(cls) -> list[str]:
    """The dataclass fields and the methods and properties that ``cls`` itself defines."""
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    members = [name for name, attr in vars(cls).items()
               if isinstance(attr, (types.FunctionType, classmethod, staticmethod, property))]
    return [name for name in dict.fromkeys(fields + members) if not name.startswith("_")]


def test_every_public_member_of_an_exported_class_has_a_caller_outside_the_tests():
    # a reference is an Attribute's attr in src/ or bench/, as in `cfg.mass` or `self.dimension`;
    # a bare Name does not count, since a local variable may share a member's name
    read = {node.attr for node in _program_nodes() if isinstance(node, ast.Attribute)}
    members = {}
    for short in MODULES:
        module = importlib.import_module(f"fermisect.{short}")
        for name in module.__all__:
            if isinstance(getattr(module, name), type):
                members[f"{short}.{name}"] = _public_members(getattr(module, name))
    assert len([qual for qual, names in members.items() if names]) >= 9
    unused = [f"{qual}.{name}" for qual, names in members.items() for name in names
              if name not in read]
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


def _run_python(code: str, *args: str) -> str:
    src = str(Path(fermisect.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


def test_package_import_loads_the_computation_modules_in_order():
    # bench/spans.py imports the package and then reads every module from sys.modules
    out = _run_python("import sys, fermisect; "
                      "print(' '.join(key for key in sys.modules if key.startswith('fermisect')))")
    assert out.split() == [f"fermisect.{short}" for short in
                           ("_textio", "field", "bogoliubov", "fock", "detector", "povm",
                            "spectrum")] + ["fermisect"]


def test_no_module_imports_scipy():
    importers = []
    for path in sorted(Path(fermisect.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module]
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            importers.append(path.stem)
    assert importers == []


def test_cli_import_loads_no_scipy():
    loaded = _run_python("import sys, fermisect.cli; "
                         "print(' '.join(key for key in sys.modules if key.startswith('scipy')))")
    assert loaded.split() == []


def test_requests_load_no_numpy_or_scipy_module_after_the_cli_import(tmp_path):
    # a module that a request imports late is faulted in during the request, so a bench pass
    # measured from after the package import counts its pages as pass memory
    requests = [
        "spectrum --mu-l 1 --k-max 4",
        "spectrum --mu-l 1 --k-max 4 --truncation 9 --format json",
        "correlation --mu-l 1 --k-max 4",
        "correlation --mu-l 1 --k-max 4 --truncation 9 --format json",
        f"bogoliubov --mu-l 1 --truncation 4 --out {tmp_path / 'pair.csv'}",
        "verify",
        "joint-correlation --grid 0:1:3",
        "detector --grid 0:1:3 --format json",
        "povm --entangled 0.25",
    ]
    code = textwrap.dedent("""
        import contextlib, io, sys
        import fermisect.cli as cli
        before = set(sys.modules)
        for argv in sys.argv[1:]:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv.split())
            late = sorted(key for key in set(sys.modules) - before
                          if key.startswith(("numpy.", "scipy")))
            before.update(late)
            print(argv.split()[0], status, *late)
    """)
    out = _run_python(code, *requests)
    assert out.splitlines() == [f"{argv.split()[0]} {2 if argv == 'verify' else 0}"
                                for argv in requests]
