"""Every advertised name resolves: the package's ``__all__`` and each name
that a test or benchmark module imports from ``weyljet``, so a deleted
definition cannot leave a dangling export or import behind."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import weyljet

ROOT = Path(__file__).resolve().parent.parent
IMPORTERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def weyljet_imports():
    for path in IMPORTERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "weyljet":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_advertised_and_imported_names_resolve():
    missing = [f"weyljet.{name}" for name in weyljet.__all__ if not hasattr(weyljet, name)]
    missing += [f"{path}: {module}.{name}" for path, module, name in weyljet_imports()
                if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_import_needs_no_scipy():
    # scipy is a test dependency only: importing the package must not load it
    src = str(Path(weyljet.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import weyljet; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
