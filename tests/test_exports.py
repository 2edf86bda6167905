"""Every advertised name resolves: the package's ``__all__`` and each name
that a test or benchmark module imports from ``weyljet``, so a deleted
definition cannot leave a dangling export or import behind."""

import ast
import importlib
import importlib.util
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


def importable(module, name):
    """``from module import name`` succeeds: ``name`` is an attribute of the
    module, or a submodule of the package, imported or not."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (hasattr(mod, "__path__")
                                  and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_advertised_and_imported_names_resolve():
    # a submodule is an attribute of its package only once imported, so the
    # check must not depend on which test files were collected before it
    missing = [f"weyljet.{name}" for name in weyljet.__all__ if not hasattr(weyljet, name)]
    missing += [f"{path}: {module}.{name}" for path, module, name in weyljet_imports()
                if not importable(module, name)]
    assert not missing


def test_weyl_reexports_the_power_sum_error():
    # the error is defined in series.py; tests and callers still import it from weyl
    series, weyl = (importlib.import_module(f"weyljet.{m}") for m in ("series", "weyl"))
    assert weyl.NonTerminatingAdError is series.NonTerminatingAdError


def test_import_needs_no_scipy():
    # scipy is a test dependency only: importing the package must not load it
    src = str(Path(weyljet.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import weyljet; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def traced_spans():
    """The ``(module, attribute path)`` pairs of ``SPANS`` in the benchmark's
    tracer, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS"
                                                for t in node.targets):
            return [(module, path) for _, module, path in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def test_traced_functions_resolve():
    # a deleted or renamed function would drop out of a traced run silently
    missing = []
    for module, path in traced_spans():
        obj = importlib.import_module(module)
        for name in path.split("."):
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(f"{module}.{path}")
    assert not missing
