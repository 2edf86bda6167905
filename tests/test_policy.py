"""Policies read from the source.

- Tolerance: a decision on float data compares against a scale through
  ``series.negligible`` or ``series.is_singular``, never against a small
  literal, and no ``negligible`` scale is stretched by a literal factor.
- Exactness: ``maslov.py``, whose docstring says that no tolerance enters
  any statement there, imports no numpy, calls no ``float`` and holds no
  float literal.
- Errors: invalid input raises a typed error, ``SeriesError``,
  ``MaslovError`` or a subclass of either defined in the package.
- Exponent format: only ``series.py`` reads exponent tuples and the packed
  keys (``_packed``); every other module selects and measures terms
  through ``filter_degree`` and ``degrees``.
- One filtration: only ``series.py`` reads a context's ``weights``; every
  other module tells ``h`` from the jet variables by its name.
- One matrix reader: only ``series.py`` calls ``np.asarray``; every other
  module reads a float matrix through the reader there.
- One number rule: no module tests for a number with an ``isinstance``
  tuple that holds ``float`` or ``complex``; the number rule of
  ``series.py`` asks ``numbers.Number``.
- One scalar: no module reads ``.exponent`` or ``.exact``; a scalar is a
  power of ``i`` times a Laurent series in ``h``, and the class constant
  ``OscillatoryScalar.exponent`` (always 0) is left for the benchmark's
  checker alone.
- Private names: a module imports an underscore name from another module
  of the package only out of ``series.py``, the kernel whose private
  readers (``_matrix``, ``_json_field``) the others share.
- Admission contract: every operation the ``series`` docstring names in
  it exists.
- No dead code: every public function, method and class of the package is
  referenced outside its own definition, and every private one (one
  leading underscore, not a dunder) is referenced so in ``src`` itself.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from weyljet import series

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weyljet"


def modules():
    """``(file name, syntax tree)`` of every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def literal_tolerances():
    """``(file, line)`` of every comparison that holds a float literal
    ``x`` with ``0 < |x| < 1e-6``."""
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, float)
                    and 0 < abs(c.value) < 1e-6 for c in ast.walk(node)):
                yield name, node.lineno


def literal_scales(tree):
    """Line of every ``negligible`` call whose ``scale`` argument multiplies
    or divides by a numeric literal, such as ``negligible(r, 1e3 * s)``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and "negligible" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))):
            continue
        scales = node.args[1:2] + [k.value for k in node.keywords if k.arg == "scale"]
        if any(isinstance(b, ast.BinOp) and isinstance(b.op, (ast.Mult, ast.Div))
               and any(isinstance(o, ast.Constant) and type(o.value) in (int, float)
                       for o in (b.left, b.right))
               for s in scales for b in ast.walk(s)):
            yield node.lineno


def inexact_uses(tree):
    """``(kind, line)`` of every numpy import, ``float`` call and float
    literal in ``tree``."""
    for node in ast.walk(tree):
        imported = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                    [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(m.partition(".")[0] == "numpy" for m in imported):
            yield "numpy", node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield "float", node.lineno
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield "literal", node.lineno


def test_maslov_is_exact():
    assert [[kind for kind, _ in inexact_uses(ast.parse(code))] for code in (
        "import numpy as np", "from numpy.linalg import det", "y = float(x)",
        "x < 1e-9", "Fraction(1, 2) + len(x)")] == [
        ["numpy"], ["numpy"], ["float"], ["literal"], []]
    tree = dict(modules())["maslov.py"]
    assert not sorted(inexact_uses(tree))


def typed_errors() -> set[str]:
    """``SeriesError``, ``MaslovError`` and every class of the package
    derived from them, directly or through another such class."""
    classes = [node for _, tree in modules() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    typed = {"SeriesError", "MaslovError"}
    while True:
        derived = {c.name for c in classes
                   if any(isinstance(b, ast.Name) and b.id in typed for b in c.bases)}
        if derived <= typed:
            return typed
        typed |= derived


def untyped_raises():
    """``(file, line)`` of every ``raise`` that is neither a bare re-raise
    nor names a typed error."""
    typed = typed_errors()
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in typed):
                    yield name, node.lineno


EXPONENT_ACCESS = {"terms", "from_terms", "weighted_degree", "_packed"}


def exponent_reads():
    """``(file, line)`` of every ``.terms`` or ``._packed`` read and every
    ``from_terms`` or ``weighted_degree`` call outside ``series.py``."""
    for name, tree in modules():
        if name != "series.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in EXPONENT_ACCESS:
                    yield name, node.lineno


def test_no_comparison_against_a_small_literal():
    assert not sorted(literal_tolerances())


def test_no_negligible_scale_is_scaled_by_a_literal():
    assert [list(literal_scales(ast.parse(code))) for code in (
        "negligible(r, 1e3 * s)", "series.negligible(r, scale=s / 2)",
        "negligible(r, s)", "negligible(r, s * t)")] == [[1], [1], [], []]
    assert not sorted((name, line) for name, tree in modules()
                      for line in literal_scales(tree))


def test_every_raise_names_a_typed_error():
    assert {"DegenerateHessianError", "NonTerminatingAdError",
            "UndefinedWeilActionError"} <= typed_errors()
    assert not sorted(untyped_raises())


def test_exponent_tuples_are_read_in_series_only():
    assert not sorted(exponent_reads())


def weight_reads():
    """``(file, line)`` of every ``.weights`` read outside ``series.py``."""
    for name, tree in modules():
        if name != "series.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr == "weights":
                    yield name, node.lineno


def test_weights_are_read_in_series_only():
    assert not sorted(weight_reads())


def asarray_calls():
    """``(file, line)`` of every ``asarray`` call outside ``series.py``."""
    for name, tree in modules():
        if name != "series.py":
            for line in asarray_lines(tree):
                yield name, line


def asarray_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "asarray" in (getattr(node.func, "id", None),
                                                        getattr(node.func, "attr", None)):
            yield node.lineno


def test_matrices_are_read_in_series_only():
    assert [list(asarray_lines(ast.parse(code))) for code in (
        "m = np.asarray(x, dtype=complex)", "m = asarray(x)", "m = np.array(x)")] == [
        [1], [1], []]
    assert not sorted(asarray_calls())


def float_type_tests(tree):
    """Line of every ``isinstance`` call whose tuple of types holds
    ``float`` or ``complex``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)
                and any(getattr(t, "id", None) in ("float", "complex")
                        for t in node.args[1].elts)):
            yield node.lineno


def test_numbers_are_told_by_the_number_rule_only():
    assert [list(float_type_tests(ast.parse(code))) for code in (
        "isinstance(k, (int, float, complex, Fraction))", "isinstance(k, (complex,))",
        "isinstance(k, complex)", "isinstance(k, (int, Fraction))",
        "isinstance(k, Number)")] == [[1], [1], [], [], []]
    assert not sorted((name, line) for name, tree in modules()
                      for line in float_type_tests(tree))


def phase_reads(tree):
    """Line of every ``.exponent`` or ``.exact`` read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("exponent", "exact"):
            yield node.lineno


def test_no_module_reads_a_phase_exponent():
    assert [list(phase_reads(ast.parse(code))) for code in (
        "a = s.exponent", "if s.exact: pass", "exponent = 0", "s.i_power")] == [
        [1], [1], [], []]
    assert not sorted((name, line) for name, tree in modules() for line in phase_reads(tree))


def private_imports(tree):
    """Line of every import of an underscore name from a module of the
    package other than ``series``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "weyljet"):
            source = (node.module or "").rpartition(".")[2]
            if source != "series" and any(a.name.startswith("_") for a in node.names):
                yield node.lineno


def test_private_names_cross_modules_only_out_of_series():
    assert [list(private_imports(ast.parse(code))) for code in (
        "from .stationary import DegenerateHessianError, _wick_pairs",
        "from weyljet.weil import _letter", "from . import _private",
        "from .series import _matrix", "from weyljet.series import _json_field",
        "from .weil import act_word", "from numpy.linalg import _umath_linalg",
        "from __future__ import annotations")] == [[1], [1], [1], [], [], [], [], []]
    assert not sorted((name, line) for name, tree in modules()
                      for line in private_imports(tree))


def contract_names() -> list[str]:
    """The names in double backquotes of the "Admission contract" paragraph
    of the ``series`` docstring, operator symbols skipped; a call such as
    ``TruncatedSeries(ctx, terms)`` names its callee."""
    paragraph = next(p for p in series.__doc__.split("\n\n")
                     if p.startswith("Admission contract"))
    quoted = re.findall(r"``(.+?)``", paragraph, re.DOTALL)
    return [m.group() for m in map(re.compile(r"[A-Za-z_]\w*").match, quoted) if m]


def test_admission_contract_names_resolve():
    names = contract_names()
    assert {"TruncatedSeries", "from_terms", "contract_product", "compose"} <= set(names)
    owners = (series, series.TruncatedSeries, series.SeriesContext)
    assert [n for n in names if not any(hasattr(o, n) for o in owners)] == []


def references(tree) -> Counter:
    """How often each name is read as a name, an attribute or an import."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
    return found


def is_private(name: str) -> bool:
    """One leading underscore, not two: no dunder and no mangled name."""
    return name.startswith("_") and not name.startswith("__")


def definitions(keep):
    """``(file, qualified name, node)`` of every module-level function and
    class of the package and every method of its classes whose name
    ``keep`` accepts."""
    for name, tree in modules():
        for node in tree.body:
            defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [(node.name, node)] + [(f"{node.name}.{f.name}", f)
                                              for f in node.body
                                              if isinstance(f, ast.FunctionDef)]
            for qualified, d in defs:
                if keep(d.name):
                    yield name, qualified, d


def public_definitions():
    return definitions(lambda name: not name.startswith("_"))


def unreferenced_definitions(defs, tops=("src", "tests", "perfbench")):
    """``(file, qualified name)`` of every definition of ``defs`` whose name
    is read nowhere in ``tops`` but inside itself.

    Names are matched, not resolved: a name that several classes or
    modules share counts as used when any of them is used."""
    everywhere = Counter()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            everywhere += references(ast.parse(path.read_text(), str(path)))
    for name, qualified, node in defs:
        if everywhere[node.name] <= references(node)[node.name]:
            yield name, qualified


def test_every_public_definition_is_used():
    assert ("weyl.py", "KGroupElement.multiplier") in {
        (f, q) for f, q, _ in public_definitions()}
    assert not sorted(unreferenced_definitions(public_definitions()))


def test_every_public_definition_is_read_by_a_test_or_the_benchmark():
    # a public definition that src alone reads has no direct check
    assert not sorted(unreferenced_definitions(public_definitions(), ("tests", "perfbench")))


def test_every_private_definition_is_used_in_src():
    # a private helper is the package's own: a test reading it keeps no
    # helper alive that the package has stopped calling
    private = list(definitions(is_private))
    assert {("series.py", "_form_pairs"), ("series.py", "SeriesContext._pack"),
            ("weil.py", "GaussianJet._with_parts")} <= {(f, q) for f, q, _ in private}
    assert [is_private(n) for n in ("_letter", "__init__", "__mangled", "act_word")] == [
        True, False, False, False]
    assert not sorted(unreferenced_definitions(private, ("src",)))
