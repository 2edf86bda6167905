"""The tolerance policy, read from the source: a decision on float data
compares against a scale through ``series.negligible`` or
``series.is_singular``, never against a small literal."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weyljet"


def literal_tolerances():
    """``(file, line)`` of every comparison that holds a float literal
    ``x`` with ``0 < |x| < 1e-6``."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, float)
                    and 0 < abs(c.value) < 1e-6 for c in ast.walk(node)):
                yield path.name, node.lineno


def test_no_comparison_against_a_small_literal():
    assert not sorted(literal_tolerances())
