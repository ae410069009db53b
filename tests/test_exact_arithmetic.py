"""No module of the package computes in floating point.

Every invariant is an exact integer or rational, so the package's syntax
trees may hold no float literal, no reference to the name `float` and no
use of the `math` functions that return floats.  `math.isqrt`, `math.gcd`
and `math.ceil` stay allowed: on ints and Fractions they are exact.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import torbif

PACKAGE = sorted(Path(torbif.__file__).resolve().parent.glob("*.py"))
FLOAT_MATH = {"sqrt", "pow", "log", "exp", "fsum", "isclose"}


def float_uses(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "name float"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH)
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_gate_sees_each_kind():
    source = "import math\nfrom math import fsum\nx = 0.5\ny = float(1)\nz = math.sqrt(2)\nw = math.isqrt(4)\n"
    assert [what for _, what in float_uses(ast.parse(source))] == [
        "math.fsum",
        "float literal 0.5",
        "name float",
        "math.sqrt",
    ]
