"""No floating point anywhere in the package: every module of src/ctrz
is read with ast and may hold no float or complex literal, call no
float() or complex(), and import from math only gcd, isqrt and lcm."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ctrz").glob("*.py"))
MATH_ALLOWED = {"gcd", "isqrt", "lcm"}


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append(f"{where}: call to {node.func.id}()")
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            extra = {a.name for a in node.names} - (
                MATH_ALLOWED if node.module == "math" else set())
            if extra:
                found.append(f"{where}: from {node.module} import {sorted(extra)}")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names
                      if a.name in ("math", "cmath")]
    return found


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"exact.py", "chartab.py", "cli.py"}


def test_no_float_complex_or_inexact_math():
    bad = {p.name: inexact_nodes(ast.parse(p.read_text(encoding="utf-8")))
           for p in SOURCES}
    assert {k: v for k, v in bad.items() if v} == {}


def test_checker_flags_each_kind():
    src = ("x = 1.5\ny = 2j\nz = float('1')\nw = complex(1)\n"
           "from math import sqrt, gcd\nimport math\n")
    assert len(inexact_nodes(ast.parse(src))) == 6
    assert inexact_nodes(ast.parse("from math import gcd, isqrt, lcm\n")) == []
