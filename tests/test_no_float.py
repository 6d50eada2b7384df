"""A static guard on the package source: no floating point reaches a verdict.

Every verdict rests on exact arithmetic, so the source under
``src/wreathalg`` may not call ``float``/``complex``, use ``cmath``, call
``to_complex`` or import numpy anywhere.  There is no exemption.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "wreathalg"


def _violations(path: Path) -> list[str]:
    found = []

    def visit(node):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import | ast.ImportFrom):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""]
            for name in names:
                root = name.split(".")[0]
                if root == "numpy":
                    found.append(f"{where}: imports {name}")
                if root == "cmath":
                    found.append(f"{where}: imports cmath")
        if isinstance(node, ast.Name) and node.id == "cmath":
            found.append(f"{where}: uses cmath")
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("float", "complex"):
                found.append(f"{where}: calls {func.id}()")
            if isinstance(func, ast.Attribute) and func.attr == "to_complex":
                found.append(f"{where}: calls to_complex()")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_source_has_no_float_cmath_or_numpy():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    violations = [v for path in files for v in _violations(path)]
    assert violations == []


def test_the_guard_sees_each_violation(tmp_path):
    # the guard's own negative control: each forbidden form is reported
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "from numpy.linalg import det\n"
        "import cmath\n"
        "def f(x):\n"
        "    return float(x) + complex(x) + cmath.pi + x.to_complex()\n"
        "class CycloNum:\n"
        "    def to_complex(self):\n"
        "        return float(1)\n"
    )
    found = _violations(bad)
    assert [v.split(": ", 1)[1] for v in found] == [
        "imports numpy", "imports numpy.linalg", "imports cmath",
        "calls float()", "calls complex()", "uses cmath", "calls to_complex()",
        "calls float()",
    ]
