"""A static guard on the package source: no verdict reads an n x n
adjacency matrix.

Every per-point check reads the pieces E*_i A_j E*_h of its base point, or
the intersection tensor, and ``export --matrices`` writes its entries from
the class table, so ``Scheme.adjacency_matrix`` is named in
``src/wreathalg`` only where it is defined, in ``scheme.py``.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "wreathalg"

NAME = "adjacency_matrix"

ALLOWED = [
    "scheme.py:Scheme: defines it",
]


def _uses(path: Path) -> list[str]:
    """Each use of ``adjacency_matrix`` in the file, as
    ``file:enclosing definition: kind``."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            if node.name == NAME:
                found.append(f"{path.name}:{scope}: defines it")
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        elif (isinstance(node, ast.Attribute) and node.attr == NAME
              or isinstance(node, ast.Name) and node.id == NAME):
            found.append(f"{path.name}:{scope}: reads it")
        elif isinstance(node, ast.alias) and NAME in (node.name, node.asname):
            found.append(f"{path.name}:{scope}: imports it")
        elif isinstance(node, ast.Constant) and node.value == NAME:
            found.append(f"{path.name}:{scope}: names it")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_only_the_definition_names_adjacency_matrix():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    assert sorted(use for path in files for use in _uses(path)) == ALLOWED


def test_the_guard_sees_each_use(tmp_path):
    # the guard's own negative control: each form of use is reported
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .scheme import adjacency_matrix\n"
        "def check(point):\n"
        "    return point.scheme.adjacency_matrix(1) * adjacency_matrix\n"
        "class Point:\n"
        "    def adjacency_matrix(self):\n"
        "        return getattr(self.scheme, 'adjacency_matrix')(0)\n"
    )
    assert _uses(bad) == [
        "bad.py:<module>: imports it",
        "bad.py:check: reads it",
        "bad.py:check: reads it",
        "bad.py:Point: defines it",
        "bad.py:Point.adjacency_matrix: names it",
    ]
