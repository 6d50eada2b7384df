"""A static guard on the package source: no module on a command path uses
anything of ``cyclotomic``.

The unit and idempotent families are their closed forms, certified by reads
of the class table, and ``linalg`` is over Q, so no command forms a
cyclotomic number: none of ``linalg``, ``scheme``, ``terwilliger``,
``structure``, ``decomposition``, ``wreath`` and ``cli`` imports anything
from ``cyclotomic`` or names any of ``zeta``, ``CycloNum`` and
``rational``.  ``cyclotomic`` stays a public module of scalar arithmetic.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "wreathalg"
# every module a command imports
COMMAND_PATH = tuple(SOURCE / f"{name}.py" for name in
                     ("linalg", "scheme", "terwilliger", "structure", "decomposition", "wreath", "cli"))

MODULE = "cyclotomic"

NAMES = {"zeta", "CycloNum", "rational"}


def _uses(path: Path) -> list[str]:
    """Each use of ``cyclotomic`` or of one of ``NAMES`` in the file, as
    ``line N: kind``, in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == MODULE:
            found.append((node.lineno, f"imports from {MODULE}"))
        elif isinstance(node, ast.alias) and MODULE in node.name.split("."):
            found.append((getattr(node, "lineno", 0), f"imports {MODULE}"))
        elif isinstance(node, ast.alias) and node.name in NAMES:
            found.append((getattr(node, "lineno", 0), f"imports {node.name}"))
        elif isinstance(node, ast.Name) and (node.id in NAMES or node.id == MODULE):
            found.append((node.lineno, f"reads {node.id}"))
        elif isinstance(node, ast.Attribute) and (node.attr in NAMES or node.attr == MODULE):
            found.append((node.lineno, f"reads {node.attr}"))
    return [f"line {line}: {kind}" for line, kind in sorted(found)]


def test_structure_uses_nothing_of_cyclotomic():
    for path in COMMAND_PATH:
        assert path.exists()
        assert _uses(path) == [], path.name


def test_the_guard_sees_each_use(tmp_path):
    # the guard's own negative control: each form of use is reported
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .cyclotomic import CycloNum, zeta\n"
        "from . import cyclotomic\n"
        "def member(p):\n"
        "    return zeta(p, 1) * rational(2) + cyclotomic.rational(1)\n"
    )
    assert _uses(bad) == [
        "line 1: imports CycloNum",
        "line 1: imports from cyclotomic",
        "line 1: imports zeta",
        "line 2: imports cyclotomic",
        "line 4: reads cyclotomic",
        "line 4: reads rational",
        "line 4: reads rational",
        "line 4: reads zeta",
    ]
