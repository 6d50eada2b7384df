"""Count the code lines of ``src/`` and ``tests/``, module by module.

Run it from the root of a checkout as

    python tools/loc.py

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the string that opens a module, class or
function) do not count.  Lines are read with ``tokenize`` and docstrings
found with ``ast``.  It prints each module's count and the total of each
directory, and asserts nothing.

Only the standard library is imported.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src", "tests")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> int:
    for directory in DIRECTORIES:
        total = 0
        for path in sorted((ROOT / directory).rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:7,}  {path.relative_to(ROOT)}")
        print(f"{total:7,}  {directory}/ total")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
