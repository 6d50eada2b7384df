"""What a CLI run does before its scheme is built.

Every CLI run imports the package, and on a host that writes no bytecode
every module it loads is compiled again, so the CLI must not load the
standard library's ``dataclasses`` or the modules that import pulls in and
no verdict uses, nor any module beyond those its own imports load.  Both
interpreters start fresh, so modules that ``site`` loads on a given host
are in both sets and cancel out.  Building a scheme, from a file or from
moduli, computes none of its parameters: the intersection data and the
transpose map are verdict work.  No timing is read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# The standard-library modules that src/ imports by name.
IMPORTED = {"__future__", "argparse", "collections", "fractions", "functools", "itertools",
            "json", "math", "operator", "os", "struct", "sys", "time"}


def _run(code: str) -> str:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout


def _loaded(code: str) -> set[str]:
    return set(_run(f"{code}import sys; print('\\n'.join(sys.modules))").split())


def test_cli_loads_no_dataclasses_chain():
    added = _loaded("import wreathalg.cli; ") - _loaded("")
    assert "wreathalg.cli" in added
    assert sorted(added.intersection(UNUSED)) == []


def test_cli_loads_nothing_beyond_what_its_imports_load():
    imported = set()
    for path in (SRC / "wreathalg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported == IMPORTED
    stdlib = _loaded(f"import {', '.join(sorted(IMPORTED))}; ")
    added = _loaded("import wreathalg.cli; ") - stdlib
    assert sorted(name for name in added if name.split(".")[0] != "wreathalg") == []


def test_building_a_scheme_leaves_its_parameters_uncomputed(tmp_path):
    # fresh interpreter: the package's caches hold no scheme from another test
    state = _run(
        "from wreathalg import load_scheme, save_scheme, wreath_of_cyclics\n"
        "built = wreath_of_cyclics((4, 4, 4))\n"
        f"save_scheme(built, {str(tmp_path / 'w444.table')!r})\n"
        f"for scheme in (built, load_scheme({str(tmp_path / 'w444.table')!r})):\n"
        "    print(scheme._pnums, scheme._pnum_witness, '_transpose' in vars(scheme))\n"
    )
    assert state.splitlines() == ["None None False"] * 2
