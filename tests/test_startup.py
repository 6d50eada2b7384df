"""The modules that ``import wreathalg.cli`` loads beyond a bare interpreter.

Every CLI run imports the package, and on a host that writes no bytecode
every module it loads is compiled again, so the CLI must not load the
standard library's ``dataclasses`` or the modules that import pulls in and
no verdict uses.  Both interpreters start fresh, so modules that ``site``
loads on a given host are in both sets and cancel out.  No timing is read.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _loaded(code: str) -> set[str]:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", f"{code}import sys; print('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(out.stdout.split())


def test_cli_loads_no_dataclasses_chain():
    added = _loaded("import wreathalg.cli; ") - _loaded("")
    assert "wreathalg.cli" in added
    assert sorted(added.intersection(UNUSED)) == []
