"""Show what each CLI command compiles before it runs, and its exit time.

Run it on a source tree as

    PYTHONPATH=<tree>/src python tools/startup.py [--repeat N]

Every command runs once through ``wreathalg.cli.main`` in a fresh
interpreter, which then lists the ``wreathalg`` modules it loaded.  Where no
bytecode is written, each of them is compiled from source on every run, so
for each module the tool prints the time of one ``compile()`` of its source
in this process, the minimum over ``N`` calls (15 by default), and the sum
per command.  It then prints each command's exit time: from the return of
``main`` to the end of the child process as this process sees it, the
median over ``N`` more fresh runs.  The commands are those of the
benchmark's workloads, on the unrelabelled tables, and an ``export``.

Only the standard library is imported here; the package is imported only
by the child interpreters.  Nothing is asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The child: run one command, then list the package modules it loaded, with
# the moment main returned on the system-wide monotonic clock, which the
# parent reads too.
CHILD = """
import json, sys, time
from wreathalg.cli import main
code = main(sys.argv[1:])
returned = time.monotonic()
loaded = {name: module.__file__ for name, module in sys.modules.items()
          if name.split(".")[0] == "wreathalg"}
print(json.dumps({"exit": code, "loaded": loaded, "returned": returned}))
"""


def commands(workdir: Path) -> list[list[str]]:
    table, out = str(workdir / "w444.table"), str(workdir / "report.json")
    return [
        ["export", "--moduli", "4,4,4", "--out", table],
        ["verify", "--moduli", "3,3", "--out", out],
        ["verify", "--moduli", "2,3,4", "--base-points", "0", "--out", out],
        ["oracle", table, "--checks", "dimension", "--base-points", "0", "--out", out],
    ]


def run_child(argv: list[str]) -> tuple[dict, float]:
    """The child's record, and the seconds from the return of ``main`` until
    the child had ended and been reaped."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env=dict(os.environ), check=True, timeout=300)
    ended = time.monotonic()
    child = json.loads(proc.stdout.splitlines()[-1])
    return child, ended - child["returned"]


def compile_ms(path: str, repeat: int) -> float:
    source = Path(path).read_text(encoding="utf-8")
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - started)
    return best * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15,
                        help="compile() calls per module, and runs per exit time")
    args = parser.parse_args(argv)
    costs: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for argv_ in commands(Path(workdir)):
            child, _ = run_child(argv_)
            print(f"{' '.join(argv_).replace(workdir, '<tmp>')} (exit {child['exit']})")
            total = 0.0
            for name, path in sorted(child["loaded"].items()):
                if path not in costs:
                    costs[path] = compile_ms(path, args.repeat)
                total += costs[path]
                print(f"  {name:<26} {costs[path]:6.2f} ms")
            print(f"  {'total':<26} {total:6.2f} ms")
            exit_ms = statistics.median(run_child(argv_)[1] for _ in range(args.repeat)) * 1000
            print(f"  {'exit':<26} {exit_ms:6.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
