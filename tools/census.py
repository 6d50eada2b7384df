"""Run the default ``verify`` on every moduli tuple of order at most N, one
process at a time, and summarise the run.

Run it on a source tree as

    PYTHONPATH=<tree>/src python tools/census.py [--max-order N]

Each tuple gets one fresh ``python -m wreathalg verify --moduli ...``, with
``--max-order`` only where the order passes the default cap of 64, and the
tool records, one JSON line per tuple: the exit code, the report's
``dim_T`` and ``dim_formula`` and whether they agree, the wall time from
spawn to reap, and the child's peak resident set size (``ru_maxrss`` of
the reaped process, in MB).  It then prints the totals and the five
slowest tuples.  The processes run one after another, never side by side.

Only the standard library is imported; the package is run only by the
child processes.  Nothing is asserted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_CAP = 64


def moduli_up_to(order: int, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Every tuple of cyclic orders, each at least 2, with product at most ``order``."""
    tuples = []
    for p in range(2, order + 1):
        tuples.append(prefix + (p,))
        tuples += moduli_up_to(order // p, prefix + (p,))
    return tuples


def run_one(moduli: tuple[int, ...], out: Path) -> dict:
    """One default ``verify`` in a fresh process, and what it left."""
    order = math.prod(moduli)
    argv = [sys.executable, "-m", "wreathalg", "verify", "--moduli", ",".join(map(str, moduli)),
            "--out", str(out)]
    if order > DEFAULT_CAP:
        argv += ["--max-order", str(order)]
    out.unlink(missing_ok=True)
    started = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(out.read_text()) if out.exists() else {}
    dim, formula = report.get("dim_T"), report.get("dim_formula")
    return {"moduli": list(moduli), "exit": child.returncode, "dim_T": dim,
            "dim_formula": formula, "formula_agrees": dim is not None and dim == formula,
            "wall_s": round(wall, 4), "maxrss_mb": round(usage.ru_maxrss / 1024, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=DEFAULT_CAP,
                        help="the largest order of a tuple (default 64)")
    args = parser.parse_args(argv)
    tuples = sorted(moduli_up_to(args.max_order), key=lambda m: (math.prod(m), m))
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "report.json"
        for moduli in tuples:
            rows.append(run_one(moduli, out))
            print(json.dumps(rows[-1], sort_keys=True), flush=True)
    passed = sum(row["exit"] == 0 for row in rows)
    agree = sum(row["formula_agrees"] for row in rows)
    print(f"tuples {len(rows)}: exit 0 {passed}, dim_T = formula {agree}; "
          f"wall {sum(row['wall_s'] for row in rows):.2f} s in total; "
          f"largest maxrss {max(row['maxrss_mb'] for row in rows):.2f} MB")
    print("slowest five:")
    for row in sorted(rows, key=lambda row: -row["wall_s"])[:5]:
        print(f"  {tuple(row['moduli'])}: {row['wall_s']:.3f} s, {row['maxrss_mb']:.2f} MB, "
              f"exit {row['exit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
