"""Dump every verdict the checks give on a fixed set of wreath schemes.

Run it on a source tree as

    PYTHONPATH=<tree>/src python tools/verdicts.py > verdicts.jsonl

and compare the dumps of two trees with ``diff``: equal dumps mean the same
verdict, witness and ``checked`` count from every registered per-point check
at every point of every moduli tuple of order at most 12 and of (2,3,4), the
same closure basis at each of those points, the same certified results of
``run_point_checks`` on each of those tuples, byte-identical default
``verify`` reports and ``export`` files at a ladder of larger tuples, and
the same ``axioms`` verdict and default ``oracle`` report on tables that
fail the axioms.

Output, one JSON object per line:
- ``{"moduli", "x", "check", "passed", "witness", "checked"}`` per tuple,
  point and ``POINT_CHECKS`` name, the points of one tuple sharing one run;
- ``{"moduli", "x", "closure_sha256"}`` per tuple and point: the digest of
  the ``basis()`` of every block span of ``block_closure``, blocks in key
  order, each basis matrix entry by entry, a rational entry q spelled
  ``1:q`` as the element of conductor 1 it is.  Reduced echelon form is
  canonical, so equal spans give equal digests;
- ``{"moduli", "certified", "check", "passed", "witness", "checked"}`` per
  tuple and result of ``run_point_checks`` over every vertex, which runs the
  translation certificate;
- ``{"moduli", "exit", "sha256"}`` of the JSON report of the default
  ``verify`` at each tuple of ``REPORTED``;
- ``{"moduli", "export_exit", "table_sha256", "matrices_sha256"}`` of the
  class table and the ``--matrices`` file that ``export`` writes at each
  tuple of ``REPORTED``;
- ``{"table", "check", "passed", "witness", "checked", "oracle_exit",
  "oracle_sha256"}`` per table of ``FAILING``: its ``axioms`` result, and
  the exit code and the digest of the JSON report of the default ``oracle``
  on its saved table (null where no report is written).

Only the standard library and the package are imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from wreathalg import Scheme, block_closure, save_scheme, wreath_of_cyclics
from wreathalg.cli import main
from wreathalg.structure import POINT_CHECKS, SCHEME_CHECKS, BasePoint, run_point_checks

# The tuples whose default verify report is hashed.
REPORTED = ((2, 3), (3, 3), (2, 2, 2, 2), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2, 2, 2), (64,))

# Tables that fail the axioms, as (table, class count): the (2,3) wreath
# table with the pair (0, 1)/(1, 0) moved from class 1 to class 2 fails
# transpose and regularity, the last table identity, transpose and
# regularity.
_MOVED = [list(row) for row in wreath_of_cyclics((2, 3)).table]
_MOVED[0][1] = _MOVED[1][0] = 2
FAILING = {
    "nonzero-diagonal": ([[1, 0], [0, 1]], None),
    "empty-relation": ([[0, 1], [1, 0]], 3),
    "label-outside": ([[0, 2], [2, 0]], 2),
    "transpose-control": ([[0, 1, 2], [2, 0, 1], [2, 1, 0]], None),
    "moved-pair": (_MOVED, 4),
    "three-axioms": ([[1, 1, 2], [2, 0, 1], [2, 1, 0]], None),
}


def moduli_up_to(order: int, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Every tuple of cyclic orders, each at least 2, with product at most ``order``."""
    tuples = []
    for p in range(2, order + 1):
        tuples.append(prefix + (p,))
        tuples += moduli_up_to(order // p, prefix + (p,))
    return tuples


def _line(**fields) -> None:
    print(json.dumps(fields, sort_keys=True))


def _result(result) -> dict:
    return {"passed": result.passed, "witness": result.witness, "checked": result.checked}


def point_verdicts(moduli: tuple[int, ...]) -> None:
    scheme = wreath_of_cyclics(moduli)
    seen: dict = {}
    for x in range(scheme.order):
        point = BasePoint(scheme, moduli, x, seen)
        for name in POINT_CHECKS:
            _line(moduli=list(moduli), x=x, check=name, **_result(point.result(name)))


def closure_digests(moduli: tuple[int, ...]) -> None:
    scheme = wreath_of_cyclics(moduli)
    for x in range(scheme.order):
        digest = hashlib.sha256()
        for key, span in sorted(block_closure(scheme, x).items()):
            digest.update(f"{key}:".encode())
            for mat in span.basis():
                entries = (f"1:{v}" for v in mat.flat())
                digest.update(f"[{';'.join(entries)}]".encode())
        _line(moduli=list(moduli), x=x, closure_sha256=digest.hexdigest())


def certified_verdicts(moduli: tuple[int, ...]) -> None:
    names = [*SCHEME_CHECKS, *POINT_CHECKS, "decomposition"]
    results, _, _ = run_point_checks(wreath_of_cyclics(moduli), moduli, None, names)
    for name, result in results.items():
        _line(moduli=list(moduli), certified=True, check=name, **_result(result))


def report_digest(moduli: tuple[int, ...], workdir: Path) -> None:
    out = workdir / "report.json"
    with redirect_stdout(StringIO()):
        code = main(["verify", "--moduli", ",".join(map(str, moduli)), "--out", str(out)])
    _line(moduli=list(moduli), exit=code, sha256=hashlib.sha256(out.read_bytes()).hexdigest())


def export_digests(moduli: tuple[int, ...], workdir: Path) -> None:
    table, matrices = workdir / "scheme.table", workdir / "matrices.json"
    code = main(["export", "--moduli", ",".join(map(str, moduli)), "--out", str(table),
                 "--matrices", str(matrices)])
    _line(moduli=list(moduli), export_exit=code,
          table_sha256=hashlib.sha256(table.read_bytes()).hexdigest(),
          matrices_sha256=hashlib.sha256(matrices.read_bytes()).hexdigest())


def axiom_verdicts(workdir: Path) -> None:
    table, out = workdir / "failing.table", workdir / "oracle.json"
    for name, (rows, classes) in FAILING.items():
        scheme = Scheme(rows, classes)
        save_scheme(scheme, table)
        out.unlink(missing_ok=True)
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(["oracle", str(table), "--out", str(out)])
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        _line(table=name, check="axioms", **_result(SCHEME_CHECKS["axioms"](scheme, None)),
              oracle_exit=code, oracle_sha256=digest)


def run() -> int:
    tuples = sorted(moduli_up_to(12) + [(2, 3, 4)], key=lambda m: (math.prod(m), m))
    for moduli in tuples:
        point_verdicts(moduli)
        closure_digests(moduli)
    for moduli in tuples:
        certified_verdicts(moduli)
    with tempfile.TemporaryDirectory() as workdir:
        for moduli in REPORTED:
            report_digest(moduli, Path(workdir))
            export_digests(moduli, Path(workdir))
        axiom_verdicts(Path(workdir))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(run())
