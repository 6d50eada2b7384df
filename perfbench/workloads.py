"""Workloads: seeded input generation and verdict checking.

Every workload is one ``wreathalg`` CLI command.  The seed only shapes the
command's inputs (a base point, a vertex relabelling); the program sees
nothing but those inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# The seed a single run uses when none is given, and a seed kept out of
# tuning: a later speed-up claim must also hold on HELDOUT_SEED.
DEFAULT_SEED = 1
HELDOUT_SEED = 1103


# dim_T of each workload's algebra; BENCHMARK.json and README.md say why
# each workload is there.
DIM_T = {
    "verify-3x3-all": 29,
    "verify-2x3x4-one": 60,
    "oracle-4x4x4-dim": 127,
}


@dataclass(frozen=True)
class Inputs:
    """What one workload and seed hand to the CLI."""

    argv: list[str]
    input_sha256: str
    # Fields the JSON report must carry, besides passing checks and dim_T.
    expect: dict


def relabelled_table(moduli, seed: int):
    """The class table of the wreath scheme with its vertices permuted by a
    permutation drawn from ``seed``; returns (Scheme, permutation)."""
    from wreathalg import Scheme, wreath_of_cyclics

    scheme = wreath_of_cyclics(moduli)
    n = scheme.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        row = scheme.table[a]
        out = table[perm[a]]
        for b in range(n):
            out[perm[b]] = row[b]
    return Scheme(table, classes=scheme.classes), perm


def make_inputs(name: str, seed: int, workdir: Path) -> Inputs:
    """Generate the CLI arguments for one workload; writes any input file
    into ``workdir``."""
    if name == "verify-3x3-all":
        argv = ["verify", "--moduli", "3,3"]
        return Inputs(argv, _sha256_text(" ".join(argv)), {"order": 9, "base_points": list(range(9))})
    if name == "verify-2x3x4-one":
        x = random.Random(seed).randrange(24)
        argv = ["verify", "--moduli", "2,3,4", "--base-points", str(x)]
        return Inputs(argv, _sha256_text(" ".join(argv)), {"order": 24, "base_points": [x]})
    if name == "oracle-4x4x4-dim":
        from wreathalg import save_scheme

        scheme, _ = relabelled_table((4, 4, 4), seed)
        table = workdir / f"w444-seed{seed}.table"
        save_scheme(scheme, table)
        argv = ["oracle", str(table), "--checks", "dimension", "--base-points", "0"]
        digest = hashlib.sha256(table.read_bytes()).hexdigest()
        return Inputs(argv, digest, {"order": 64, "base_points": [0]})
    raise KeyError(name)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_failures(
    name: str, exit_code: int, report: bytes | None, expect: dict, reference: bytes | None
) -> list[str]:
    """Reasons one invocation failed; empty when its verdict is right.

    A run fails on a non-zero exit, any check not ``pass``, a wrong
    ``dim_T`` or order or base points, or report bytes that differ from
    ``reference`` (the first report of the same workload and seed).
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    if report is None:
        return reasons + ["no report written"]
    try:
        parsed = json.loads(report)
    except ValueError as exc:
        return reasons + [f"report is not JSON: {exc}"]
    checks = parsed.get("checks") or []
    if not checks:
        reasons.append("report lists no checks")
    for check in checks:
        if check.get("status") != "pass":
            reasons.append(f"check {check.get('name')!r} is {check.get('status')!r}")
    if parsed.get("dim_T") != DIM_T[name]:
        reasons.append(f"dim_T {parsed.get('dim_T')!r} != {DIM_T[name]}")
    for key, value in expect.items():
        if parsed.get(key) != value:
            reasons.append(f"{key} {parsed.get(key)!r} != {value!r}")
    if reference is not None and report != reference:
        reasons.append("report bytes differ from the first report of this workload and seed")
    return reasons
