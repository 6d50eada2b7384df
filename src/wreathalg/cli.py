"""Command-line front end: build schemes, run verification suites, emit reports.

Each command parses its arguments, calls ``structure.run_point_checks``,
which runs and times every check, and emits the report that
``DecompReport.to_dict()`` heads; it runs no check and reads no clock.
Each command imports, first thing, the modules it runs, so that a run
compiles no other (``oracle`` compiles neither ``wreath`` nor
``decomposition``, ``export`` no check) and ``verify`` compiles every
module its checks use before its scheme is built.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or
configuration error, 3 internal error.  JSON reports are byte-identical
across runs for a fixed configuration; wall-clock timings therefore go
to the text format only and the ``millis`` field of JSON reports is
pinned to 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import __version__
from .scheme import CheckResult, load_header, load_scheme, save_scheme

VERIFY_CHECKS = (
    "axioms",
    "vanishing",
    "triple-list",
    "triply-regular",
    "primary-module",
    "block-form",
    "matrix-units",
    "ag-forms",
    "commutation",
    "f-family",
    "decomposition",
)
ORACLE_CHECKS = ("axioms", "triply-regular", "dimension")

DEFAULT_MAX_ORDER = 64
MAX_ORDER_ENV = "WREATHALG_MAX_ORDER"


class ConfigError(ValueError):
    """Invalid flags or configuration; maps to exit code 2."""


def _parse_moduli(text: str) -> tuple[int, ...]:
    from .wreath import check_moduli

    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"--moduli expects comma-separated integers, got {text!r}")
    if not values:
        raise ConfigError("--moduli must name at least one factor")
    try:
        return check_moduli(values)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _parse_base_points(text: str, order: int) -> list[int]:
    if text == "all":
        return list(range(order))
    try:
        points = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--base-points expects 'all' or comma-separated integers, got {text!r}")
    if not points:
        raise ConfigError("--base-points must name at least one vertex")
    for x in points:
        if not 0 <= x < order:
            raise ConfigError(f"base point {x} out of range for order {order}")
    return list(dict.fromkeys(points))


def _parse_checks(text: str, allowed) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")
    if not names:
        raise ConfigError("--checks must name at least one check")
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown check {name!r}; choose from {', '.join(allowed)}")
    return tuple(dict.fromkeys(names))


def _resolve_max_order(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(MAX_ORDER_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{MAX_ORDER_ENV} must be an integer, got {env!r}")
    return DEFAULT_MAX_ORDER


def _check_cap(order: int, max_order: int) -> None:
    if order > max_order:
        raise ConfigError(f"order {order} exceeds the cap {max_order}")


def _read_table(load, path):
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read scheme table: {exc}")


def _emit(report, fmt: str, out: str | None, timings: dict[str, float]) -> None:
    data = report.to_dict() | {"version": __version__}
    for check in data["checks"]:
        check["millis"] = 0
    if fmt == "json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        lines = [
            f"moduli={data['moduli']} order={data['order']} "
            f"classes={data['num_classes']} base_points={data['base_points']}",
            f"dim_T={data['dim_T']} dim_formula={data['dim_formula']} "
            f"matrix_block={data['matrix_block']} one_dim_count={data['one_dim_count']}",
        ]
        for check in data["checks"]:
            status = check["status"].upper()
            millis = int(timings.get(check["name"], 0) * 1000)
            line = f"{check['name']}: {status} ({millis} ms)"
            if check.get("witness"):
                line += f" -- {check['witness']}"
            lines.append(line)
        overall = "PASS" if all(c["status"] == "pass" for c in data["checks"]) else "FAIL"
        lines.append(f"overall: {overall}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    # decomposition holds the checks stated for a wreath of cyclics, which
    # the runner looks up there at call time: imported here, it is compiled
    # as set-up, before the scheme is built.
    from . import decomposition  # noqa: F401
    from .structure import DecompReport, run_point_checks
    from .wreath import wreath_of_cyclics

    max_order = _resolve_max_order(args.max_order)
    moduli = _parse_moduli(args.moduli)
    order = math.prod(moduli)
    _check_cap(order, max_order)
    checks = _parse_checks(args.checks, VERIFY_CHECKS) if args.checks else VERIFY_CHECKS
    points = _parse_base_points(args.base_points, order)
    scheme = wreath_of_cyclics(moduli)

    # The default covers every vertex (the runner's certificate may reduce
    # it to x = 0); an explicit list is computed point by point.
    run, seen, timings = run_point_checks(
        scheme, moduli, None if args.base_points == "all" else points, checks
    )
    dim_T = seen["decomposition"].dim_T if "decomposition" in seen else None
    report = DecompReport(moduli, scheme.order, scheme.classes, points, dim_T, list(run.values()))
    _emit(report, args.format, args.out, timings)
    return 0 if report.passed else 1


def cmd_oracle(args) -> int:
    from .structure import DecompReport, run_point_checks

    max_order = _resolve_max_order(args.max_order)
    # The header's order is capped before the body is read and parsed.
    _check_cap(_read_table(load_header, args.table)[0], max_order)
    scheme = _read_table(load_scheme, args.table)
    _check_cap(scheme.order, max_order)
    checks = _parse_checks(args.checks, ORACLE_CHECKS) if args.checks else ORACLE_CHECKS
    points = _parse_base_points(args.base_points, scheme.order)

    run, _, timings = run_point_checks(scheme, None, points, ["axioms"])
    # Where the axioms fail, no other check runs: each is skipped.
    others = [name for name in checks if name != "axioms"] if run["axioms"].passed else []
    more, seen, more_timings = run_point_checks(scheme, None, points, others)
    run |= more
    timings |= more_timings
    skipped = "skipped: the axioms do not hold"
    results = [run.get(name) or CheckResult(name, False, skipped) for name in checks]
    dims = seen.get("dims", [None])
    dim_T = dims[0] if len(set(dims)) == 1 else None
    report = DecompReport(None, scheme.order, scheme.classes, points, dim_T, results)
    _emit(report, args.format, args.out, timings)
    return 0 if report.passed else 1


def _write_matrices(handle, moduli, scheme) -> None:
    """Write A_i's entries, 0 and 1, each spelled as the element of
    Q(zeta_1) it is and read off the class table, one row at a time, in
    the bytes of ``json.dump(..., indent=2)`` and a newline: an entry sits
    at depth 5, its row at depth 4 and its matrix at depth 2."""
    entry = "\n" + " " * 10
    one, zero = (json.dumps({"conductor": 1, "coeffs": [q]}, indent=2).replace("\n", entry)
                 for q in "10")
    head = json.dumps({"moduli": list(moduli), "order": scheme.order,
                       "num_classes": scheme.classes}, indent=2)
    handle.write(head[:-2] + ',\n  "matrices": [')
    for i in range(scheme.classes):
        handle.write(("," if i else "") + f'\n    {{\n      "class": {i},\n      "rows": [')
        for y, row in enumerate(scheme.table):
            entries = ("," + entry).join(one if c == i else zero for c in row)
            handle.write(("," if y else "") + "\n        [" + entry + entries + "\n        ]")
        handle.write("\n      ]\n    }")
    handle.write("\n  ]\n}\n")


def cmd_export(args) -> int:
    from .wreath import wreath_of_cyclics

    max_order = _resolve_max_order(args.max_order)
    moduli = _parse_moduli(args.moduli)
    _check_cap(math.prod(moduli), max_order)
    scheme = wreath_of_cyclics(moduli)
    try:
        save_scheme(scheme, args.out)
        if args.matrices:
            with open(args.matrices, "w", encoding="utf-8") as handle:
                _write_matrices(handle, moduli, scheme)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathalg",
        description="Exact verification of wreath-product Terwilliger algebra structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="build a wreath of cyclic schemes and verify it")
    verify.add_argument("--moduli", required=True, help="comma-separated cyclic orders, e.g. 2,3")
    verify.add_argument(
        "--base-points",
        default="all",
        help="'all' (the default: every vertex, covered from vertex 0 where a translation "
        "certificate holds) or comma-separated vertices, each checked directly",
    )
    verify.add_argument("--checks", default=None, help=f"subset of: {','.join(VERIFY_CHECKS)}")
    verify.add_argument("--out", default=None, help="write the report to this path")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--max-order", type=int, default=None, help="safety cap on the order")
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="run generic checks on an ingested class table")
    oracle.add_argument("table", help="path to a class table file")
    oracle.add_argument("--base-points", default="all")
    oracle.add_argument("--checks", default=None, help=f"subset of: {','.join(ORACLE_CHECKS)}")
    oracle.add_argument("--out", default=None)
    oracle.add_argument("--format", choices=("json", "text"), default="json")
    oracle.add_argument("--max-order", type=int, default=None, help="safety cap on the order")
    oracle.set_defaults(func=cmd_oracle)

    export = sub.add_parser("export", help="write a class table (and optional matrix dumps)")
    export.add_argument("--moduli", required=True)
    export.add_argument("--out", required=True, help="path for the class table")
    export.add_argument("--matrices", default=None, help="optional path for exact matrix dumps")
    export.add_argument("--max-order", type=int, default=None)
    export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    It first freezes what start-up made (``gc.freeze``), which a full
    collection there would not free, so that neither the run's collections
    nor the exit walk it; files are closed by ``with`` and stdout is
    flushed at exit.  A caller that runs ``main`` in-process freezes its
    own heap too, until it calls ``gc.unfreeze``.
    """
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
