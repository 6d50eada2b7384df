import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from reference import example_schemes, moved_pair_table, rebind, relabelled

from wreathalg.cli import VERIFY_CHECKS, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_full_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "--moduli", "2,2")
    report = json.loads(out)
    assert code == 0
    assert report["dim_T"] == 10
    assert report["dim_formula"] == 10
    assert report["num_classes"] == 3
    assert {c["name"] for c in report["checks"]} == {
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
        "translation-certificate",
    }
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_report_schema_keys(capsys):
    code, out, _ = run(capsys, "verify", "--moduli", "2", "--checks", "axioms")
    report = json.loads(out)
    assert list(report.keys()) == [
        "moduli",
        "order",
        "num_classes",
        "base_points",
        "dim_T",
        "dim_formula",
        "matrix_block",
        "one_dim_count",
        "checks",
        "version",
    ]
    assert report["dim_T"] is None  # decomposition did not run
    assert list(report["checks"][0].keys()) == ["name", "status", "millis"]


def test_verify_single_factor_decomposition(capsys):
    code, out, _ = run(capsys, "verify", "--moduli", "2", "--checks", "decomposition")
    report = json.loads(out)
    assert code == 0
    assert report["dim_T"] == 4
    assert report["one_dim_count"] == 0


def test_verify_order_cap(capsys):
    code, _, err = run(capsys, "verify", "--moduli", "2,3,5,7")
    assert code == 2
    assert "cap" in err


def test_verify_max_order_flag_and_env(capsys, monkeypatch):
    monkeypatch.setenv("WREATHALG_MAX_ORDER", "4")
    code, _, err = run(capsys, "verify", "--moduli", "2,3", "--checks", "axioms")
    assert code == 2
    code, out, _ = run(
        capsys, "verify", "--moduli", "2,3", "--checks", "axioms", "--max-order", "8"
    )
    assert code == 0
    monkeypatch.setenv("WREATHALG_MAX_ORDER", "not-a-number")
    code, _, err = run(capsys, "verify", "--moduli", "2", "--checks", "axioms")
    assert code == 2


def test_verify_rejects_bad_flags(capsys):
    assert run(capsys, "verify", "--moduli", "2,x")[0] == 2
    assert run(capsys, "verify", "--moduli", "2", "--checks", "nonsense")[0] == 2
    assert run(capsys, "verify", "--moduli", "2", "--base-points", "7")[0] == 2
    assert run(capsys, "verify", "--moduli", "1,2")[0] == 2


@pytest.mark.parametrize("argv, message", [
    (("--moduli", ","), "--moduli must name at least one factor"),
    (("--moduli", "2,3", "--base-points", "0,a"),
     "--base-points expects 'all' or comma-separated integers, got '0,a'"),
    (("--moduli", "2,3", "--base-points", ","), "--base-points must name at least one vertex"),
    (("--moduli", "2,3", "--checks", " , "), "--checks must name at least one check"),
])
def test_verify_refuses_an_empty_or_non_integer_list(capsys, argv, message):
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


def test_an_internal_error_exits_3(capsys, monkeypatch):
    from wreathalg import structure

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(structure, "run_point_checks", broken)
    assert run(capsys, "verify", "--moduli", "2") == (3, "", "internal error: RuntimeError: boom\n")


def test_verify_base_point_subset(capsys):
    code, out, _ = run(
        capsys, "verify", "--moduli", "2,3", "--base-points", "0,3", "--checks", "triple-list"
    )
    report = json.loads(out)
    assert code == 0
    assert report["base_points"] == [0, 3]


def test_verify_text_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--moduli", "2,2", "--checks", "axioms,decomposition", "--format", "text"
    )
    assert code == 0
    assert "overall: PASS" in out
    assert "dim_T=10" in out


def test_verify_report_written_to_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--moduli", "2", "--checks", "axioms", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["order"] == 2


def test_report_determinism(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _, _ = run(
            capsys, "verify", "--moduli", "2,2", "--out", str(path)
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_export_and_oracle_roundtrip(capsys, tmp_path):
    table = tmp_path / "t22.txt"
    code, _, _ = run(capsys, "export", "--moduli", "2,2", "--out", str(table))
    assert code == 0
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "4 2"
    assert len(lines) == 5

    code, out, _ = run(capsys, "oracle", str(table))
    report = json.loads(out)
    assert code == 0
    assert report["moduli"] is None
    assert report["dim_T"] == 10  # same dimension the verify command reports
    assert {c["name"] for c in report["checks"]} == {"axioms", "triply-regular", "dimension"}


def test_export_two_vertex_table(capsys, tmp_path):
    table = tmp_path / "t2.txt"
    assert run(capsys, "export", "--moduli", "2", "--out", str(table))[0] == 0
    assert table.read_text() == "2 1\n0 1\n1 0\n"


def test_export_matrix_dump(capsys, tmp_path):
    # the whole dump, byte for byte: each rational entry q is spelled as the
    # element {"conductor": 1, "coeffs": [q]} of Q(zeta_1)
    dump = tmp_path / "mats.json"
    code, _, _ = run(capsys, "export", "--moduli", "2,3", "--out", str(tmp_path / "t.txt"),
                     "--matrices", str(dump))
    assert code == 0
    assert dump.read_bytes() == (GOLDEN / "export-2x3-matrices.json").read_bytes()


def test_export_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "export", "--moduli", "2", "--out", str(tmp_path / "no" / "way.txt")
    )
    assert code == 3


def test_oracle_cyclic_table(capsys, tmp_path):
    from wreathalg import cyclic_scheme, save_scheme

    table = tmp_path / "c4.txt"
    save_scheme(cyclic_scheme(4), table)
    code, out, _ = run(capsys, "oracle", str(table), "--format", "text")
    assert code == 0
    assert "triply-regular: PASS" in out


def test_oracle_corrupted_table(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    # classes announced as 3 but class 2 never occurs: partition fails
    path.write_text("2 2\n0 1\n1 0\n")
    code, out, _ = run(capsys, "oracle", str(path))
    report = json.loads(out)
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["axioms"]["status"] == "fail"
    assert by_name["triply-regular"]["status"] == "fail"
    assert "skipped" in by_name["triply-regular"]["witness"]


def test_text_format_names_the_witness_of_a_failing_check(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n0 1\n1 0\n")
    code, out, _ = run(capsys, "oracle", str(path), "--format", "text")
    assert code == 1
    lines = out.splitlines()
    assert re.fullmatch(r"axioms: FAIL \(\d+ ms\) -- partition: relation 2 is empty", lines[2])
    assert lines[3:] == [
        "triply-regular: FAIL (0 ms) -- skipped: the axioms do not hold",
        "dimension: FAIL (0 ms) -- skipped: the axioms do not hold",
        "overall: FAIL",
    ]


def test_oracle_refuses_a_short_or_negative_header(capsys, tmp_path):
    path = tmp_path / "header.txt"
    for text, message in (("5\n", "scheme file must start with 'order d'"),
                          ("0 1\n", "order must be >= 1 and d >= 0")):
        path.write_text(text)
        assert run(capsys, "oracle", str(path)) == (
            2, "", f"error: cannot read scheme table: {message}\n")


def test_oracle_parse_error(capsys, tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("2 1\n0 1 1\n")
    assert run(capsys, "oracle", str(path))[0] == 2
    assert run(capsys, "oracle", str(tmp_path / "missing.txt"))[0] == 2


def test_oracle_order_cap(capsys, tmp_path, monkeypatch):
    from wreathalg import cyclic_scheme, save_scheme

    big = tmp_path / "c65.txt"
    save_scheme(cyclic_scheme(65), big)
    code, out, err = run(capsys, "oracle", str(big))
    assert code == 2
    assert out == ""
    assert "cap" in err
    table = tmp_path / "c6.txt"
    save_scheme(cyclic_scheme(6), table)
    assert run(capsys, "oracle", str(table), "--checks", "axioms", "--max-order", "4")[0] == 2
    monkeypatch.setenv("WREATHALG_MAX_ORDER", "4")
    assert run(capsys, "oracle", str(table), "--checks", "axioms")[0] == 2
    assert run(capsys, "oracle", str(table), "--checks", "axioms", "--max-order", "6")[0] == 0


def test_oracle_caps_the_header_before_the_body(capsys, tmp_path):
    # The order in the header is capped before the body is read, so a short
    # body is never compared with the 10^10 entries the header announces.
    # The cap reads the order as load_scheme does, zero padding and leading
    # blank lines included.
    path = tmp_path / "huge.txt"
    for header in ("100000 2", "0" * 64 + "100000 2", "\n\n100000 2"):
        path.write_text(f"{header}\n0 1 2\n")
        code, out, err = run(capsys, "oracle", str(path))
        assert (code, out) == (2, "")
        assert err == "error: order 100000 exceeds the cap 64\n"
        assert run(capsys, "oracle", str(path), "--max-order", "100000")[2] == (
            "error: cannot read scheme table: expected 10000000000 table entries, found 3\n"
        )


def _write_tables(tmp_path):
    """The class tables the golden oracle reports read, by placeholder name."""
    from wreathalg import save_scheme

    # classes announced as 3 but class 2 never occurs: partition fails
    (tmp_path / "bad.txt").write_text("2 2\n0 1\n1 0\n")
    for name, scheme in example_schemes().items():
        save_scheme(scheme, tmp_path / f"{name}.txt")
    # the table of the oracle benchmark workload at seed 1
    save_scheme(relabelled((4, 4, 4), 1), tmp_path / "w444.txt")
    return {name: tmp_path / f"{name}.txt" for name in ("bad", "t22", "t222", "s3", "shrikhande", "w444")}


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("verify-2x3.json", ["verify", "--moduli", "2,3", "--base-points", "0,1,2,3,4,5"]),
        ("verify-3x3-points-0-4.json", ["verify", "--moduli", "3,3", "--base-points", "0,4"]),
        (
            "verify-2x2-decomposition-axioms-axioms.json",
            [
                "verify", "--moduli", "2,2", "--base-points", "0,1,2,3",
                "--checks", "decomposition,axioms,axioms",
            ],
        ),
        ("oracle-corrupted.json", ["oracle", "{bad}"]),
        (
            "verify-2x2-decomposition-triply-regular-axioms-triply-regular.json",
            [
                "verify", "--moduli", "2,2", "--base-points", "0,1,2,3",
                "--checks", "decomposition,triply-regular,axioms,triply-regular",
            ],
        ),
        ("oracle-relabelled-2x2x2.json", ["oracle", "{t222}"]),
        ("oracle-s3.json", ["oracle", "{s3}"]),
        ("oracle-shrikhande.json", ["oracle", "{shrikhande}"]),
        (
            "oracle-2x2-dimension-triply-regular-dimension-points-1-3.json",
            [
                "oracle", "{t22}",
                "--checks", "dimension,triply-regular,dimension", "--base-points", "1,3",
            ],
        ),
        # the three benchmark invocations at seed 1
        ("verify-3x3.json", ["verify", "--moduli", "3,3"]),
        ("verify-2x3x4-points-4.json", ["verify", "--moduli", "2,3,4", "--base-points", "4"]),
        (
            "oracle-relabelled-4x4x4-seed-1-dimension-points-0.json",
            ["oracle", "{w444}", "--checks", "dimension", "--base-points", "0"],
        ),
    ],
)
def test_report_matches_golden(capsys, tmp_path, golden, argv):
    # The checked-in reports pin every byte of the JSON output, witnesses
    # and check order included, a repeated check once at its first place;
    # the corrupted table is the one of test_oracle_corrupted_table, and
    # the Shrikhande table fails its sweep.
    tables = _write_tables(tmp_path)
    out = tmp_path / "report.json"
    expected_code = 1 if golden in ("oracle-corrupted.json", "oracle-shrikhande.json") else 0
    argv = [arg.format(**tables) for arg in argv]
    assert main(argv + ["--out", str(out)]) == expected_code
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def _checks_by_name(out):
    return {c["name"]: c for c in json.loads(out)["checks"]}


def test_verify_unit_build_failure_at_one_point(capsys, monkeypatch):
    from wreathalg import StructureError

    message = "unit (0,0) at x=2 is not supported on its block"

    def make(original):
        def failing(point):
            if point.x == 2:
                raise StructureError(message)
            return original(point)

        return failing

    rebind(monkeypatch, "build_matrix_units", make)
    code, out, _ = run(capsys, "verify", "--moduli", "2,2", "--base-points", "0,1,2,3")
    assert code == 1
    checks = _checks_by_name(out)
    for name in ("matrix-units", "ag-forms", "f-family", "decomposition"):
        assert checks[name] == {"name": name, "status": "fail", "witness": message, "millis": 0}
    assert checks["commutation"]["status"] == "pass"
    assert json.loads(out)["dim_T"] == 10


def test_verify_witness_names_the_first_failing_point(capsys, monkeypatch):
    from wreathalg import CheckResult

    def make(original):
        def failing(units):
            if units.base_point in (1, 2):
                return CheckResult("matrix-units", False, f"x={units.base_point}: forced", 1)
            return original(units)

        return failing

    rebind(monkeypatch, "check_matrix_units", make)
    code, out, _ = run(
        capsys, "verify", "--moduli", "2,2", "--base-points", "0,1,2,3",
        "--checks", "matrix-units,decomposition",
    )
    assert code == 1
    checks = _checks_by_name(out)
    assert checks["matrix-units"]["witness"] == "x=1: forced"
    assert checks["decomposition"]["witness"] == "x=1: forced"


def _count_calls(monkeypatch, names):
    """Count the calls of each public function in ``names``, through every
    binding; returns the dict the counts go into."""
    counts = {}

    def counter(name):
        def make(original):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            return counted

        return make

    for name in names:
        rebind(monkeypatch, name, counter(name))
    return counts


# The pieces of a point, which its checks and its closure share.
PER_POINT_STATE = ("starting_pieces", "block_closure")


def test_verify_builds_and_checks_units_once_per_point(capsys, monkeypatch):
    counts = _count_calls(
        monkeypatch,
        (
            "build_matrix_units",
            "build_central_idempotents",
            "check_matrix_units",
            "check_adjacency_action",
            "check_central_idempotents",
        )
        + PER_POINT_STATE,
    )
    code, _, _ = run(capsys, "verify", "--moduli", "2,2", "--base-points", "0,1,2,3")
    assert code == 0
    # one read of the pieces per point: the builds, the checks, the closure
    # and the triply-regular cross-check, which counts them, share it, and
    # span-accounting reuses the point's closure
    assert counts == {
        "build_matrix_units": 4,
        "build_central_idempotents": 4,
        "check_matrix_units": 4,
        "check_adjacency_action": 4,
        "check_central_idempotents": 4,
        "starting_pieces": 4,
    }


def test_oracle_builds_each_point_once(capsys, tmp_path, monkeypatch):
    table = tmp_path / "t22.txt"
    assert run(capsys, "export", "--moduli", "2,2", "--out", str(table))[0] == 0
    counts = _count_calls(monkeypatch, PER_POINT_STATE)
    assert run(capsys, "oracle", str(table))[0] == 0
    # the closure and the cross-check share each point's pieces
    assert counts == {"starting_pieces": 4}


def test_oracle_skips_t0_once_the_sweep_fails(capsys, tmp_path, monkeypatch):
    # The sweep's witness fixes the triply-regular verdict, so no point
    # reads its pieces for T_0; the pieces read are the dimension check's.
    table = _write_tables(tmp_path)["shrikhande"]
    counts = _count_calls(monkeypatch, PER_POINT_STATE)
    assert run(capsys, "oracle", str(table), "--checks", "triply-regular")[0] == 1
    assert counts == {}
    assert run(capsys, "oracle", str(table))[0] == 1
    assert counts == {"starting_pieces": 16}


def test_cli_path_forms_no_triple_product_or_t0_span(capsys, tmp_path, monkeypatch):
    # verify and oracle read every label fact from the class table.  The
    # matrix references live in tests/reference.py, and no wreathalg module
    # binds them; with entry reads made to raise, the same runs give the
    # same bytes.
    from wreathalg import ExactMatrix

    moved = {"product_closure", "algebra_dimension", "triple_product", "t0_span", "t0_dimension",
             "TerwilligerContext", "make_context", "wreath_context", "standard_generators"}
    bound = {
        (module_name, name)
        for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "wreathalg"
        for name in moved & set(vars(module))
    }
    assert bound == set()

    tables = _write_tables(tmp_path)
    runs = [
        (["verify", "--moduli", "2,3", "--base-points", "0,1,2,3,4,5"], "verify-2x3.json"),
        (["oracle", str(tables["t22"])], None),
        (["oracle", str(tables["s3"])], "oracle-s3.json"),
    ]

    def reports():
        out = tmp_path / "report.json"
        for argv, _ in runs:
            assert main(argv + ["--out", str(out)]) == 0
            yield out.read_bytes()

    expected = list(reports())
    for (_, golden), report in zip(runs, expected):
        if golden is not None:
            assert report == (GOLDEN / golden).read_bytes()

    def refuse(original):
        def raising(*args, **kwargs):
            raise AssertionError(f"{original.__name__} is off the CLI path")

        return raising

    monkeypatch.setattr(ExactMatrix, "__getitem__", refuse(ExactMatrix.__getitem__))
    assert list(reports()) == expected
    capsys.readouterr()


def test_no_context_outlives_the_run(capsys):
    # No base point, with its spheres, pieces, closure and families,
    # outlives the run.
    import gc

    from wreathalg import BasePoint, decomposition_report

    def live_contexts():
        gc.collect()
        return sum(isinstance(obj, BasePoint) for obj in gc.get_objects())

    assert run(capsys, "verify", "--moduli", "2,2")[0] == 0
    assert live_contexts() == 0
    assert decomposition_report([2, 2]).passed
    assert live_contexts() == 0


def test_span_cross_check_failure_fails_triply_regular(capsys, monkeypatch):
    # A closure one larger at x=2 makes dim T_0(x) != dim T(x) there, which
    # disagrees with the sweep's verdict that the scheme is triply regular.
    from wreathalg.structure import BasePoint

    dim = BasePoint.dim
    monkeypatch.setattr(BasePoint, "dim", property(lambda point: dim.func(point) + (point.x == 2)))
    code, out, _ = run(
        capsys, "verify", "--moduli", "2,2", "--base-points", "0,1,2,3", "--checks", "triply-regular"
    )
    assert code == 1
    assert _checks_by_name(out)["triply-regular"] == {
        "name": "triply-regular",
        "status": "fail",
        "witness": "span-equality cross-check disagrees with the sweep",
        "millis": 0,
    }


def test_oracle_dimension_varying_over_base_points(capsys, tmp_path, monkeypatch):
    # A dimension that depends on the base point is reported, not failed:
    # dim_T is null and the witness lists the dimensions.
    from wreathalg.structure import BasePoint

    table = tmp_path / "t22.txt"
    assert run(capsys, "export", "--moduli", "2,2", "--out", str(table))[0] == 0
    monkeypatch.setattr(BasePoint, "dim", property(lambda point: 11 if point.x == 1 else 10))
    code, out, _ = run(capsys, "oracle", str(table), "--checks", "dimension")
    assert code == 0
    assert json.loads(out)["dim_T"] is None
    assert _checks_by_name(out)["dimension"] == {
        "name": "dimension",
        "status": "pass",
        "witness": "dimension varies over base points: [10, 11, 10, 10]",
        "millis": 0,
    }


# -- the translation certificate ------------------------------------------------------


def test_default_verify_builds_one_point(capsys, monkeypatch):
    # The certificate covers every other point, so only x = 0 is built.
    counts = _count_calls(monkeypatch, ("starting_pieces", "build_matrix_units"))
    assert run(capsys, "verify", "--moduli", "2,2")[0] == 0
    assert counts == {"starting_pieces": 1, "build_matrix_units": 1}


@pytest.mark.parametrize("moduli", ["2,2", "2,3", "3,3", "2,2,2,2", "2,3,4"])
def test_certified_verify_agrees_with_every_point(capsys, moduli):
    # The explicit list of every vertex is the exhaustive reference: the
    # certified default report is its report plus the certificate entry.
    code, out, _ = run(capsys, "verify", "--moduli", moduli)
    every = ",".join(str(x) for x in range(json.loads(out)["order"]))
    direct_code, direct_out, _ = run(capsys, "verify", "--moduli", moduli, "--base-points", every)
    assert code == direct_code == 0
    reduced, direct = json.loads(out), json.loads(direct_out)
    assert reduced["checks"].pop() == {
        "name": "translation-certificate",
        "status": "pass",
        "millis": 0,
    }
    assert reduced == direct
    if moduli == "2,3":
        assert out == (GOLDEN / "verify-2x3-certified.json").read_text()


def _relabelled_2x3():
    """The (2,3) wreath table with vertices 1 and 2 swapped: a scheme with the
    same algebra at every point, but not in the vertex encoding."""
    from wreathalg import Scheme, wreath_of_cyclics

    t = wreath_of_cyclics((2, 3)).table
    perm = [0, 2, 1, 3, 4, 5]
    return Scheme([[t[perm[y]][perm[z]] for z in range(6)] for y in range(6)])


# The checks a table that is not a scheme can run: the unit family needs the
# valencies, which such a table does not have.
NON_SCHEME_CHECKS = "triple-list,triply-regular,primary-module,block-form,commutation"


@pytest.mark.parametrize(
    "table, checks, witness, direct_code",
    [
        (
            moved_pair_table,
            NON_SCHEME_CHECKS,
            "sigma_2 (+1 on digit 2 mod 3) maps (0,1) in class 2 to (2,3) in class 1",
            1,
        ),
        (
            _relabelled_2x3,
            ",".join(VERIFY_CHECKS),
            "sigma_1 (+1 on digit 1 mod 2) maps (0,1) in class 2 to (1,0) in class 3",
            0,
        ),
    ],
    ids=["moved-pair", "relabelled"],
)
def test_failed_certificate_computes_every_point(
    capsys, monkeypatch, table, checks, witness, direct_code
):
    # A table that one translation does not keep fails the certificate with
    # its witness, every point is then computed directly, and the run fails
    # even where every point passes.
    broken = table()
    rebind(monkeypatch, "wreath_of_cyclics", lambda original: lambda moduli: broken)
    argv = ["verify", "--moduli", "2,3", "--checks", checks]
    code, direct_out, _ = run(capsys, *argv, "--base-points", "0,1,2,3,4,5")
    assert code == direct_code
    counts = _count_calls(monkeypatch, ("starting_pieces",))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert counts == {"starting_pieces": 6}
    checks = json.loads(out)["checks"]
    assert checks.pop() == {
        "name": "translation-certificate",
        "status": "fail",
        "witness": witness,
        "millis": 0,
    }
    assert checks == json.loads(direct_out)["checks"]


def test_verify_reports_a_repeated_check_once(capsys):
    repeated = run(capsys, "verify", "--moduli", "2,2",
                   "--checks", "axioms,axioms,matrix-units,matrix-units")
    once = run(capsys, "verify", "--moduli", "2,2", "--checks", "axioms,matrix-units")
    assert repeated == once
    assert [c["name"] for c in json.loads(repeated[1])["checks"]] == [
        "axioms", "matrix-units", "translation-certificate",
    ]


def test_oracle_reports_a_repeated_check_once(capsys, tmp_path):
    table = str(_write_tables(tmp_path)["t22"])
    repeated = run(capsys, "oracle", table, "--checks", "dimension,dimension")
    assert repeated == run(capsys, "oracle", table, "--checks", "dimension")
    assert [c["name"] for c in json.loads(repeated[1])["checks"]] == ["dimension"]


def test_no_certificate_without_a_per_point_check(capsys):
    code, out, _ = run(capsys, "verify", "--moduli", "2,3", "--checks", "axioms,vanishing")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["axioms", "vanishing"]


def test_every_reported_check_is_timed(capsys, tmp_path, monkeypatch):
    # A fake clock that advances one second per reading: each check the
    # runner times shows at least 1000 ms, whatever the real time, and a
    # check that nothing timed shows 0.
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    table = str(_write_tables(tmp_path)["t22"])
    for argv, count in ((["verify", "--moduli", "2,2"], 12), (["oracle", table], 3)):
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        millis = re.findall(r"^[a-z-]+: PASS \((\d+) ms\)$", out, re.MULTILINE)
        assert len(millis) == count
        assert all(int(ms) > 0 for ms in millis), out


def test_cli_runs_no_check_and_reads_no_clock():
    # The runner, structure.run_point_checks, runs and times every check.
    import wreathalg.cli as cli

    assert not {"time", "check_translation_certificate", "check_vanishing_criterion"} & set(
        vars(cli)
    )


def test_repeated_base_points_are_checked_once(capsys, monkeypatch):
    counts = _count_calls(monkeypatch, ("check_primary_module",))
    code, out, _ = run(
        capsys, "verify", "--moduli", "2,3", "--base-points", "3,0,3,0", "--checks", "primary-module"
    )
    assert code == 0
    assert json.loads(out)["base_points"] == [3, 0]
    assert counts == {"check_primary_module": 2}


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "wreathalg", "verify", "--moduli", "2,2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim_T"] == 10
