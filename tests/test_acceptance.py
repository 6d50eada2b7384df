"""Acceptance suite: one test per criterion, one printed verdict line each.

Dimension criteria are timed on fresh scheme objects so that library-level
caching cannot mask the cost of the closure oracle.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product as iter_product

from reference import (
    algebra_dimension,
    closed_form_members,
    product_closure,
    standard_generators,
    t0_dimension,
    unit_matrices,
    wreath_context,
    wreath_point,
)

from wreathalg import (
    ExactSpan,
    Scheme,
    block_closure,
    build_central_idempotents,
    build_matrix_units,
    check_adjacency_action,
    check_central_idempotents,
    check_commutation,
    check_matrix_units,
    check_primary_module,
    check_triple_list,
    check_triply_regular,
    check_vanishing_criterion,
    class_indices,
    dimension_formula,
    euler_phi,
    wreath_of_cyclics,
    zeta,
)
from wreathalg.cli import main as cli_main
from wreathalg.cyclotomic import ZERO
from wreathalg.structure import run_point_checks


def report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


def fresh_copy(moduli) -> Scheme:
    source = wreath_of_cyclics(moduli)
    return Scheme([list(row) for row in source.table], source.classes)


def block_dimension(scheme, x):
    return sum(span.dimension for span in block_closure(scheme, x).values())


def test_criterion_1_decomposition_dimensions():
    # the pipeline's block oracle == the flat reference == formula at every
    # base point; [2,4] evaluates to 28
    expected = {(2, 2): 10, (2, 3): 18, (3, 3): 29, (2, 2, 2): 19, (2, 4): 28}
    started = time.monotonic()
    ok = True
    for moduli, dim in expected.items():
        scheme = fresh_copy(moduli)
        formula = dimension_formula(moduli)
        ok = ok and formula == dim
        for x in range(scheme.order):
            ok = ok and block_dimension(scheme, x) == algebra_dimension(scheme, x) == formula == dim
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report(f"criterion 1: decomposition dimensions ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_2_equal_moduli_formula():
    cases = [
        ((2,), 4),
        ((2, 2), 10),
        ((2, 2, 2), 19),
        ((3,), 9),
        ((3, 3), 29),
    ]
    started = time.monotonic()
    ok = True
    for moduli, dim in cases:
        d = len(moduli)
        p = moduli[0]
        closed_form = (1 + d * (p - 1)) ** 2 + (d - 1) * d // 2 * (p - 1) ** 2
        ok = ok and closed_form == dimension_formula(moduli) == dim
        scheme = fresh_copy(moduli)
        for x in range(scheme.order):
            ok = ok and block_dimension(scheme, x) == algebra_dimension(scheme, x) == dim
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    report(f"criterion 2: equal-moduli closed form ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_3_vanishing_criterion():
    ok = True
    for moduli in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4)]:
        result = check_vanishing_criterion(wreath_of_cyclics(moduli), moduli)
        ok = ok and result.passed
    report("criterion 3: vanishing criterion", ok)
    assert ok


def test_criterion_4_triple_regularity():
    ok = True
    for moduli in [(2, 3), (2, 2, 2), (3, 3)]:
        scheme = wreath_of_cyclics(moduli)
        ok = ok and check_triply_regular(scheme).passed
        # the sweep once, and dim T_0(x) == dim T(x) at every base point
        run, seen, _ = run_point_checks(scheme, None, range(scheme.order), ["triply-regular"])
        ok = ok and run["triply-regular"].passed and seen["sweep"][1] is True
    report("criterion 4: triple regularity with span cross-check", ok)
    assert ok


def test_criterion_5_triple_product_list():
    ok = True
    for moduli in [(2, 3), (2, 2, 2)]:
        scheme = wreath_of_cyclics(moduli)
        for x in range(scheme.order):
            ok = ok and check_triple_list(wreath_point(moduli, x)).passed
    report("criterion 5: nonzero triple products", ok)
    assert ok


def test_criterion_6_matrix_unit_law():
    ok = True
    for moduli in [(2, 3), (2, 2, 2)]:
        units = build_matrix_units(wreath_point(moduli, 0))
        result = check_matrix_units(units)
        ok = ok and result.passed and result.checked == units.count ** 2
    report("criterion 6: matrix-unit products", ok)
    assert ok


def test_criterion_7_adjacency_action_rows():
    ok = True
    for moduli in [(2, 3), (2, 2, 2)]:
        point = wreath_point(moduli, 0)
        units = build_matrix_units(point)
        ok = ok and check_adjacency_action(point, units).passed
    # all eight case rows occur on [2,3] (levels of both sizes 2 and 3)
    moduli = (2, 3)
    left_rows = set()
    right_rows = set()
    for hx, a, b in iter_product(class_indices(moduli), repeat=3):
        if hx.level == 0:
            continue
        if hx.level < a.level:
            left_rows.add("below")
        elif hx.level == a.level:
            left_rows.add("equal-same" if hx.offset == a.offset else "equal-shift")
        else:
            left_rows.add("above")
        if hx.level < b.level:
            right_rows.add("below")
        elif hx.level == b.level:
            right_rows.add(
                "equal-wrap" if (b.offset + hx.offset) % moduli[b.level - 1] == 0 else "equal-shift"
            )
        else:
            right_rows.add("above")
    ok = ok and len(left_rows) == 4 and len(right_rows) == 4
    report("criterion 7: adjacency action closed forms (8 rows)", ok)
    assert ok


def test_criterion_8_central_idempotents():
    expected = {(2, 2): 1, (2, 3): 2, (2, 2, 2): 3, (3, 3): 4}
    ok = True
    for moduli, count in expected.items():
        point = wreath_point(moduli, 0)
        family = build_central_idempotents(point)
        members = closed_form_members(family)
        ok = ok and family.count == len(members) == count
        ok = ok and not any(member.is_zero() for member in members.values())
        ok = ok and check_central_idempotents(point, build_matrix_units(point)).passed
    report("criterion 8: central idempotent family", ok)
    assert ok


def test_criterion_9_unit_span_is_ideal_quotient_commutative():
    ok = True
    for moduli in [(2, 3), (2, 2, 2), (3, 3)]:
        ctx = wreath_context(moduli, 0)
        units = build_matrix_units(wreath_point(moduli, 0))
        matrices = unit_matrices(units)
        span = ExactSpan.from_matrices(matrices.values())
        generators = standard_generators(ctx)
        for gen in generators:
            for unit in matrices.values():
                ok = ok and span.contains(gen * unit) and span.contains(unit * gen)
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                commutator = generators[i] * generators[j] - generators[j] * generators[i]
                ok = ok and span.contains(commutator)
        if not ok:
            break
    report("criterion 9: unit span is an ideal with commutative quotient", ok)
    assert ok


def test_criterion_10_primary_module():
    ok = True
    for moduli in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 4)]:
        scheme = wreath_of_cyclics(moduli)
        expected_dim = scheme.classes
        ok = ok and expected_dim == 1 + sum(p - 1 for p in moduli)
        for x in range(scheme.order):
            ok = ok and check_primary_module(wreath_point(moduli, x)).passed
    report("criterion 10: primary module span", ok)
    assert ok


def _random_cyclo(rng, conductor):
    value = ZERO
    for k in range(euler_phi(conductor)):
        value = value + zeta(conductor, k) * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return value


def test_criterion_11a_cyclotomic_axioms_bulk():
    rng = random.Random(0xC1C10)
    conductors = [1, 2, 3, 4, 5, 6, 8, 12]
    triples = 0
    ok = True
    while triples < 10_000:
        n = rng.choice(conductors)
        a = _random_cyclo(rng, n)
        b = _random_cyclo(rng, n)
        c = _random_cyclo(rng, rng.choice(conductors))
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and (a + (-a)).is_zero()
        if not a.is_zero():
            ok = ok and (a * a.inv()).is_one()
        triples += 1
        if not ok:
            break
    report(f"criterion 11a: cyclotomic field axioms ({triples} triples)", ok)
    assert ok


def test_criterion_11b_closure_idempotence():
    ctx = wreath_context((2, 3), 0)
    closure = product_closure(standard_generators(ctx))
    again = product_closure(closure.basis())
    ok = again.dimension == closure.dimension == 18
    report("criterion 11b: closure idempotence", ok)
    assert ok


def test_criterion_11c_base_point_invariance():
    moduli = (2, 3)
    scheme = wreath_of_cyclics(moduli)
    verdicts = []
    for x in range(scheme.order):
        point = wreath_point(moduli, x)
        units = build_matrix_units(point)
        verdicts.append(
            (
                check_triple_list(point).passed,
                check_primary_module(point).passed,
                check_matrix_units(units).passed,
                check_adjacency_action(point, units).passed,
                check_commutation(point).passed,
                check_central_idempotents(point, units).passed,
                algebra_dimension(scheme, x),
                t0_dimension(scheme, x),
            )
        )
    ok = all(v == verdicts[0] for v in verdicts)
    report("criterion 11c: base-point invariance of all verdicts", ok)
    assert ok


def test_criterion_11d_report_determinism(tmp_path, capsys):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    ok = True
    for path in paths:
        code = cli_main(["verify", "--moduli", "2,3", "--out", str(path)])
        capsys.readouterr()
        ok = ok and code == 0
    ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    ok = ok and json.loads(paths[0].read_text())["dim_T"] == 18
    report("criterion 11d: JSON report determinism", ok)
    assert ok
