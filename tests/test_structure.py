import dataclasses
import math
from fractions import Fraction

import pytest

from wreathalg import (
    CentralIdempotentFamily,
    CheckResult,
    ExactMatrix,
    Scheme,
    StructureError,
    WreathIndex,
    build_central_idempotents,
    build_matrix_units,
    check_adjacency_action,
    check_block_form,
    check_central_idempotents,
    check_commutation,
    check_matrix_units,
    check_translation_certificate,
    check_triply_regular,
    check_vanishing_criterion,
    cyclic_scheme,
    decomposition_report,
    dimension_formula,
    make_context,
    matrix_block_size,
    one_dim_ideal_count,
    rational,
    wreath_context,
    wreath_of_cyclics,
    zeta,
)
from wreathalg import structure, wreath
from wreathalg.linalg import ExactSpan
from wreathalg.structure import DECOMPOSITION, POINT_CHECKS, BasePoint, run_point_checks

from reference import (
    adjacency_action_by_products,
    central_idempotents_by_products,
    example_schemes,
    matrix_units_by_products,
    moduli_up_to,
    quotient_commutes_by_membership,
    unit_ideal_by_membership,
    unit_matrices,
    unit_rank_by_echelon,
)


def test_formula_helpers():
    assert matrix_block_size([2, 3]) == 4
    assert one_dim_ideal_count([2, 3]) == 2
    assert dimension_formula([2, 3]) == 18
    assert dimension_formula([2]) == 4
    assert dimension_formula([3, 3]) == 29
    assert one_dim_ideal_count([2, 2, 2]) == 3


def test_unit_family_small_entries():
    ctx = wreath_context([2, 2], 0)
    units = build_matrix_units(ctx)
    g = units.matrix(1, 2)  # level 1 row, level 2 column
    half = rational(Fraction(1, 2))
    assert g[1, 2] == half and g[1, 3] == half
    assert sum(1 for v in g.flat() if not v.is_zero()) == 2
    g00 = units.matrix(0, 0)
    assert g00[0, 0] == rational(1)
    assert sum(1 for v in g00.flat() if not v.is_zero()) == 1


def test_unit_family_rank():
    ctx = wreath_context([2, 2], 0)
    units = build_matrix_units(ctx)
    span = ExactSpan.from_matrices(unit_matrices(units).values())
    assert span.dimension == 9


def test_unit_support_violation_detected():
    # wrong scheme for the claimed moduli: the sandwich is not single-block
    ctx = make_context(cyclic_scheme(4), 0, moduli=(2, 2))
    with pytest.raises(StructureError):
        build_matrix_units(ctx)


def test_matrix_unit_law():
    for m in [(2, 2), (2, 3)]:
        ctx = wreath_context(m, 0)
        units = build_matrix_units(ctx)
        result = check_matrix_units(units)
        assert result.passed, result.witness
        assert result.checked == units.count ** 2


def test_matrix_unit_law_specific_products():
    ctx = wreath_context([2, 3], 0)
    units = build_matrix_units(ctx)
    assert units.matrix(0, 2) * units.matrix(2, 3) == units.matrix(0, 3)
    assert (units.matrix(0, 2) * units.matrix(3, 1)).is_zero()


def test_adjacency_action_closed_forms():
    for m in [(2, 2), (2, 3)]:
        ctx = wreath_context(m, 0)
        units = build_matrix_units(ctx)
        result = check_adjacency_action(ctx, units)
        assert result.passed, result.witness


def test_adjacency_action_collapses_to_level_zero():
    ctx = wreath_context([2, 2], 0)
    units = build_matrix_units(ctx)
    # acting by the level-1 class on a level-1 row lands on the level-0 row
    assert ctx.adjacency[1] * units.matrix(1, 0) == units.matrix(0, 0)
    # acting by a higher level reflects its offset
    assert ctx.adjacency[2] * units.matrix(1, 0) == units.matrix(2, 0)


def test_block_form():
    from wreathalg import class_indices

    for m in [(2, 3), (2, 2, 2)]:
        ctx = wreath_context(m, 0)
        for index in class_indices(m):
            if index.level == 0:
                continue
            result = check_block_form(ctx, index)
            assert result.passed, result.witness


def test_block_form_specific_blocks():
    m = (2, 3)
    ctx = wreath_context(m, 0)
    a = ctx.adjacency[WreathIndex(2, 1, m).flat]
    # rows of lower levels meet only the (2,1) column, as all-ones blocks
    assert a[0, 2] == rational(1) and a[0, 3] == rational(1)
    assert a[0, 1] == rational(0) and a[0, 4] == rational(0)
    # the wrap-around row (offset 2, since 2+1=0 mod 3) covers the low columns
    wrap = ctx.spheres[WreathIndex(2, 2, m).flat]
    low = ctx.spheres[0] + ctx.spheres[1]
    assert all(not a[y, z].is_zero() for y in wrap for z in low)


def test_block_form_diagonal_blocks_above_level():
    m = (2, 2, 2)
    ctx = wreath_context(m, 0)
    index = WreathIndex(2, 1, m)
    a = ctx.adjacency[index.flat]
    top = ctx.spheres[WreathIndex(3, 1, m).flat]
    block = [[a[y, z] for z in top] for y in top]
    assert any(not v.is_zero() for row in block for v in row)


def test_block_form_rejects_identity_class():
    ctx = wreath_context([2, 3], 0)
    with pytest.raises(ValueError):
        check_block_form(ctx, WreathIndex(0, 0, (2, 3)))


def test_commutation():
    for m in [(2, 3), (2, 2, 2)]:
        result = check_commutation(wreath_context(m, 0))
        assert result.passed, result.witness


def test_commutation_specific_identity():
    m = (2, 3)
    ctx = wreath_context(m, 0)
    e = ctx.dual_idempotents[2]
    a = ctx.adjacency[1]
    assert e * a == a * e


def test_idempotent_family_sizes():
    assert build_central_idempotents(wreath_context([2], 0)).count == 0
    assert build_central_idempotents(wreath_context([2, 2], 0)).count == 1
    assert build_central_idempotents(wreath_context([2, 3], 0)).count == 2
    assert build_central_idempotents(wreath_context([2, 2, 2], 0)).count == 3


def test_idempotent_matrix_for_two_two():
    ctx = wreath_context([2, 2], 0)
    fam = build_central_idempotents(ctx)
    ((key, mat),) = fam.matrices.items()
    half = Fraction(1, 2)
    expected = ExactMatrix.from_rows(
        [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, half, -half],
            [0, 0, -half, half],
        ]
    )
    assert mat == expected
    assert mat * mat == mat
    assert mat.trace() == rational(1)


def test_idempotent_eigenvalue_table():
    m = (2, 3)
    ctx = wreath_context(m, 0)
    fam = build_central_idempotents(ctx)
    a1 = ctx.adjacency[1]  # level-1 class
    eps = zeta(2, 1)
    for (ka, khx), mat in fam.matrices.items():
        assert khx == 1
        assert a1 * mat == mat.scaled(eps)  # eigenvalue -1 = eps^(-1*1) * n
        assert mat * a1 == mat.scaled(eps)
    a2 = ctx.adjacency[2]  # level equal to the member's own class level
    for _, mat in fam.matrices.items():
        assert (a2 * mat).is_zero()


def test_idempotent_property_battery():
    for m in [(2, 2), (2, 3), (2, 2, 2)]:
        ctx = wreath_context(m, 0)
        fam = build_central_idempotents(ctx)
        result = check_central_idempotents(ctx, fam, build_matrix_units(ctx))
        assert result.passed, result.witness


def test_idempotents_annihilate_units():
    ctx = wreath_context([2, 3], 0)
    fam = build_central_idempotents(ctx)
    units = build_matrix_units(ctx)
    for _, f in fam.matrices.items():
        for g in unit_matrices(units).values():
            assert (f * g).is_zero()
            assert (g * f).is_zero()


def test_decomposition_report_two_two():
    report = decomposition_report([2, 2])
    assert report.passed
    assert report.dim_T == 10
    assert report.dim_formula == 10
    assert report.matrix_block == 3
    assert report.one_dim_count == 1
    assert report.base_points == [0, 1, 2, 3]
    names = [c.name for c in report.checks]
    assert "span-accounting" in names and "quotient-commutes" in names


def test_decomposition_report_single_factor():
    report = decomposition_report([3])
    assert report.passed
    assert report.dim_T == 9
    assert report.one_dim_count == 0


def test_decomposition_report_three_three():
    report = decomposition_report([3, 3], base_points=[0])
    assert report.passed
    assert report.dim_T == 29
    assert report.matrix_block == 5
    assert report.one_dim_count == 4


def test_decomposition_report_subset_of_base_points():
    report = decomposition_report([2, 3], base_points=[0, 3])
    assert report.passed
    assert report.dim_T == 18
    assert report.base_points == [0, 3]
    with pytest.raises(ValueError):
        decomposition_report([2, 3], base_points=[])


def test_decomposition_report_to_dict():
    data = decomposition_report([2], base_points=[0]).to_dict()
    assert data["dim_T"] == 4
    assert data["moduli"] == [2]
    assert all(c["status"] == "pass" for c in data["checks"])


def test_certified_run_is_the_run_at_zero():
    # Under a passed translation certificate every result, its checked count
    # included, is that of x = 0, where the sweep starts at 0 alone, as it
    # does for an explicit list; the verdicts and witnesses are those of
    # every point.
    m = (2, 3)
    scheme = wreath_of_cyclics(m)
    names = [*POINT_CHECKS, "decomposition"]
    certified, seen, seconds = run_point_checks(scheme, m, None, names)
    assert list(certified)[-1] == "translation-certificate" and "translation-certificate" in seconds
    assert certified.pop("translation-certificate") == CheckResult(
        "translation-certificate", True, None, len(m) * 6 ** 2
    )
    at_zero, _, _ = run_point_checks(scheme, m, [0], names)
    every, _, _ = run_point_checks(scheme, m, range(6), names)
    assert certified["triply-regular"].checked == 6 ** 2
    assert certified == at_zero
    assert {name: (r.passed, r.witness) for name, r in certified.items()} == {
        name: (r.passed, r.witness) for name, r in every.items()
    }
    assert seen["decomposition"].base_points == list(range(6))


def _vertex_swapped_table():
    """The (2,3) wreath table with vertices 1 and 2 swapped: a scheme with the
    same algebra at every point, but not in the vertex encoding."""
    t = wreath_of_cyclics((2, 3)).table
    perm = [0, 2, 1, 3, 4, 5]
    return Scheme([[t[perm[y]][perm[z]] for z in range(6)] for y in range(6)])


def test_failed_certificate_runs_every_point():
    # A translation that does not keep the table fails the certificate with
    # its witness; the runner then computes every point, with the full
    # sweep, exactly as for the explicit list of every vertex.
    m = (2, 3)
    scheme = _vertex_swapped_table()
    names = [*structure.SCHEME_CHECKS, *POINT_CHECKS, "decomposition"]
    run, seen, _ = run_point_checks(scheme, m, None, names)
    every, _, _ = run_point_checks(scheme, m, range(6), names)
    assert list(run)[-1] == "translation-certificate"
    certificate = run.pop("translation-certificate")
    assert not certificate.passed
    assert certificate.witness == (
        "sigma_1 (+1 on digit 1 mod 2) maps (0,1) in class 2 to (1,0) in class 3"
    )
    assert run == every
    assert run["triply-regular"].checked == 6 ** 3
    assert all(result.passed for result in run.values())
    assert seen["decomposition"].base_points == list(range(6))


@pytest.mark.parametrize("moduli", moduli_up_to(12), ids=str)
def test_explicit_list_sweeps_from_zero(moduli):
    # One explicit point: the certificate is computed, unreported and timed
    # under triply-regular, and the sweep from x = 0 gives the full sweep's
    # verdict and witness in n^2 tuples.
    scheme = wreath_of_cyclics(moduli)
    n = scheme.order
    run, seen, seconds = run_point_checks(scheme, moduli, [n - 1], ["triply-regular"])
    full = check_triply_regular(scheme)
    assert list(run) == list(seconds) == ["triply-regular"]
    assert seen["translation-certificate"].passed
    assert (run["triply-regular"].passed, run["triply-regular"].witness) == (
        full.passed,
        full.witness,
    )
    assert run["triply-regular"].checked == n ** 2


def test_explicit_list_fails_with_the_full_sweeps_witness():
    # The Shrikhande table is certified under the (4,4) translations and is
    # not triply regular: the sweep from x = 0 fails at the full sweep's
    # first failing tuple.
    shrikhande = example_schemes()["shrikhande"]
    assert check_translation_certificate(shrikhande, (4, 4)).passed
    run, _, _ = run_point_checks(shrikhande, (4, 4), [5, 9], ["triply-regular"])
    assert run == {"triply-regular": check_triply_regular(shrikhande)}
    assert run["triply-regular"].witness == (
        "classes (1, 1, 1) over pair pattern (1, 1, 2): count 0 at (0, 1, 3) but 1 at (0, 1, 4)"
    )
    assert run["triply-regular"].checked == 21


def test_explicit_list_with_a_failed_certificate_sweeps_every_vertex():
    m = (2, 3)
    scheme = _vertex_swapped_table()
    names = [*POINT_CHECKS, "decomposition"]
    run, seen, seconds = run_point_checks(scheme, m, [0, 4], names)
    assert not seen["translation-certificate"].passed
    assert list(run) == names and "translation-certificate" not in seconds
    assert run["triply-regular"] == CheckResult("triply-regular", True, None, 6 ** 3)


@pytest.mark.parametrize("moduli", [(2, 2), (6, 1)], ids=str)
def test_explicit_list_without_a_vertex_encoding_sweeps_every_vertex(moduli):
    # Moduli that give the table no vertex encoding raise nothing: the
    # certificate is not formed, and the sweep visits every x.
    scheme = wreath_of_cyclics((2, 3))
    run, seen, _ = run_point_checks(scheme, moduli, [1], ["triply-regular"])
    assert seen["translation-certificate"] is None
    assert run["triply-regular"] == CheckResult("triply-regular", True, None, 6 ** 3)


# -- negative controls through the per-point registry -------------------------------


def _point(moduli, x, seen=None):
    """A fresh base point of the wreath scheme with these moduli."""
    return BasePoint(wreath_of_cyclics(moduli), tuple(moduli), x, {} if seen is None else seen)


def _assert_fails(point, name):
    result = point.result(name)
    assert not result.passed
    assert result.witness.startswith(f"x={point.x}: ")
    return result


def test_registry_passes_on_an_intact_point():
    point = _point((2, 2), 1)
    for name in DECOMPOSITION:
        result = point.result(name)
        assert result.passed, (name, result.witness)


def test_unit_rank_fails_without_one_unit():
    # the build's G_12 is zero, so the point has no unit family
    result = _assert_fails(EDITED_POINTS["popped-unit-12"](), "unit-rank")
    assert result.witness == "x=0: G[1,2] does not match the closed form u_1 u_2^T / n_2"


def test_unit_ideal_fails_with_a_non_unit_in_the_family():
    # the build's G_00 is four times the unit, so the point has no unit family
    point = EDITED_POINTS["non-unit-00"]()
    for name in ("unit-rank", "unit-ideal"):
        result = _assert_fails(point, name)
        assert result.witness == "x=0: G[0,0] does not match the closed form u_0 u_0^T / n_0"


def test_quotient_commutes_fails_on_a_smaller_unit_span():
    # the build's G_01 is zero, so the point has no unit family
    result = _assert_fails(EDITED_POINTS["popped-unit-01"](), "quotient-commutes")
    assert result.witness == "x=0: G[0,1] does not match the closed form u_0 u_1^T / n_1"


def test_span_accounting_fails_without_the_idempotents():
    point = _point((2, 2), 0)
    point.idempotents = CentralIdempotentFamily((2, 2), 0)
    result = _assert_fails(point, "span-accounting")
    assert "rank(units+idempotents) = 9" in result.witness


@pytest.mark.parametrize("unit", [(0, 0), (3, 0)], ids=["off-rows", "off-columns"])
def test_span_accounting_fails_on_a_member_spread_over_two_blocks(unit):
    # F[3,1] lies in block (3,3); adding a unit spreads it over a second
    # block, in other rows or in other columns of the same rows
    point = _point((2, 3), 0)
    family = build_central_idempotents(point.ctx)
    family.matrices[3, 1] = family.matrices[3, 1] + point.units.matrix(*unit)
    point.idempotents = family
    result = _assert_fails(point, "span-accounting")
    assert result.witness == "x=0: idempotent F[3,1] is nonzero off the block (3,3)"


def test_span_accounting_fails_on_a_closure_the_families_do_not_span():
    # A closure of the right dimension, but with [1, 0] in place of the
    # all-ones row of block (0,2), which the unit G[0,2] spans
    point = _point((2, 2), 0)
    closure = dict(point.closure)
    closure[0, 2] = ExactSpan.from_matrices([ExactMatrix.from_rows([[1, 0]])])
    point.closure = closure
    result = _assert_fails(point, "span-accounting")
    assert result.witness == (
        "x=0: rank(units+idempotents) = 10, with closure 11; expected 10 and 10"
    )


def test_dimension_fails_off_the_formula():
    point = _point((2, 2), 0)
    point.dim = 11
    result = _assert_fails(point, "dimension")
    assert result.witness == "x=0: oracle dimension 11, formula 10"


def test_dimension_fails_when_it_differs_from_the_first_point():
    # the formula holds here, but the first point of the run saw another value
    point = _point((2, 2), 3, {"dims": [9]})
    _assert_fails(point, "dimension")
    assert point.seen == {"dims": [9, 10]}


def test_unit_build_failure_skips_the_rest_of_the_point(monkeypatch):
    original = structure.build_matrix_units

    def failing(ctx):
        if ctx.base_point == 2:
            raise StructureError(f"unit (0,0) at x={ctx.base_point} is not supported on its block")
        return original(ctx)

    monkeypatch.setattr(structure, "build_matrix_units", failing)
    report = decomposition_report([2, 2])
    by_name = {c.name: c for c in report.checks}
    assert not report.passed
    assert report.dim_T == 10
    assert [c.name for c in report.checks] == list(DECOMPOSITION)
    support = by_name["unit-support"]
    assert not support.passed
    assert support.witness == "unit (0,0) at x=2 is not supported on its block"
    # unit-support counts its units at the three good points and 1 at x=2
    assert support.checked == 3 * 9 + 1
    # the other sub-checks ran at the three good points only
    assert all(by_name[name].passed for name in DECOMPOSITION if name != "unit-support")
    assert by_name["unit-rank"].checked == 3
    assert report.as_check().witness == support.witness


def _perturbed(matrix, y, z, delta):
    """``matrix`` with ``delta`` added to its (y, z) entry, rebuilt through
    the public constructor from its decoded entries."""
    data = matrix.data
    data[y][z] = data[y][z] + delta
    return ExactMatrix(matrix.rows, matrix.cols, data)


def test_matrix_unit_law_fails_on_a_perturbed_unit():
    result = _assert_fails(EDITED_POINTS["perturbed-unit-12"](), "matrix-units")
    assert "G[1,2]" in result.witness


def test_adjacency_action_fails_on_a_perturbed_unit():
    result = _assert_fails(EDITED_POINTS["perturbed-unit-23"](), "ag-forms")
    assert result.witness == "x=2: G[2,3] does not match the closed form u_2 u_3^T / n_3"


def test_f_family_fails_on_the_wrong_character():
    # (3, 2): the two members of a level-2 class differ in the character of
    # Z/3 they weight the level-1 adjacency matrices with, so giving one of
    # them the other's character breaks its eigenvalues in Q(zeta_3)
    point = _point((3, 2), 0)
    family = point.idempotents
    keys = sorted(family.matrices)
    (a1, h1), (a2, h2) = keys[0], keys[1]
    assert a1 == a2 and h1 != h2
    assert not all(v.is_rational() for v in family.matrices[keys[1]].flat())
    matrices = dict(family.matrices)
    matrices[keys[0]] = matrices[keys[1]]
    point.idempotents = CentralIdempotentFamily(family.moduli, family.base_point, matrices)
    result = _assert_fails(point, "f-family")
    assert "wrong eigenvalue" in result.witness


def test_commutation_fails_on_a_perturbed_dual_idempotent():
    point = _point((2, 3), 1)
    duals = point.ctx.dual_idempotents
    y = point.ctx.spheres[2][0]
    duals[2] = _perturbed(duals[2], y, point.ctx.spheres[3][0], rational(1))
    result = _assert_fails(point, "commutation")
    assert "E[" in result.witness


# -- a (2,3) table whose class labels no longer match the wreath indices ----------------


def _swapped_table():
    """The (2,3) wreath table with the labels of classes 1 and 2 swapped.

    It is still an association scheme, so its intersection numbers are
    defined, but class 1 is now the non-symmetric level-2 class and class 2
    the symmetric level-1 class: every check that reads a label as a wreath
    index must fail on it.
    """
    swap = {1: 2, 2: 1}
    scheme = Scheme([[swap.get(c, c) for c in row] for row in wreath_of_cyclics((2, 3)).table])
    assert scheme.verify_axioms().passed
    return scheme


def test_block_form_fails_on_swapped_labels():
    result = BasePoint(_swapped_table(), (2, 3), 0, {}).result("block-form")
    assert not result.passed
    assert result.witness == (
        "x=0, A[WreathIndex(1,1)]: block (WreathIndex(1,1),WreathIndex(0,0)) is zero, "
        "expected all-ones"
    )


def test_triple_list_fails_on_swapped_labels():
    result = BasePoint(_swapped_table(), (2, 3), 0, {}).result("triple-list")
    assert not result.passed
    assert result.witness == (
        "x=0, classes (WreathIndex(1,1),WreathIndex(1,1),WreathIndex(0,0)): "
        "predicted nonzero, product is zero"
    )


def test_vanishing_fails_on_swapped_labels(monkeypatch):
    swapped = _swapped_table()
    monkeypatch.setattr(wreath, "wreath_of_cyclics", lambda moduli: swapped)
    result = check_vanishing_criterion((2, 3))
    assert not result.passed
    assert result.witness == (
        "classes (WreathIndex(1,1),WreathIndex(1,1),WreathIndex(0,0)): "
        "predicted nonzero but count is 0"
    )
    monkeypatch.undo()
    assert check_vanishing_criterion((2, 3)).passed


def test_block_form_fails_on_a_partly_filled_all_ones_block():
    # At x=0 the block of A[(2,1)] over the spheres (1,1) and (2,1) must be
    # all ones; one entry moved to class 3 leaves it nonzero but not full.
    intact = wreath_of_cyclics((2, 3))
    table = [list(row) for row in intact.table]
    assert table[1][2] == 2
    table[1][2] = 3
    result = BasePoint(Scheme(table, classes=intact.classes), (2, 3), 0, {}).result("block-form")
    assert not result.passed
    assert result.witness == (
        "x=0, A[WreathIndex(2,1)]: block (WreathIndex(1,1),WreathIndex(2,1)) is nonzero, "
        "expected all-ones"
    )


# -- the factored unit checks against their product references ---------------------------

# Each factored unit check of the registry, with the n x n product loop or
# echelon it replaced, kept in tests/reference.py.
REFERENCE_CHECKS = {
    "matrix-units": lambda point: matrix_units_by_products(point.units),
    "ag-forms": lambda point: adjacency_action_by_products(point.ctx, point.units),
    "unit-ideal": unit_ideal_by_membership,
    "quotient-commutes": quotient_commutes_by_membership,
    "f-family": lambda point: central_idempotents_by_products(
        point.ctx, point.idempotents, point.units
    ),
    "unit-rank": unit_rank_by_echelon,
}


def _assert_agrees_with_reference(point):
    """Each factored unit check gives the reference's verdict, witness and
    ``checked`` at ``point``.  Where the build refuses the unit family, the
    references have no family to read, and every check fails with the
    build's witness."""
    try:
        point.units
    except StructureError as exc:
        for name in REFERENCE_CHECKS:
            assert point.result(name) == CheckResult(name, False, str(exc)), name
        return
    for name, reference in REFERENCE_CHECKS.items():
        assert point.result(name) == reference(point), name


@pytest.mark.parametrize("moduli", moduli_up_to(12), ids=str)
def test_factored_unit_checks_match_the_products_up_to_order_12(moduli):
    n = math.prod(moduli)
    for x in sorted({0, n - 1}):
        point = _point(moduli, x)
        _assert_agrees_with_reference(point)
        assert all(point.result(name).passed for name in REFERENCE_CHECKS)


def test_factored_unit_checks_match_the_products_at_every_point_of_2_3_4():
    for x in range(24):
        _assert_agrees_with_reference(_point((2, 3, 4), x))


def _perturbed_generator(point):
    # A_1 at x=0 of (2,2) plus one entry in the sphere S_2 = {2, 3}: A_1 u_0
    # is then no longer constant on S_2
    generators = list(point.generators)
    generators[1] = _perturbed(generators[1], 2, 0, rational(1))
    point.generators = generators


def _perturbed_adjacency(point):
    # A[(2,1)] of (2,3) at x=1, plus one entry in a block where it is zero,
    # once the units are built
    assert point.units
    h = WreathIndex(2, 1, point.moduli).flat
    y, z = point.ctx.spheres[1][0], point.ctx.spheres[3][0]
    assert point.ctx.adjacency[h][y, z] == rational(0)
    point.ctx.adjacency[h] = _perturbed(point.ctx.adjacency[h], y, z, rational(1))


def _units_of_another_point(point):
    # a unit family built at x=2, so on the spheres of x=2
    other = build_matrix_units(wreath_context(point.moduli, 2))
    point._units = dataclasses.replace(other, base_point=point.x)


def _edited_point(moduli, x, change):
    def make():
        point = _point(moduli, x)
        change(point)
        return point

    return make


def _wrong_character(point):
    family = point.idempotents
    keys = sorted(family.matrices)
    matrices = dict(family.matrices)
    matrices[keys[0]] = matrices[keys[1]]
    point.idempotents = CentralIdempotentFamily(family.moduli, family.base_point, matrices)


def _idempotent_off_block(transposed):
    """F[3,1] plus v e_x^T, where v = F e_c is a column of F and x the base
    point, or, ``transposed``, plus e_x w^T with w^T = e_c^T F: still
    idempotent, since F v = v, w^T F = w^T and v_x = w_x = 0, and acted on
    by A_0 = I as it should, but its column, or its row, x lies in S_0
    while its rows, or its columns, stay in S_3."""

    def change(point):
        family = point.idempotents
        mat = family.matrices[3, 1].transpose() if transposed else family.matrices[3, 1]
        data = mat.data
        c = point.ctx.spheres[3][0]
        for row in data:
            row[point.x] = row[c]
        mat = ExactMatrix(mat.rows, mat.cols, data)
        family.matrices[3, 1] = mat.transpose() if transposed else mat

    return change


def _shrunk_sphere(point):
    # once the units and idempotents are built, the last vertex y of S_3
    # leaves the sphere and E_3, while F[3,1] keeps its row and column y
    assert point.units and point.idempotents.count
    y = point.ctx.spheres[3].pop()
    point.ctx.dual_idempotents[3] = _perturbed(point.ctx.dual_idempotents[3], y, y, rational(-1))


def _spread_idempotent(unit):
    def change(point):
        family = build_central_idempotents(point.ctx)
        family.matrices[3, 1] = family.matrices[3, 1] + point.units.matrix(*unit)
        point.idempotents = family

    return change


def _perturbed_input(matrices, label, cells, delta):
    """Add ``delta`` to the entries ``cells`` of the build input
    ``matrices[label]`` (an adjacency matrix or a dual idempotent of the
    point's context), before the units are built."""

    def change(point):
        mat = getattr(point.ctx, matrices)[label]
        for y, z in cells(point.ctx.spheres):
            mat = _perturbed(mat, y, z, delta)
        getattr(point.ctx, matrices)[label] = mat

    return change


def _block(a, b):
    """Every cell of the sphere block (a, b)."""
    return lambda spheres: [(y, z) for y in spheres[a] for z in spheres[b]]


def _first_cell(a, b):
    """The first cell of the sphere block (a, b)."""
    return lambda spheres: [(spheres[a][0], spheres[b][0])]


# The edited points of the negative controls in this file, by name.  The
# units are G_ab = E_a A_b E_b / n_b below the diagonal of levels, and
# E_a J E_b / n_b on equal levels, J the all-ones matrix.  Each unit edit
# changes a build input inside block (a, b), so that the build's G_ab
# differs from its closed form first, in key order, at (a, b): the build
# then refuses the family.  At (2,2) the classes are 0, 1 and 2, of levels
# 0, 1 and 2; at (2,3) they are 0, 1, 2 and 3, of levels 0, 1, 2 and 2.
EDITED_POINTS = {
    # -A_b on block (a, b) makes the built G_ab zero
    "popped-unit-12": _edited_point((2, 2), 0, _perturbed_input(
        "adjacency", 2, _block(1, 2), rational(-1))),
    "popped-unit-01": _edited_point((2, 2), 0, _perturbed_input(
        "adjacency", 1, _block(0, 1), rational(-1))),
    # E_0 doubled: the built G_00 is four times the unit
    "non-unit-00": _edited_point((2, 2), 0, _perturbed_input(
        "dual_idempotents", 0, _block(0, 0), rational(1))),
    "perturbed-unit-12": _edited_point((2, 2), 0, _perturbed_input(
        "adjacency", 2, _first_cell(1, 2), rational(Fraction(1, 3)))),
    # an entry of E_3 in block (2, 3) adds to E_2 J E_3 alone
    "perturbed-unit-23": _edited_point((2, 3), 2, _perturbed_input(
        "dual_idempotents", 3, _first_cell(2, 3), rational(1))),
    "wrong-character": _edited_point((3, 2), 0, _wrong_character),
    "spread-idempotent-off-rows": _edited_point((2, 3), 0, _spread_idempotent((0, 0))),
    "spread-idempotent-off-columns": _edited_point((2, 3), 0, _spread_idempotent((3, 0))),
    "perturbed-generator": _edited_point((2, 2), 0, _perturbed_generator),
    "perturbed-adjacency": _edited_point((2, 3), 1, _perturbed_adjacency),
    "units-of-another-point": _edited_point((2, 3), 0, _units_of_another_point),
    "idempotent-column-off-block": _edited_point((2, 3), 0, _idempotent_off_block(False)),
    "idempotent-row-off-block": _edited_point((2, 3), 0, _idempotent_off_block(True)),
    "shrunk-sphere": _edited_point((2, 3), 0, _shrunk_sphere),
}


@pytest.mark.parametrize("name", EDITED_POINTS)
def test_factored_unit_checks_match_the_products_on_edited_points(name):
    _assert_agrees_with_reference(EDITED_POINTS[name]())


def test_unit_ideal_and_quotient_fail_past_the_certificate_on_a_perturbed_generator():
    point = EDITED_POINTS["perturbed-generator"]()
    assert point.result("matrix-units").passed
    assert point.result("unit-rank").passed
    _assert_fails(point, "unit-ideal")
    _assert_fails(point, "quotient-commutes")


def test_ag_forms_fail_past_the_certificate_on_an_off_block_adjacency_entry():
    point = EDITED_POINTS["perturbed-adjacency"]()
    assert point.result("matrix-units").passed
    result = _assert_fails(point, "ag-forms")
    # the entry sits in row S_1 and column S_3, so w_1^T A breaks first
    assert result.witness == (
        "x=1: G[WreathIndex(0,0),WreathIndex(1,1)] * A[WreathIndex(2,1)] "
        "does not match the closed form"
    )


def test_annihilation_fails_past_the_certificate_on_the_units_of_another_point():
    # The units of x=2 keep the product law and the closed forms, which
    # hold at every point, but the idempotents of x=0 do not annihilate them
    point = EDITED_POINTS["units-of-another-point"]()
    for name in ("matrix-units", "ag-forms", "unit-rank"):
        assert point.result(name).passed, name
    _assert_fails(point, "unit-ideal")
    result = _assert_fails(point, "f-family")
    assert "does not annihilate unit" in result.witness


def test_f_family_reads_the_dual_idempotent_products_off_the_member():
    # E_j F and F E_j are read off the member's nonzero rows and columns:
    # for j != a a column in S_j fails, and for j == a a row or column
    # outside S_a
    for name in ("idempotent-column-off-block", "idempotent-row-off-block"):
        result = _assert_fails(EDITED_POINTS[name](), "f-family")
        assert result.witness == (
            "x=0: E[WreathIndex(0,0)] does not commute with member "
            "(WreathIndex(2,2),WreathIndex(1,1))"
        )
    result = _assert_fails(EDITED_POINTS["shrunk-sphere"](), "f-family")
    assert result.witness == (
        "x=0: E[WreathIndex(2,2)] does not commute with member (WreathIndex(2,2),WreathIndex(1,1))"
    )


def test_certificate_witness_names_the_unit_off_its_form():
    point = EDITED_POINTS["perturbed-unit-12"]()
    for name in ("unit-support", *REFERENCE_CHECKS):
        result = _assert_fails(point, name)
        assert result.witness == "x=0: G[1,2] does not match the closed form u_1 u_2^T / n_2"
    result = _assert_fails(EDITED_POINTS["popped-unit-01"](), "matrix-units")
    assert result.witness == "x=0: G[0,1] does not match the closed form u_0 u_1^T / n_1"


def test_matrix_unit_law_fails_on_overlapping_spheres():
    # The spheres of x=0 of (2,2), with S_1 = {1} replaced by S_2 = {2, 3}:
    # G_11 G_22 = G_12 would not be zero, so there is no such family
    units = _point((2, 2), 0).units
    spheres = (units.spheres[0], units.spheres[2], units.spheres[2])
    with pytest.raises(StructureError, match=r"^x=0: G\[1,1\]G\[2,2\] is not zero$"):
        dataclasses.replace(units, spheres=spheres)
    with pytest.raises(StructureError, match=r"^x=0: sphere S_1 is empty$"):
        dataclasses.replace(units, spheres=(units.spheres[0], (), units.spheres[2]))


def test_unit_checks_form_no_product_of_two_n_by_n_matrices(monkeypatch):
    # At (2,3)@0, matrix-units, ag-forms and unit-ideal read only the
    # k = 4 sphere indicators, and f-family forms only the products of its
    # own battery: per member, F F, A F and F A for each of the 4 adjacency
    # matrices, and F F' with the other member.  E F and F E, for each of
    # the 4 dual idempotents, and the annihilation of the 16 units form none.
    point = _point((2, 3), 0)
    assert point.units and point.generators and point.idempotents.count == 2
    n = point.scheme.order
    counts = {}
    name = None
    product = ExactMatrix.__mul__

    def counted(a, b):
        if (a.rows, a.cols, b.rows, b.cols) == (n, n, n, n):
            counts[name] = counts.get(name, 0) + 1
        return product(a, b)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted)
    for name in ("matrix-units", "ag-forms", "unit-ideal", "f-family"):
        assert point.result(name).passed, name
    assert counts == {"f-family": 2 * (1 + 2 * 4 + 1)}


def test_full_decomposition_compares_each_unit_once(monkeypatch):
    # The build compares each of the k^2 = 16 units of (2,3)@0 with its
    # closed form once, and no check forms a unit again.
    calls = []
    block_ones = ExactMatrix.block_ones

    def counted(*args):
        calls.append(args)
        return block_ones(*args)

    monkeypatch.setattr(ExactMatrix, "block_ones", staticmethod(counted))
    assert decomposition_report((2, 3), base_points=[0]).passed
    assert len(calls) == 16
