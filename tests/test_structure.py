import math
from fractions import Fraction

import pytest

from wreathalg import (
    AxiomViolation,
    CentralIdempotentFamily,
    CheckResult,
    DecompReport,
    ExactMatrix,
    MatrixUnitFamily,
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
    matrix_block_size,
    one_dim_ideal_count,
    rational,
    wreath_of_cyclics,
    zeta,
)
from wreathalg import decomposition, structure
from wreathalg.linalg import ExactSpan
from wreathalg.structure import DECOMPOSITION, POINT_CHECKS, BasePoint, run_point_checks

from reference import (
    REFERENCES,
    CycloMatrix,
    MemberMatrices,
    ReferencePoint,
    closed_form_members,
    embedded,
    example_schemes,
    idempotents_by_products,
    make_context,
    moduli_up_to,
    relabelled,
    trace,
    unit_matrices,
    unit_matrix,
    wreath_context,
    wreath_point,
)


def test_formula_helpers():
    assert matrix_block_size([2, 3]) == 4
    assert one_dim_ideal_count([2, 3]) == 2
    assert dimension_formula([2, 3]) == 18
    assert dimension_formula([2]) == 4
    assert dimension_formula([3, 3]) == 29
    assert one_dim_ideal_count([2, 2, 2]) == 3


def test_unit_family_small_entries():
    units = build_matrix_units(wreath_point([2, 2], 0))
    g = unit_matrix(units, 1, 2)  # level 1 row, level 2 column
    half = rational(Fraction(1, 2))
    assert g[1, 2] == half and g[1, 3] == half
    assert sum(1 for v in g.flat() if v) == 2
    g00 = unit_matrix(units, 0, 0)
    assert g00[0, 0] == rational(1)
    assert sum(1 for v in g00.flat() if v) == 1


def test_unit_family_rank():
    units = build_matrix_units(wreath_point([2, 2], 0))
    span = ExactSpan.from_matrices(unit_matrices(units).values())
    assert span.dimension == 9


def test_unit_support_violation_detected():
    # wrong scheme for the claimed moduli: the piece (1, 2, 2) is absent
    point = BasePoint(cyclic_scheme(4), (2, 2), 0, {})
    with pytest.raises(StructureError, match=r"^x=0: G\[1,2\] does not match"):
        build_matrix_units(point)


def test_matrix_unit_law():
    for m in [(2, 2), (2, 3)]:
        units = build_matrix_units(wreath_point(m, 0))
        result = check_matrix_units(units)
        assert result.passed, result.witness
        assert result.checked == units.count ** 2


def test_matrix_unit_law_specific_products():
    units = build_matrix_units(wreath_point([2, 3], 0))
    assert unit_matrix(units, 0, 2) * unit_matrix(units, 2, 3) == unit_matrix(units, 0, 3)
    assert (unit_matrix(units, 0, 2) * unit_matrix(units, 3, 1)).is_zero()


def test_adjacency_action_closed_forms():
    for m in [(2, 2), (2, 3)]:
        point = wreath_point(m, 0)
        result = check_adjacency_action(point, build_matrix_units(point))
        assert result.passed, result.witness


def test_adjacency_action_collapses_to_level_zero():
    point = wreath_point([2, 2], 0)
    units = build_matrix_units(point)
    # acting by the level-1 class on a level-1 row lands on the level-0 row
    assert point.scheme.adjacency_matrix(1) * unit_matrix(units, 1, 0) == unit_matrix(units, 0, 0)
    # acting by a higher level reflects its offset
    assert point.scheme.adjacency_matrix(2) * unit_matrix(units, 1, 0) == unit_matrix(units, 2, 0)


def test_block_form():
    from wreathalg import class_indices

    for m in [(2, 3), (2, 2, 2)]:
        point = wreath_point(m, 0)
        for index in class_indices(m):
            if index.level == 0:
                continue
            result = check_block_form(point, index)
            assert result.passed, result.witness


def test_block_form_specific_blocks():
    m = (2, 3)
    point = wreath_point(m, 0)
    a = point.scheme.adjacency_matrix(WreathIndex(2, 1, m).flat)
    # rows of lower levels meet only the (2,1) column, as all-ones blocks
    assert a[0, 2] == rational(1) and a[0, 3] == rational(1)
    assert a[0, 1] == rational(0) and a[0, 4] == rational(0)
    # the wrap-around row (offset 2, since 2+1=0 mod 3) covers the low columns
    wrap = point.spheres[WreathIndex(2, 2, m).flat]
    low = point.spheres[0] + point.spheres[1]
    assert all(a[y, z] for y in wrap for z in low)


def test_block_form_diagonal_blocks_above_level():
    m = (2, 2, 2)
    point = wreath_point(m, 0)
    index = WreathIndex(2, 1, m)
    a = point.scheme.adjacency_matrix(index.flat)
    top = point.spheres[WreathIndex(3, 1, m).flat]
    block = [[a[y, z] for z in top] for y in top]
    assert any(v for row in block for v in row)


def test_block_form_rejects_identity_class():
    with pytest.raises(ValueError):
        check_block_form(wreath_point([2, 3], 0), WreathIndex(0, 0, (2, 3)))


def test_commutation():
    for m in [(2, 3), (2, 2, 2)]:
        result = check_commutation(wreath_point(m, 0))
        assert result.passed, result.witness


def test_commutation_specific_identity():
    # the n x n identity that commutation reads off the pieces
    m = (2, 3)
    ctx = wreath_context(m, 0)
    e = ctx.dual_idempotents[2]
    a = ctx.adjacency[1]
    assert e * a == a * e
    assert not any(i != h and j == 1 and 2 in (i, h) for i, j, h in wreath_point(m, 0).pieces)


def test_idempotent_family_sizes():
    assert build_central_idempotents(wreath_point([2], 0)).count == 0
    assert build_central_idempotents(wreath_point([2, 2], 0)).count == 1
    assert build_central_idempotents(wreath_point([2, 3], 0)).count == 2
    assert build_central_idempotents(wreath_point([2, 2, 2], 0)).count == 3


def test_idempotent_matrix_for_two_two():
    point = wreath_point([2, 2], 0)
    fam = build_central_idempotents(point)
    ((key, mat),) = closed_form_members(fam).items()
    half = Fraction(1, 2)
    # the member is its block on S_2 = {2, 3}
    assert mat == ExactMatrix.from_rows([[half, -half], [-half, half]])
    expected = ExactMatrix.from_rows(
        [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, half, -half],
            [0, 0, -half, half],
        ]
    )
    assert embedded(mat, point.spheres[2], point.spheres[2], 4) == expected
    assert mat * mat == mat
    assert trace(mat) == rational(1)


def test_idempotent_eigenvalue_table():
    m = (2, 3)
    point = wreath_point(m, 0)
    fam = build_central_idempotents(point)
    members = {key: embedded(mat, fam.spheres[key[0]], fam.spheres[key[0]], 6)
               for key, mat in closed_form_members(fam).items()}
    a1 = point.scheme.adjacency_matrix(1)  # level-1 class
    eps = zeta(2, 1)
    for (ka, khx), mat in members.items():
        assert khx == 1
        assert a1 * mat == mat.scaled(eps)  # eigenvalue -1 = eps^(-1*1) * n
        assert mat * a1 == mat.scaled(eps)
    a2 = point.scheme.adjacency_matrix(2)  # level equal to the member's own class level
    for _, mat in members.items():
        assert (a2 * mat).is_zero()


def test_idempotent_property_battery():
    for m in [(2, 2), (2, 3), (2, 2, 2)]:
        point = wreath_point(m, 0)
        result = check_central_idempotents(point, build_matrix_units(point))
        assert result.passed, result.witness


def test_idempotents_annihilate_units():
    point = wreath_point([2, 3], 0)
    fam = build_central_idempotents(point)
    units = build_matrix_units(point)
    for (a, _), mat in closed_form_members(fam).items():
        f = embedded(mat, fam.spheres[a], fam.spheres[a], 6)
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


def test_report_passes_when_every_check_passes():
    # An ingested table has no formula, and a verify run without
    # decomposition has no dim_T: a report whose checks all pass passes.
    scheme = wreath_of_cyclics((2, 3))
    run, seen, _ = run_point_checks(scheme, None, [0], ["axioms", "dimension"])
    ingested = DecompReport(None, 6, scheme.classes, [0], seen["dims"][0], list(run.values()))
    assert (ingested.dim_T, ingested.dim_formula) == (18, None)
    assert ingested.passed and ingested.as_check().passed
    run, _, _ = run_point_checks(scheme, (2, 3), None, ["axioms", "vanishing"])
    verified = DecompReport((2, 3), 6, scheme.classes, list(range(6)), None, list(run.values()))
    assert verified.dim_T is None and verified.passed
    witness = "x=0: oracle dimension 19, formula 18"
    verified.checks.append(CheckResult("dimension", False, witness, 1))
    assert not verified.passed and verified.as_check().witness == witness


def test_an_empty_point_list_is_refused():
    # no check can pass on no point: the runner refuses the list, in place
    # of a triple-list of None and a decomposition that passes with dim_T None
    scheme = wreath_of_cyclics((2, 3))
    for names in (["triple-list", "decomposition"], ["axioms"]):
        with pytest.raises(ValueError, match="^at least one base point is required$"):
            run_point_checks(scheme, (2, 3), [], names)
    with pytest.raises(ValueError, match="^at least one base point is required$"):
        decomposition_report((2, 3), base_points=[])


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


@pytest.mark.parametrize("moduli", [(2, 2), (3, 3)], ids=str)
def test_explicit_list_without_a_vertex_encoding_sweeps_every_vertex(moduli):
    # Moduli that give the table no vertex encoding raise nothing, under an
    # explicit list or the default one: the certificate is not formed or
    # reported, and the sweep visits every x.
    scheme = wreath_of_cyclics((2, 3))
    for points in ([1], None):
        run, seen, seconds = run_point_checks(scheme, moduli, points, ["triply-regular"])
        assert seen["translation-certificate"] is None and list(seconds) == ["triply-regular"]
        assert run == {"triply-regular": CheckResult("triply-regular", True, None, 6 ** 3)}


@pytest.mark.parametrize("names", [["triply-regular"], ["dimension"], ["axioms", "triply-regular"]],
                         ids=str)
def test_invalid_moduli_are_refused_not_taken_for_no_vertex_encoding(names):
    # (6, 1) has the table's order as its product, but 1 is no modulus: the
    # run refuses it under either list, whichever check reads the moduli
    # first, as it does with the moduli any check is stated for.
    scheme = wreath_of_cyclics((2, 3))
    for points in ([1], None):
        with pytest.raises(ValueError, match="every modulus must be at least 2"):
            run_point_checks(scheme, (6, 1), points, names)


# -- negative controls through the per-point registry -------------------------------


def _point(moduli, x, seen=None):
    """A fresh base point of the wreath scheme with these moduli."""
    return BasePoint(wreath_of_cyclics(moduli), tuple(moduli), x, {} if seen is None else seen)


def _assert_fails(point, name):
    result = point.result(name)
    assert not result.passed
    assert result.witness.startswith(f"x={point.x}: ")
    return result


def _edited(name):
    """The point of the edited point ``name`` and its reference."""
    return EDITED_POINTS[name][0]()


def test_registry_passes_on_an_intact_point():
    point = _point((2, 2), 1)
    for name in DECOMPOSITION:
        result = point.result(name)
        assert result.passed, (name, result.witness)


def test_unit_rank_fails_without_one_unit():
    # the pieces of G_12 and G_13 are gone from row 1, so the point has no
    # unit family
    point, _ = _edited("popped-unit-12")
    result = _assert_fails(point, "unit-rank")
    assert result.witness == "x=0: G[1,2] does not match the closed form u_1 u_2^T / n_2"


def test_unit_ideal_fails_with_a_non_unit_in_the_family():
    # E_0 doubled: the product build's G_00 is four times the unit, so the
    # reference has no unit family.  The point has no E_0 to double: a unit
    # on equal levels is the all-ones block by construction.
    point, reference = _edited("non-unit-00")
    for name in ("unit-rank", "unit-ideal"):
        result = _assert_fails(reference, name)
        assert result.witness == "x=0: G[0,0] does not match the closed form u_0 u_0^T / n_0"
        assert point.result(name).passed


def test_quotient_commutes_fails_on_a_smaller_unit_span():
    # -A_1 on block (0, 1): the product build's G_01 is zero, so the
    # reference has no unit family.  The point's piece (0, 1, 1) is the row
    # of x on S_1, all ones by construction.
    point, reference = _edited("popped-unit-01")
    result = _assert_fails(reference, "quotient-commutes")
    assert result.witness == "x=0: G[0,1] does not match the closed form u_0 u_1^T / n_1"
    assert point.result("quotient-commutes").passed


def test_span_accounting_fails_without_the_idempotents():
    # The point's family is its labels, and its count is set by the type,
    # so the n x n reference carries this control: with no member of (2,2)
    # its rank falls one short
    point = _point((2, 2), 0)
    reference = ReferencePoint(point)
    reference.idempotents = MemberMatrices((2, 2), 0)
    result = _assert_fails(reference, "span-accounting")
    assert "rank(units+idempotents) = 9" in result.witness
    assert point.result("span-accounting").passed


@pytest.mark.parametrize("unit", [(0, 0), (3, 0)], ids=["off-rows", "off-columns"])
def test_span_accounting_fails_on_a_member_spread_over_two_blocks(unit):
    # F[3,1] lies in block (3,3); adding a unit spreads it over a second
    # block, in other rows or in other columns of the same rows.  The point
    # holds each member as its label over its sphere, so the n x n reference
    # carries this control.
    point = _point((2, 3), 0)
    reference = ReferencePoint(point)
    _spread_idempotent(unit)(point, reference)
    result = _assert_fails(reference, "span-accounting")
    assert result.witness == "x=0: idempotent F[3,1] is nonzero off the block (3,3)"
    assert point.result("span-accounting").passed


@pytest.mark.parametrize("moduli", moduli_up_to(12) + [(2, 3, 4)], ids=str)
def test_closure_holds_every_unit_block_and_member(moduli):
    # The certificate span-accounting relies on in place of ranking the
    # closure again: every all-ones block (a, b), which is n_b G_ab, and
    # every built member lies in the point's closure, so the rank of units,
    # idempotents and closure together is the closure's dimension.  The
    # closure is rational, so a member over Q(zeta_p) lies in it over
    # Q(zeta_p) iff each of its planes lies in it over Q.
    for x in range(math.prod(moduli)):
        point = _point(moduli, x)
        spheres = point.units.spheres
        for a, sa in enumerate(spheres):
            for b, sb in enumerate(spheres):
                assert point.closure[a, b].contains(ExactMatrix.ones(len(sa), len(sb))), (x, a, b)
        for (a, hx), member in closed_form_members(point.idempotents).items():
            assert all(point.closure[a, a].contains(plane) for plane in member.planes), (x, a, hx)


def test_span_accounting_builds_no_span(monkeypatch):
    # At (2,3)@0 the rank k^2 + M = 16 + 2 follows from the two families
    # (see _span_accounting): no span is made, inserted into or read
    point = _point((2, 3), 0)
    assert point.units and point.idempotents.count == 2  # built before counting
    calls = {"__init__": 0, "insert": 0, "basis": 0}

    def counted(name):
        method = getattr(ExactSpan, name)

        def call(span, *args):
            calls[name] += 1
            return method(span, *args)

        return call

    for name in calls:
        monkeypatch.setattr(ExactSpan, name, counted(name))
    assert point.result("span-accounting") == CheckResult("span-accounting", True, None, 2)
    assert calls == {"__init__": 0, "insert": 0, "basis": 0}


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
    original = decomposition.build_matrix_units

    def failing(point):
        if point.x == 2:
            raise StructureError(f"unit (0,0) at x={point.x} is not supported on its block")
        return original(point)

    monkeypatch.setattr(decomposition, "build_matrix_units", failing)
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
    point, _ = _edited("perturbed-unit-12")
    result = _assert_fails(point, "matrix-units")
    assert "G[1,2]" in result.witness


def test_adjacency_action_refuses_units_off_the_point_spheres():
    # the intact table's units, read on that table with one class merged
    # into another: the merged class's sphere is empty at every point, so
    # the point's sums are not those of the units, and every point fails
    # before reading them
    for moduli, merge, into in [((2, 2), 1, 2), ((2, 3), 2, 3), ((2, 3), 1, 3)]:
        intact = wreath_of_cyclics(moduli)
        merged = Scheme([[into if c == merge else c for c in row] for row in intact.table],
                        classes=intact.classes)
        for x in range(intact.order):
            point = BasePoint(merged, moduli, x, {})
            assert point.spheres[merge] == []
            result = check_adjacency_action(point, _point(moduli, x).units)
            assert result == CheckResult(
                "ag-forms", False, f"x={x}: the units are not over the spheres of the point")
    # on its own point the same family passes
    point = _point((2, 3), 0)
    assert check_adjacency_action(point, point.units).passed


def test_adjacency_action_fails_on_a_perturbed_unit():
    # an entry of E_3 in block (2, 3) adds to the product build's E_2 J E_3
    # alone; on equal levels the point's unit is the all-ones block by
    # construction
    point, reference = _edited("perturbed-unit-23")
    result = _assert_fails(reference, "ag-forms")
    assert result.witness == "x=2: G[2,3] does not match the closed form u_2 u_3^T / n_3"
    assert point.result("ag-forms").passed


def test_f_family_fails_on_the_wrong_character():
    # (3, 2): the two members of a level-2 class differ in the character of
    # Z/3 they weight the level-1 adjacency matrices with, so giving one of
    # them the other's character breaks its eigenvalues in Q(zeta_3).  The
    # point's members are their labels, so the n x n reference carries this
    # control.
    point, reference = _edited("wrong-character")
    keys = sorted(reference.idempotents.matrices)
    (a1, h1), (a2, h2) = keys[0], keys[1]
    assert a1 == a2 and h1 != h2
    assert not all(v.is_rational() for v in reference.idempotents.matrices[keys[1]].flat())
    result = _assert_fails(reference, "f-family")
    assert "wrong eigenvalue" in result.witness
    assert point.result("f-family").passed


def test_f_family_fails_on_two_members_that_are_not_orthogonal():
    # members of one class are multiplied; the first member's own steps
    # pass.  The n x n reference carries this control, as above.
    point, reference = _edited("duplicated-member")
    result = _assert_fails(reference, "f-family")
    assert result.witness == (
        "x=0: members (WreathIndex(2,1),WreathIndex(1,1)) and "
        "(WreathIndex(2,1),WreathIndex(1,2)) are not orthogonal"
    )
    assert point.result("f-family").passed


def test_commutation_fails_on_a_perturbed_dual_idempotent():
    # The level-1 label moved to (2, 4), which joins S_2 to S_3 at x=1, where
    # the n x n control added an entry of E_2 there: E_2 no longer commutes
    # with A_1
    point, _ = _edited("perturbed-dual")
    result = _assert_fails(point, "commutation")
    assert result.witness == "x=1: E[WreathIndex(2,1)] does not commute with A[WreathIndex(1,1)]"


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


def test_vanishing_fails_on_swapped_labels():
    # the check reads the scheme it is given, so the run's vanishing fails
    # where its triple-list does
    result = check_vanishing_criterion(_swapped_table(), (2, 3))
    assert not result.passed
    assert result.witness == (
        "classes (WreathIndex(1,1),WreathIndex(1,1),WreathIndex(0,0)): "
        "predicted nonzero but count is 0"
    )
    run, _, _ = run_point_checks(_swapped_table(), (2, 3), [0], ["vanishing", "triple-list"])
    assert run["vanishing"] == result and not run["triple-list"].passed
    assert check_vanishing_criterion(wreath_of_cyclics((2, 3)), (2, 3)).passed


def test_vanishing_fails_with_the_witness_of_a_table_that_is_not_a_scheme():
    # (2,2) with unequal valencies: its intersection numbers are not well
    # defined, so the check fails with the scheme's regularity witness, as a
    # per-point check fails with it, in place of raising
    scheme = _unequal_valency_table()
    witness = "count of class-2/class-1 paths is 0 for pair (0, 1) but 1 for (1,0), both in relation 1"
    assert scheme.verify_axioms().witness.endswith(f"; regularity: {witness}")
    assert check_vanishing_criterion(scheme, (2, 2)) == CheckResult("vanishing", False, witness)
    run, _, _ = run_point_checks(scheme, (2, 2), [0], ["vanishing"])
    assert run["vanishing"] == CheckResult("vanishing", False, witness)
    with pytest.raises(ValueError, match=r"^a table of 3 classes has no class labels over \(2, 3\)$"):
        check_vanishing_criterion(wreath_of_cyclics((2, 2)), (2, 3))


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


# -- the checks read off the spheres and pieces against their n x n references ----------

# The checks this file cross-checks at every point up to order 12: those
# that read a product with a dual idempotent off the pieces, and the unit
# build, through unit-support.  The references of the others (matrix-units,
# ag-forms and unit-rank) run at the first and last point.
READ_OFF_THE_PIECES = (
    "unit-support",
    "commutation",
    "primary-module",
    "unit-ideal",
    "quotient-commutes",
    "f-family",
    "span-accounting",
)

# The checks that read the unit family, which fail where it cannot be built.
UNIT_CHECKS = (
    "unit-support",
    "unit-rank",
    "matrix-units",
    "ag-forms",
    "unit-ideal",
    "quotient-commutes",
    "f-family",
    "span-accounting",
)


# The checks of the idempotent family.  The reference fails them on an edit
# of its n x n members, which the point holds as their labels; and the
# point fails them with the witness of its read where that refuses the
# table.
MEMBER_CHECKS = ("f-family", "span-accounting")


def _built(point):
    """The point's unit family, or the witness of its refused build."""
    units = point._units
    return str(units) if isinstance(units, StructureError) else units


def _refusal(point):
    """The witness of the idempotent read where it refuses the table of a
    point whose units are built, else None."""
    if isinstance(point._units, StructureError):
        return None
    try:
        build_central_idempotents(point)
    except StructureError as exc:
        return str(exc)
    return None


def _assert_agrees_with_reference(point, reference, names=tuple(REFERENCES), differ=(),
                                  both_fail=(), refused=()):
    """Each check of ``names`` gives its n x n reference's verdict, witness
    and ``checked`` at ``point``, and the build gives the reference's unit
    family or its witness.  On the checks ``differ``, the reference fails
    on an edit of its n x n inputs that the point holds by construction,
    and the point passes.  On the checks ``both_fail``, each fails with its
    own witness.  On the checks ``refused``, the point refuses units that
    are not over its spheres, whose products the reference forms and
    passes.  Where the idempotent read refuses the table, the point
    fails the member checks with the read's witness, whatever the product
    battery finds: the read certifies more than the battery tests."""
    if "unit-support" not in differ:
        assert _built(point) == _built(reference)
    refusal = _refusal(point)
    for name in names:
        if name in differ:
            assert point.result(name).passed and not reference.result(name).passed, name
        elif name in both_fail:
            assert not point.result(name).passed and not reference.result(name).passed, name
        elif name in refused:
            assert not point.result(name).passed and reference.result(name).passed, name
        elif refusal is not None and name in MEMBER_CHECKS:
            assert point.result(name) == CheckResult(name, False, refusal), name
        else:
            assert point.result(name) == reference.result(name), name


@pytest.mark.parametrize("moduli", moduli_up_to(12), ids=str)
def test_factored_unit_checks_match_the_products_up_to_order_12(moduli):
    n = math.prod(moduli)
    for x in range(n):
        point = _point(moduli, x)
        names = REFERENCES if x in (0, n - 1) else READ_OFF_THE_PIECES
        _assert_agrees_with_reference(point, ReferencePoint(point), names)
        assert all(point.result(name).passed for name in names)


def test_factored_unit_checks_match_the_products_at_every_point_of_2_3_4():
    for x in range(24):
        point = _point((2, 3, 4), x)
        _assert_agrees_with_reference(point, ReferencePoint(point))


@pytest.mark.parametrize("moduli", moduli_up_to(24), ids=str)
def test_idempotent_blocks_are_the_products_up_to_order_24(moduli):
    # Each member's closed form I (x) P_xi (x) J / n_h, built from its label
    # over the spheres in the digit order the read gives them, embedded into
    # n x n, is the member the n x n sandwich E_a M E_a builds, at the first
    # and the last point; of the wreath table, and of the table with its
    # vertices relabelled, where that order is not vertex order.
    for scheme in (wreath_of_cyclics(moduli), relabelled(moduli, 1)):
        for x in sorted({0, scheme.order - 1}):
            family = build_central_idempotents(BasePoint(scheme, moduli, x, {}))
            products = idempotents_by_products(make_context(scheme, x, moduli)).matrices
            blocks = closed_form_members(family)
            assert list(blocks) == list(products) == family.keys
            assert len(blocks) == family.count
            for (a, hx), mat in blocks.items():
                sphere = family.spheres[a]
                assert embedded(mat, sphere, sphere, scheme.order) == products[a, hx], (x, a, hx)


def _edited_point(moduli, x, swaps=(), change=None):
    """A maker of the point x of the wreath table with the label ``swaps``
    made, each (y, z, w) exchanging the labels of row y in columns z and w,
    which keeps every valency, and of its reference from the same table;
    ``change(point, reference)`` then edits either."""

    def make():
        intact = wreath_of_cyclics(moduli)
        table = [list(row) for row in intact.table]
        for y, z, w in swaps:
            table[y][z], table[y][w] = table[y][w], table[y][z]
        point = BasePoint(Scheme(table, classes=intact.classes), tuple(moduli), x, {})
        reference = ReferencePoint(point)
        if change is not None:
            change(point, reference)
        return point, reference

    return make


def _wrong_character(point, reference):
    # the first member of a class given the second's matrix, in the
    # reference: the point holds its members as their labels
    matrices = reference.idempotents.matrices
    keys = sorted(matrices)
    matrices[keys[0]] = matrices[keys[1]]


def _duplicated_member(point, reference):
    # the second member of a class given the first's matrix, in the
    # reference: the first member passes its own steps and is not
    # orthogonal to the second
    matrices = reference.idempotents.matrices
    keys = sorted(matrices)
    matrices[keys[1]] = matrices[keys[0]]


def _units_of_another_point(point, reference):
    # a unit family built at x=2, so on the spheres of x=2
    other = build_matrix_units(BasePoint(point.scheme, point.moduli, 2, {}))
    point._units = reference._units = MatrixUnitFamily(
        other.moduli, point.x, other.indices, other.spheres)


def _idempotent_off_block(transposed):
    """F[3,1] plus v e_x^T, where v = F e_c is a column of F and x the base
    point, or, ``transposed``, plus e_x w^T with w^T = e_c^T F: still
    idempotent, since F v = v, w^T F = w^T and v_x = w_x = 0, and acted on
    by A_0 = I as it should, but its column, or its row, x lies in S_0
    while its rows, or its columns, stay in S_3.  An edit of the reference's
    n x n member."""

    def change(point, reference):
        family = reference.idempotents
        mat = family.matrices[3, 1].transpose() if transposed else family.matrices[3, 1]
        data = mat.data
        c = reference.ctx.spheres[3][0]
        for row in data:
            row[reference.x] = row[c]
        mat = CycloMatrix.from_rows(data)
        family.matrices[3, 1] = mat.transpose() if transposed else mat

    return change


def _shrunk_sphere(point, reference):
    # once the reference's units and idempotents are built, the last vertex
    # y of S_3 leaves the sphere and E_3, while F[3,1] keeps its row and
    # column y
    assert reference.units and reference.idempotents.count
    y = reference.ctx.spheres[3].pop()
    duals = reference.ctx.dual_idempotents
    duals[3] = _perturbed(duals[3], y, y, -1)


def _spread_idempotent(unit):
    def change(point, reference):
        family = reference.idempotents
        family.matrices[3, 1] = family.matrices[3, 1] + unit_matrix(reference.units, *unit)

    return change


def _perturbed_input(matrices, label, cells, delta):
    """Add ``delta`` to the entries ``cells`` of the reference's build input
    ``matrices[label]`` (an adjacency matrix or a dual idempotent of its
    context), before its units are built."""

    def change(point, reference):
        inputs = getattr(reference.ctx, matrices)
        mat = inputs[label]
        for y, z in cells(reference.ctx.spheres):
            mat = _perturbed(mat, y, z, delta)
        inputs[label] = mat

    return change


def _block(a, b):
    """Every cell of the sphere block (a, b)."""
    return lambda spheres: [(y, z) for y in spheres[a] for z in spheres[b]]


def _first_cell(a, b):
    """The first cell of the sphere block (a, b)."""
    return lambda spheres: [(spheres[a][0], spheres[b][0])]


# The edited points of the negative controls in this file, by name, each
# with the checks on which its reference fails and the point passes.  Where
# those are named, the edit is of the reference's n x n inputs, in a
# certificate that the point's spheres and pieces hold by construction, so
# the control stands against the reference alone.  The product build's
# units are G_ab = E_a A_b E_b / n_b below the diagonal of levels, and
# E_a J E_b / n_b on equal levels, J the all-ones matrix; the point's are
# certified by the pieces (a, b, b), or the all-ones block.  At (2,2) the
# classes are 0, 1 and 2, of levels 0, 1 and 2; at (2,3) they are 0, 1, 2
# and 3, of levels 0, 1, 2 and 2.
EDITED_POINTS = {
    # labels 2 and 3 exchanged in row 1: the pieces (1, 2, 2) and (1, 3, 3)
    # of x=0 are gone, so G_12 is zero
    "popped-unit-12": (_edited_point((2, 3), 0, [(1, 2, 4), (1, 3, 5)]), ()),
    # -A_1 on block (0, 1) makes the product build's G_01 zero
    "popped-unit-01": (_edited_point((2, 2), 0, change=_perturbed_input(
        "adjacency", 1, _block(0, 1), -1)), UNIT_CHECKS),
    # E_0 doubled: the product build's G_00 is four times the unit
    "non-unit-00": (_edited_point((2, 2), 0, change=_perturbed_input(
        "dual_idempotents", 0, _block(0, 0), 1)), UNIT_CHECKS),
    # labels 1 and 2 exchanged in row 1: the piece (1, 2, 2) of x=0 is not
    # all ones
    "perturbed-unit-12": (_edited_point((2, 2), 0, [(1, 0, 2)]), ()),
    # an entry of E_3 in block (2, 3) adds to the product build's E_2 J E_3;
    # the E_3 it perturbs also fails the reference's E_3 steps
    "perturbed-unit-23": (_edited_point((2, 3), 2, change=_perturbed_input(
        "dual_idempotents", 3, _first_cell(2, 3), 1)),
        ("primary-module", "commutation", *UNIT_CHECKS)),
    "wrong-character": (_edited_point((3, 2), 0, change=_wrong_character), MEMBER_CHECKS),
    "duplicated-member": (_edited_point((3, 2), 0, change=_duplicated_member), MEMBER_CHECKS),
    "spread-idempotent-off-rows": (
        _edited_point((2, 3), 0, change=_spread_idempotent((0, 0))), MEMBER_CHECKS),
    "spread-idempotent-off-columns": (
        _edited_point((2, 3), 0, change=_spread_idempotent((3, 0))), MEMBER_CHECKS),
    # labels 2 and 1 exchanged in row 2: A_1 u_0 is not constant on S_2 = {2, 3}
    "perturbed-generator": (_edited_point((2, 2), 0, [(2, 0, 3)]), ()),
    # labels 3 and 2 exchanged in row 2 of (2,3), which lies in S_2 at x=1:
    # rows 0 and 1, those of the unit pieces there, keep their labels
    "perturbed-adjacency": (_edited_point((2, 3), 1, [(2, 0, 4)]), ()),
    # labels 1 and 2 exchanged in row 2: the level-1 label at (2, 4) joins
    # S_2 to S_3 at x=1
    "perturbed-dual": (_edited_point((2, 3), 1, [(2, 3, 4)]), ()),
    # labels 3 and 2 exchanged in rows 2 and 3: at x=0 every [A_i, A_k] stays
    # in the unit span, and [A_2, E*_2] leaves it first, through the piece
    # (2, 2, 3) = [[0, 1], [1, 0]] on its block (2, 3)
    "perturbed-commutator": (_edited_point((2, 3), 0, [(2, 0, 4), (3, 0, 5)]), ()),
    # labels 1 and 2 exchanged in row 2 of (3,2): at x=0 the piece (2, 1, 0)
    # is gone, so A_1 u_0 is 0 on S_2 where its closed form is 1, and the
    # piece (2, 1, 1) that gains the label breaks the form of a later unit
    "absent-piece": (_edited_point((3, 2), 0, [(2, 0, 1)]), ()),
    # units on other spheres than the point's: the E*_j steps of the point
    # pass by construction, on its own spheres, and the reference's
    # members lie off the units' blocks; f-family fails at both (BOTH_FAIL)
    "units-of-another-point": (_edited_point((2, 3), 0, change=_units_of_another_point),
                               ("unit-ideal", "quotient-commutes", "span-accounting")),
    "idempotent-column-off-block": (
        _edited_point((2, 3), 0, change=_idempotent_off_block(False)), MEMBER_CHECKS),
    "idempotent-row-off-block": (
        _edited_point((2, 3), 0, change=_idempotent_off_block(True)), MEMBER_CHECKS),
    "shrunk-sphere": (_edited_point((2, 3), 0, change=_shrunk_sphere), (
        "primary-module", "commutation", "unit-ideal", "quotient-commutes", "f-family")),
}


# The checks that an edited point and its reference both fail, each with
# its own witness: the point finds the units off the members' spheres, and
# the reference a unit that a member does not annihilate.
BOTH_FAIL = {"units-of-another-point": ("f-family",)}
# The checks where the point refuses the units, which are off its spheres,
# and the reference's products with them hold the closed forms, as they do
# at every point.
REFUSED = {"units-of-another-point": ("ag-forms",)}


@pytest.mark.parametrize("name", EDITED_POINTS)
def test_factored_unit_checks_match_the_products_on_edited_points(name):
    make, differ = EDITED_POINTS[name]
    _assert_agrees_with_reference(*make(), differ=differ, both_fail=BOTH_FAIL.get(name, ()),
                                  refused=REFUSED.get(name, ()))


def _block_route(monkeypatch, make):
    """The quotient-commutes result at ``make()``, with the scheme read as
    not commutative, so that every [A_i, A_k] is formed from the pieces."""
    with monkeypatch.context() as patch:
        patch.setattr(Scheme, "is_commutative", lambda scheme: False)
        return make().result("quotient-commutes")


@pytest.mark.parametrize("moduli", moduli_up_to(12) + [(2, 3, 4)], ids=str)
def test_quotient_commutes_by_blocks_matches_the_tensor_read(monkeypatch, moduli):
    for x in range(math.prod(moduli)):
        point = _point(moduli, x)
        read = point.result("quotient-commutes")
        assert read.passed
        assert _block_route(monkeypatch, lambda: _point(moduli, x)) == read
        assert ReferencePoint(point).result("quotient-commutes") == read


def test_edited_tables_take_the_block_route():
    # A label swap leaves the intersection numbers ill defined, so the
    # controls on edited tables read every [A_i, A_k] from the pieces
    edited = 0
    for make, _ in EDITED_POINTS.values():
        point, _ = make()
        if point.scheme.table != wreath_of_cyclics(point.moduli).table:
            edited += 1
            with pytest.raises(AxiomViolation):
                point.scheme.is_commutative()
    assert edited == 7


def test_unit_ideal_and_quotient_fail_past_the_certificate_on_a_perturbed_generator():
    point, _ = _edited("perturbed-generator")
    assert point.result("matrix-units").passed
    assert point.result("unit-rank").passed
    _assert_fails(point, "unit-ideal")
    _assert_fails(point, "quotient-commutes")


def test_quotient_commutes_reads_the_dual_idempotent_commutators_off_the_pieces():
    # [A_i, E*_j] is piece(h, i, j) on block (h, j) and -piece(j, i, h) on
    # block (j, h).  The first pair to leave the unit span is (A_2, E*_2),
    # through -piece(2, 2, 3), as the reference finds: after the 6 [A_i, A_k],
    # the 8 pairs (A_0, E*_j) and (A_1, E*_j), and (A_2, E*_0), (A_2, E*_1).
    point, reference = _edited("perturbed-commutator")
    assert point.result("matrix-units").passed
    result = _assert_fails(point, "quotient-commutes")
    assert result == reference.result("quotient-commutes")
    assert result.checked == 6 + 8 + 3


def test_ag_forms_fail_past_the_certificate_on_an_off_block_adjacency_entry():
    point, _ = _edited("perturbed-adjacency")
    assert point.result("matrix-units").passed
    result = _assert_fails(point, "ag-forms")
    # the label 2 moved to (2, 4) sits in row S_2 and column S_3, so
    # w_2^T A_2 breaks first
    assert result.witness == (
        "x=1: G[WreathIndex(0,0),WreathIndex(2,1)] * A[WreathIndex(2,1)] "
        "does not match the closed form"
    )


def test_annihilation_fails_past_the_certificate_on_the_units_of_another_point():
    # The units of x=2 keep the product law and the closed forms, which
    # hold at every point, but the idempotents of x=0 do not annihilate
    # them, as the reference finds; the point finds the units off the
    # members' spheres, where the annihilation its proof reads does not hold,
    # and off its own, where its sums are not the units'
    point, reference = _edited("units-of-another-point")
    for name in ("matrix-units", "unit-rank"):
        assert point.result(name).passed, name
    assert point.result("ag-forms") == CheckResult(
        "ag-forms", False, "x=0: the units are not over the spheres of the point")
    assert point.result("f-family") == CheckResult(
        "f-family", False, "x=0: the units are not over the spheres of the members")
    result = _assert_fails(reference, "f-family")
    assert "does not annihilate unit" in result.witness


def test_f_family_reads_the_dual_idempotent_products_off_the_member():
    # The point holds each member as its label over its sphere, so E_j F
    # and F E_j are F or zero by construction.  The reference forms them, and fails on an
    # n x n member off its block: for j != a a column in S_j, and for j == a
    # a row or column outside S_a.
    for name in ("idempotent-column-off-block", "idempotent-row-off-block"):
        _, reference = _edited(name)
        result = _assert_fails(reference, "f-family")
        assert result.witness == (
            "x=0: E[WreathIndex(0,0)] does not commute with member "
            "(WreathIndex(2,2),WreathIndex(1,1))"
        )
    _, reference = _edited("shrunk-sphere")
    result = _assert_fails(reference, "f-family")
    assert result.witness == (
        "x=0: E[WreathIndex(2,2)] does not commute with member (WreathIndex(2,2),WreathIndex(1,1))"
    )


def test_certificate_witness_names_the_unit_off_its_form():
    point, _ = _edited("perturbed-unit-12")
    for name in UNIT_CHECKS:
        result = _assert_fails(point, name)
        assert result.witness == "x=0: G[1,2] does not match the closed form u_1 u_2^T / n_2"
    _, reference = _edited("popped-unit-01")
    result = _assert_fails(reference, "matrix-units")
    assert result.witness == "x=0: G[0,1] does not match the closed form u_0 u_1^T / n_1"


def test_matrix_unit_law_fails_on_overlapping_spheres():
    # The spheres of x=0 of (2,2), with S_1 = {1} replaced by S_2 = {2, 3}:
    # G_11 G_22 = G_12 would not be zero, so there is no such family
    units = _point((2, 2), 0).units
    spheres = (units.spheres[0], units.spheres[2], units.spheres[2])
    with pytest.raises(StructureError, match=r"^x=0: G\[1,1\]G\[2,2\] is not zero$"):
        MatrixUnitFamily(units.moduli, units.base_point, units.indices, spheres)
    with pytest.raises(StructureError, match=r"^x=0: sphere S_1 is empty$"):
        MatrixUnitFamily(
            units.moduli, units.base_point, units.indices, (units.spheres[0], (), units.spheres[2]))


def _unequal_valency_table():
    # (2,2) with t[2][0] = 1: row 2 holds two labels 1, row 0 one
    intact = wreath_of_cyclics((2, 2))
    table = [list(row) for row in intact.table]
    table[2][0] = 1
    return Scheme(table, classes=intact.classes)


def test_unequal_valencies_fail_the_checks_that_read_them():
    # unit-support passes, since the units read |S_b| at x; the checks that
    # read a valency fail with the scheme's witness, in place of raising
    point = BasePoint(_unequal_valency_table(), (2, 2), 0, {})
    assert point.result("unit-support").passed
    for name in ("ag-forms", "f-family", "span-accounting"):
        assert point.result(name) == CheckResult(
            name, False, "neighborhood sizes differ between vertices 0 and 2"
        )


# The witness with which the idempotent read refuses each of its controls
# in CONTROLS.
READ_REFUSALS = {
    # the walk from 4 gives 5 the digits (0, 1) and 6 the digits (1, 0), and
    # then finds the level-2 label t[5][7] where 7 should share digit 2 with 5
    "member-label-swapped": "x=0: t[5][7] = 2 is not the digit label of a level below 2",
    "crossing-label-swapped": "x=0: piece (2,2,3) is not all ones",
    # the walk from 3 gives 4 the digit 2 and 5 the digit 1, so t[5][3]
    # should be the class (1, 0 - 1) = 2
    "wrong-offset": "x=0: t[5][3] = 1 is not the digit label 2",
}


def _lopsided_table():
    """(2,3) with the class-3 entry t[y][z] with z_1 = y_1 made class 2 in
    every row y: each row holds the labels 0, 1, 2, 2, 2, 3, so the valencies
    are defined, and those of the classes of level 2 are 3 and 1."""
    intact = wreath_of_cyclics((2, 3))
    return Scheme([[2 if c == 3 and z % 2 == y % 2 else c for z, c in enumerate(row)]
                   for y, row in enumerate(intact.table)], classes=intact.classes)


def test_the_idempotent_read_refuses_with_its_own_witness():
    # Its three controls keep the unit family and fail both member checks
    # with the read's witness.  The tables of its other refusals fail the
    # unit build first, so the read is called on them directly.
    for name, witness in READ_REFUSALS.items():
        point = CONTROLS[name][0]()
        assert point.result("unit-support").passed, name
        for check in MEMBER_CHECKS:
            assert point.result(check) == CheckResult(check, False, witness), (name, check)
    with pytest.raises(StructureError, match=r"^x=0: class 1 has valency 2, not 1$"):
        build_central_idempotents(BasePoint(_swapped_table(), (2, 3), 0, {}))
    with pytest.raises(StructureError, match=r"^x=0: S_2 has 3 vertices, not 2$"):
        build_central_idempotents(BasePoint(_lopsided_table(), (2, 3), 0, {}))


def test_a_refused_idempotent_read_runs_once_per_point(monkeypatch):
    # the point keeps the read's refusal as it keeps a family, so f-family
    # and span-accounting share one read
    calls = []
    read = decomposition.build_central_idempotents
    monkeypatch.setattr(decomposition, "build_central_idempotents",
                        lambda point: calls.append(point.x) or read(point))
    point = CONTROLS["wrong-offset"][0]()
    for name in DECOMPOSITION:
        point.result(name)
    assert not point.result("f-family").passed
    assert calls == [0]


def test_f_family_checks_only_the_family_its_point_certified():
    # A family made by hand over the units' spheres used to pass f-family
    # at wrong-offset, where the read refuses the table.  The check takes
    # no family: it reads the point's own, and raises the read's refusal.
    point = CONTROLS["wrong-offset"][0]()
    units = point.units
    made = CentralIdempotentFamily(point.moduli, 0, units.spheres)
    with pytest.raises(TypeError):
        check_central_idempotents(point, made, units)
    with pytest.raises(StructureError) as refused:
        check_central_idempotents(point, units)
    assert str(refused.value) == READ_REFUSALS["wrong-offset"]


def test_checks_stated_for_a_wreath_fail_without_moduli():
    # The (2,3) table read as an ingested one: every check stated for a
    # wreath of cyclics fails with the same witness, in place of raising,
    # and the others pass
    point = BasePoint(Scheme(wreath_of_cyclics((2, 3)).table), None, 0, {})
    needs_moduli = {"triple-list", "block-form", "matrix-units", "ag-forms", "commutation",
                    "f-family", "unit-support", "unit-rank", "unit-ideal", "quotient-commutes",
                    "span-accounting"}
    for name in POINT_CHECKS:
        if name in needs_moduli:
            assert point.result(name) == CheckResult(
                name, False, "this check needs the moduli of a wreath of cyclics")
        else:
            assert point.result(name).passed, name
    # any other error still propagates
    with pytest.raises(ValueError, match="^base point 6 out of range$"):
        BasePoint(wreath_of_cyclics((2, 3)), (2, 3), 6, {}).result("triple-list")


def test_dimension_fails_where_class_0_is_not_the_identity_relation():
    # the pieces need not generate T there, so the closure refuses the
    # table with AxiomViolation, which the point reports as a failed check,
    # as it does every other axiom failure
    results, _, _ = run_point_checks(Scheme([[1, 0], [0, 1]]), None, [0], ["dimension"])
    assert results == {"dimension": CheckResult(
        "dimension", False, "class 0 is not the identity relation, so the pieces need not generate T")}


def test_value_classes_compare_hash_and_print_by_their_fields():
    index = WreathIndex(2, 5, [3, 4])
    assert (index.level, index.offset, index.moduli, index.flat) == (2, 1, (3, 4), 3)
    assert index == WreathIndex(2, 1, (3, 4)) != WreathIndex(2, 2, (3, 4))
    assert hash(index) == hash((2, 1, (3, 4)))
    assert repr(index) == "WreathIndex(2,1)"
    units = _point((2, 3), 1).units
    again = MatrixUnitFamily(units.moduli, 1, units.indices, units.spheres)
    assert units == again and hash(units) == hash(again)
    assert units != MatrixUnitFamily(units.moduli, 0, units.indices, units.spheres)
    assert repr(units) == (
        "MatrixUnitFamily(moduli=(2, 3), base_point=1, indices=(WreathIndex(0,0), "
        "WreathIndex(1,1), WreathIndex(2,1), WreathIndex(2,2)), "
        "spheres=((1,), (0,), (2, 3), (4, 5)))")
    family = _point((2, 3), 1).idempotents
    again = CentralIdempotentFamily((2, 3), 1, units.spheres)
    assert family == again and hash(family) == hash(again)
    assert family != CentralIdempotentFamily((2, 3), 0, units.spheres)
    assert repr(family) == (
        "CentralIdempotentFamily(moduli=(2, 3), base_point=1, "
        "spheres=((1,), (0,), (2, 3), (4, 5)))")
    for frozen, field in ((index, "level"), (units, "spheres"), (family, "spheres")):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(frozen, field, None)
    result = CheckResult(name="a", passed=True)
    assert result == CheckResult("a", True, None, 0) != CheckResult("a", True, None, 1)
    assert result != ("a", True, None, 0)
    assert repr(result) == "CheckResult(name='a', passed=True, witness=None, checked=0)"
    with pytest.raises(TypeError):
        hash(result)
    result.checked = 2
    assert result.checked == 2
    # the container field defaults to a fresh one per instance
    decomps = [DecompReport(None, 1, 1, [0], None) for _ in range(2)]
    assert decomps[0].checks == [] and decomps[0].checks is not decomps[1].checks
    assert repr(decomps[0]) == (
        "DecompReport(moduli=None, order=1, num_classes=1, base_points=[0], dim_T=None, checks=[])")


# Every negative control on a base point: its maker, and the registered
# checks that fail there.
CONTROLS = {
    "swapped-labels": (lambda: BasePoint(_swapped_table(), (2, 3), 0, {}),
                       ("triple-list", "block-form")),
    "shrikhande": (lambda: BasePoint(example_schemes()["shrikhande"], None, 0, {}),
                   ("triply-regular",)),
    # the path on four vertices, classed by distance
    "path": (lambda: BasePoint(Scheme([[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]),
                               None, 0, {}), ("primary-module",)),
    "dimension-11": (lambda: _with(_point((2, 2), 0), dim=11), ("dimension",)),
    "unequal-valencies": (lambda: BasePoint(_unequal_valency_table(), (2, 2), 0, {}),
                          ("ag-forms", "f-family", "span-accounting")),
    # Three edits the idempotent read refuses (READ_REFUSALS), each a swap of
    # two labels in one row, which keeps every valency.  (2,2,2)@0: labels
    # 1 and 2 exchanged in row 4, inside S_3 x S_3, S_3 = {4, 5, 6, 7}
    "member-label-swapped": (lambda: _edited_point((2, 2, 2), 0, [(4, 5, 6)])()[0],
                             MEMBER_CHECKS),
    # (2,4)@0: labels 2 and 3 exchanged in row 2 of S_2 = {2, 3}, in the
    # pieces off the diagonal to S_3 = {4, 5} and S_4 = {6, 7}, which are
    # of S_2's level, so that every unit piece keeps its labels
    "crossing-label-swapped": (lambda: _edited_point((2, 4), 0, [(2, 4, 6)])()[0],
                               MEMBER_CHECKS),
    # (3,2)@0: the level-1 labels 1 and 2 exchanged in row 3, inside
    # S_3 x S_3, S_3 = {3, 4, 5}: each has the offset of the other
    "wrong-offset": (lambda: _edited_point((3, 2), 0, [(3, 4, 5)])()[0], MEMBER_CHECKS),
    **{name: (lambda name=name: _edited(name)[0], fails) for name, fails in {
        "popped-unit-12": UNIT_CHECKS,
        "perturbed-generator": ("unit-ideal", "quotient-commutes"),
        "perturbed-commutator": ("quotient-commutes",),
        "perturbed-adjacency": ("ag-forms",),
        "perturbed-dual": ("commutation",),
        "units-of-another-point": ("ag-forms", "f-family"),
    }.items()},
}


def _with(point, **artifacts):
    """``point`` with the given artifacts in place of its own."""
    for name, value in artifacts.items():
        setattr(point, name, value)
    return point


def _control_points():
    """The maker of the point of every edited point and every control with
    moduli, by name."""
    makers = {name: (lambda name=name: _edited(name)[0]) for name in EDITED_POINTS}
    makers.update((name, make) for name, (make, _) in CONTROLS.items())
    return {name: make for name, make in makers.items() if make().moduli is not None}


CONTROL_POINTS = _control_points()


@pytest.mark.parametrize("name", CONTROL_POINTS)
def test_quotient_commutes_by_blocks_on_every_control(monkeypatch, name):
    # the block route gives the default route's verdict, witness and
    # checked count on every control, where most tables take it anyway
    make = CONTROL_POINTS[name]
    assert _block_route(monkeypatch, make) == make().result("quotient-commutes")


@pytest.mark.parametrize("name", POINT_CHECKS)
def test_every_registered_check_fails_on_a_control(name):
    makers = [make for make, fails in CONTROLS.values() if name in fails]
    assert makers, f"{name} has no negative control"
    for make in makers:
        point = make()
        assert not point.result(name).passed, name


def test_unit_checks_form_no_product_of_two_n_by_n_matrices(monkeypatch):
    # At (2,3)@0 and (2,3,4)@5 no registered check forms a product of two
    # n x n matrices, nor one with a dual idempotent, which is a sphere.  The
    # closure multiplies sphere blocks; the builds read the pieces, their
    # sums and the table, f-family and span-accounting form nothing,
    # ag-forms, unit-ideal and primary-module read the sums of the pieces,
    # and quotient-commutes the intersection tensor of a commutative scheme.
    # Nor does any compare two matrices or build the all-ones matrix: a
    # piece is all ones where its row sum is the size of its column sphere.
    counts = {}
    name = None
    product, equal, ones = ExactMatrix.__mul__, ExactMatrix.__eq__, ExactMatrix.ones

    def counted(a, b):
        if a.rows == a.cols == b.cols == n:
            counts[name] = counts.get(name, 0) + 1
        return product(a, b)

    def called(kind, original):
        def call(*args):
            counts[name, kind] = counts.get((name, kind), 0) + 1
            return original(*args)
        return call

    monkeypatch.setattr(ExactMatrix, "__mul__", counted)
    monkeypatch.setattr(ExactMatrix, "__eq__", called("==", equal))
    monkeypatch.setattr(ExactMatrix, "ones", staticmethod(called("ones", ones)))
    for moduli, x in (((2, 3), 0), ((2, 3, 4), 5)):
        point = _point(moduli, x)
        n = point.scheme.order
        for name in POINT_CHECKS:
            assert point.result(name).passed, name
    assert counts == {}
    # the counters see a call
    name = "control"
    assert ExactMatrix.ones(1, 2) == ExactMatrix.from_rows([[1, 1]])
    assert counts == {("control", "ones"): 1, ("control", "=="): 1}


def test_full_decomposition_compares_each_unit_once(monkeypatch):
    # The build certifies each of the k^2 = 16 units of (2,3)@0 from its
    # piece, or on equal levels by construction, and forms none; no check
    # forms a unit or an adjacency matrix either: no n x n matrix is made.
    calls = []
    init = ExactMatrix._init

    def counted(mat, rows, cols, *args):
        if rows == cols == 6:
            calls.append(rows)
        return init(mat, rows, cols, *args)

    monkeypatch.setattr(ExactMatrix, "_init", counted)
    builds = []
    original = decomposition.build_matrix_units
    monkeypatch.setattr(decomposition, "build_matrix_units",
                        lambda point: builds.append(point.x) or original(point))
    assert decomposition_report((2, 3), base_points=[0]).passed
    assert (calls, builds) == ([], [0])
