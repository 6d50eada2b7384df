from itertools import product as iter_product

import pytest
from reference import (
    algebra_dimension,
    classify,
    example_schemes,
    identity,
    make_context,
    moduli_up_to,
    product_closure,
    rebind,
    standard_generators,
    t0_dimension,
    t0_span,
    triple_intersection,
    triple_product,
    triply_regular_by_counts,
    wreath_context,
    wreath_point,
)

import wreathalg
from wreathalg import (
    BasePoint,
    ExactMatrix,
    Scheme,
    check_primary_module,
    check_translation_certificate,
    check_triple_list,
    check_triply_regular,
    cyclic_scheme,
    wreath_of_cyclics,
)
from wreathalg.structure import run_point_checks


def test_the_package_holds_no_n_by_n_context():
    # A dual idempotent is its sphere, and the n x n context lives in the
    # test references alone.
    for name in ("TerwilligerContext", "make_context", "wreath_context", "standard_generators"):
        assert not hasattr(wreathalg, name), name
        assert not hasattr(wreathalg.terwilliger, name), name
        assert not hasattr(wreathalg.structure, name), name


def test_context_dual_idempotents():
    ctx = make_context(cyclic_scheme(2), 0)
    assert ctx.dual_idempotents[0] == ExactMatrix.from_rows([[1, 0], [0, 0]])
    assert ctx.dual_idempotents[1] == ExactMatrix.from_rows([[0, 0], [0, 1]])


def test_dual_idempotents_sum_to_identity():
    for scheme in (cyclic_scheme(4), wreath_of_cyclics([2, 3])):
        ctx = make_context(scheme, 1)
        total = ctx.dual_idempotents[0]
        for e in ctx.dual_idempotents[1:]:
            total = total + e
        assert total == identity(scheme.order)
        for i, e in enumerate(ctx.dual_idempotents):
            assert e * e == e
            for j in range(i + 1, scheme.classes):
                assert (e * ctx.dual_idempotents[j]).is_zero()


def test_sphere_sizes_follow_valencies():
    point = wreath_point([2, 3], 0)
    assert [len(s) for s in point.spheres] == [1, 1, 2, 2]


def test_context_rejects_bad_base_point():
    with pytest.raises(ValueError):
        BasePoint(cyclic_scheme(2), None, 2, {}).spheres


def test_triple_product_identity_case():
    ctx = wreath_context([2, 3], 0)
    assert triple_product(ctx, 0, 0, 0) == ctx.dual_idempotents[0]


def test_triple_product_vanishes_exactly_with_intersection_number():
    s = wreath_of_cyclics([2, 3])
    ctx = make_context(s, 0)
    for i, j, h in iter_product(range(s.classes), repeat=3):
        product_zero = triple_product(ctx, i, j, h).is_zero()
        assert product_zero == (s.intersection_number(i, j, h) == 0)


def test_predict_triple_nonzero_cases():
    from wreathalg import WreathIndex, predict_triple_nonzero

    m = (2, 3)
    zero = WreathIndex(0, 0, m)
    assert predict_triple_nonzero(m, zero, zero, zero)
    # equal top levels with offsets summing to zero reach any lower sphere
    assert predict_triple_nonzero(m, WreathIndex(2, 1, m), WreathIndex(2, 2, m), zero)
    # lower-level middle class needs matching outer offsets
    assert not predict_triple_nonzero(
        m, WreathIndex(1, 1, m), WreathIndex(2, 1, m), WreathIndex(2, 2, m)
    )
    assert predict_triple_nonzero(
        m, WreathIndex(1, 1, m), WreathIndex(2, 1, m), WreathIndex(2, 1, m)
    )


def test_triple_list_check():
    for m in [(2, 3), (2, 2, 2)]:
        result = check_triple_list(wreath_point(m, 0))
        assert result.passed, result.witness


def test_triple_list_base_point_sweep():
    results = [check_triple_list(wreath_point((2, 3), x)).passed for x in range(6)]
    assert results == [True] * 6


def test_closure_dimension_oracle():
    s = wreath_of_cyclics([2, 2])
    ctx = make_context(s, 0)
    closure = product_closure(standard_generators(ctx))
    assert closure.dimension == 10


def test_every_triple_product_lies_in_the_closure():
    s = wreath_of_cyclics([2, 2])
    ctx = make_context(s, 0)
    closure = product_closure(standard_generators(ctx))
    for i, j, h in iter_product(range(s.classes), repeat=3):
        assert closure.contains(triple_product(ctx, i, j, h))


def test_t0_dimensions():
    # for the two-vertex cyclic scheme all four matrix units appear as
    # triple products, so the span is the full 2x2 algebra
    assert t0_dimension(cyclic_scheme(2), 0) == 4
    assert t0_dimension(wreath_of_cyclics([2, 2]), 0) == 10
    assert t0_dimension(wreath_of_cyclics([2, 3]), 0) == 18


def test_t0_equals_closure_for_wreaths():
    for m in [(2, 2), (2, 3)]:
        s = wreath_of_cyclics(m)
        for x in range(s.order):
            assert t0_dimension(s, x) == algebra_dimension(s, x)


def test_t0_is_contained_in_closure():
    ctx = wreath_context([2, 3], 1)
    closure = product_closure(standard_generators(ctx))
    for mat in t0_span(ctx).basis():
        assert closure.contains(mat)


def test_dimension_is_base_point_invariant():
    s = wreath_of_cyclics([2, 3])
    dims = {algebra_dimension(s, x) for x in range(s.order)}
    assert dims == {18}


def test_triple_intersection_identity_classes():
    s = wreath_of_cyclics([2, 3])
    assert triple_intersection(s, 0, 0, 0, 0, 0, 0) == 1
    assert triple_intersection(s, 0, 1, 0, 0, 0, 0) == 0


def test_triple_intersection_partition():
    s = wreath_of_cyclics([2, 3])
    x, y, z = 0, 1, 3
    j, h = 2, 3
    total = sum(triple_intersection(s, x, y, z, i, j, h) for i in range(s.classes))
    expected = sum(
        1 for w in range(s.order) if classify(s, y, w) == j and classify(s, z, w) == h
    )
    assert total == expected


def test_triple_intersection_ball_case():
    # x = y = z with equal top-level classes counts the whole ball
    s = wreath_of_cyclics([2, 3])
    assert triple_intersection(s, 0, 0, 0, 2, 2, 2) == s.valency(2)


def test_triply_regular_wreaths():
    for m in [(2, 3), (2, 2, 2)]:
        scheme = wreath_of_cyclics(m)
        n = scheme.order
        assert check_triply_regular(scheme).passed
        # the pipeline sweeps once and cross-checks the span equality at each point
        run, seen, _ = run_point_checks(scheme, None, range(n), ["triply-regular"])
        assert run["triply-regular"].passed
        assert run["triply-regular"].checked == n ** 3
        assert seen["sweep"][1] is True


@pytest.mark.parametrize("moduli", [(2, 2), (2, 3), (3, 3), (2, 2, 2, 2), (2, 3, 4)])
def test_sweep_from_zero_gives_the_full_verdict(moduli):
    scheme = wreath_of_cyclics(moduli)
    full = check_triply_regular(scheme)
    from_zero = check_triply_regular(scheme, (0,))
    assert full.passed and from_zero.passed
    assert (full.checked, from_zero.checked) == (scheme.order ** 3, scheme.order ** 2)


def test_sweep_from_zero_fails_on_the_shrikhande_table():
    # The Cayley table of Z4 x Z4 is certified under the (4,4) translations,
    # and it is not triply regular: both sweeps find that.
    shrikhande = example_schemes()["shrikhande"]
    assert check_translation_certificate(shrikhande, (4, 4)).passed
    full = check_triply_regular(shrikhande)
    from_zero = check_triply_regular(shrikhande, (0,))
    assert not full.passed and not from_zero.passed
    assert full.witness is not None and from_zero.witness is not None


def refuse(original):
    """A replacement for ``original`` that fails the test when called."""

    def raising(*args, **kwargs):
        raise AssertionError(f"{original.__name__} is off this path")

    return raising


def test_sweep_reads_only_the_table(monkeypatch):
    # With every path to the pieces or a closure made to raise, the sweep
    # gives the same verdicts, counts and witness.
    for name in ("starting_pieces", "block_closure"):
        rebind(monkeypatch, name, refuse)
    regular = check_triply_regular(wreath_of_cyclics((2, 3, 4)))
    assert (regular.passed, regular.witness, regular.checked) == (True, None, 24 ** 3)
    shrikhande = check_triply_regular(example_schemes()["shrikhande"])
    assert not shrikhande.passed
    assert shrikhande.witness == (
        "classes (1, 1, 1) over pair pattern (1, 1, 2): count 0 at (0, 1, 3) but 1 at (0, 1, 4)"
    )
    assert shrikhande.checked == 21


def edited_table(moduli, y, z, label):
    """The wreath table with the symmetric pair (y, z)/(z, y) moved to ``label``."""
    table = [list(row) for row in wreath_of_cyclics(moduli).table]
    table[y][z] = table[z][y] = label
    return table


SHRIKHANDE = example_schemes()["shrikhande"]
SWEPT_TABLES = {
    "shrikhande": SHRIKHANDE,
    # not triply regular, but every tuple (0, y, z) agrees with the first
    # tuple of its pair pattern: the first mismatch lies at x = 2
    "2x2-edited": Scheme(edited_table((2, 2), 2, 3, 2)),
    "2x3-edited": Scheme(edited_table((2, 3), 4, 5, 2)),
    # labels at or above the declared class count
    "2x3-class-3-renamed-9": Scheme(
        [[9 if v == 3 else v for v in row] for row in wreath_of_cyclics((2, 3)).table], classes=4
    ),
    "shrikhande-two-classes": Scheme(SHRIKHANDE.table, classes=2),
    "2x3-edited-labels-times-7": Scheme(
        [[7 * v for v in row] for row in edited_table((2, 3), 4, 5, 2)], classes=3
    ),
}


@pytest.mark.parametrize(
    "scheme",
    [wreath_of_cyclics(moduli) for moduli in moduli_up_to(12)] + list(SWEPT_TABLES.values()),
    ids=[str(moduli) for moduli in moduli_up_to(12)] + list(SWEPT_TABLES),
)
def test_sweep_matches_the_count_reference(scheme):
    # CheckResult equality compares the verdict, the witness and the count
    for sweep_points in (None, (0,)):
        assert check_triply_regular(scheme, sweep_points) == triply_regular_by_counts(
            scheme, sweep_points
        )


@pytest.mark.parametrize("point", [-16, 16])
def test_sweep_refuses_a_point_that_is_no_vertex(point):
    with pytest.raises(ValueError, match=f"sweep point {point} out of range"):
        check_triply_regular(SHRIKHANDE, (point,))


def test_edited_table_fails_past_the_first_vertex():
    scheme = SWEPT_TABLES["2x2-edited"]
    report = check_triply_regular(scheme)
    assert report.checked > 4 * 4
    assert report.witness == (
        "classes (1, 2, 2) over pair pattern (2, 2, 0): count 1 at (0, 2, 2) but 0 at (2, 0, 0)"
    )
    assert check_triply_regular(scheme, (0,)).passed


def test_triply_regular_span_cross_check_can_fail(monkeypatch):
    # A closure one larger at x=2 makes dim T_0(x) != dim T(x) there, which
    # disagrees with the sweep's verdict that the scheme is triply regular.
    dim = BasePoint.dim
    monkeypatch.setattr(BasePoint, "dim", property(lambda point: dim.func(point) + (point.x == 2)))
    scheme = wreath_of_cyclics((2, 2))
    assert check_triply_regular(scheme).passed
    run, _, _ = run_point_checks(scheme, None, range(4), ["triply-regular"])
    assert not run["triply-regular"].passed
    assert run["triply-regular"].witness == "span-equality cross-check disagrees with the sweep"
    # the other base points agree
    run, _, _ = run_point_checks(scheme, None, [0, 1, 3], ["triply-regular"])
    assert run["triply-regular"].passed


def test_triply_regular_builds_one_closure_per_point(monkeypatch):
    # The sweep reads the class table alone, and the cross-check closes each
    # point's own pieces, read once; no point runs the library's
    # block_closure, which reads them again.
    calls = {"starting_pieces": [], "block_closure": []}
    for name, seen in calls.items():
        rebind(
            monkeypatch,
            name,
            lambda original, seen=seen: (
                lambda *args, **kwargs: seen.append(args[1]) or original(*args, **kwargs)
            ),
        )
    assert check_triply_regular(wreath_of_cyclics((2, 2))).passed
    assert calls == {"starting_pieces": [], "block_closure": []}
    run, _, _ = run_point_checks(wreath_of_cyclics((2, 2)), None, range(4), ["triply-regular"])
    assert run["triply-regular"].passed
    assert calls == {"starting_pieces": [0, 1, 2, 3], "block_closure": []}


def test_cross_check_skips_a_noncommutative_scheme(monkeypatch):
    # The S_3 group scheme is triply regular but not commutative, so the span
    # equality does not apply and no point reads its pieces.
    rebind(monkeypatch, "starting_pieces", refuse)
    s3 = example_schemes()["s3"]
    run, seen, _ = run_point_checks(s3, None, range(6), ["triply-regular"])
    assert run["triply-regular"].passed
    assert run["triply-regular"].checked == 6 ** 3
    assert seen["sweep"][1] is False


def test_triply_regular_counterexample():
    # not a scheme (regularity fails), but exercises the failure path of
    # the constancy sweep; the span cross-check does not apply
    table = [
        [0, 2, 1, 1],
        [2, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    report = check_triply_regular(Scheme(table))
    assert not report.passed
    assert report.witness is not None
    run, seen, _ = run_point_checks(Scheme(table), None, range(4), ["triply-regular"])
    assert run["triply-regular"] == report
    assert seen["sweep"] == (report, False)


def test_primary_module_dimensions():
    assert check_primary_module(wreath_point([2, 2], 0)).passed
    assert check_primary_module(wreath_point([2, 3], 0)).passed
    point = wreath_point([2, 3], 0)
    assert point.scheme.classes == 4  # span dimension checked inside equals d+1


def test_primary_module_indicators_are_disjoint():
    point = wreath_point([2, 3], 2)
    seen = set()
    for sphere in point.spheres:
        assert sphere, "indicator vector must be nonzero"
        assert not (seen & set(sphere))
        seen |= set(sphere)


def test_primary_module_detects_bad_span():
    # around base point 2 the broken table has an empty sphere, so the
    # indicator span is too small
    table = [
        [0, 2, 1, 1],
        [2, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    result = check_primary_module(BasePoint(Scheme(table), None, 2, {}))
    assert not result.passed
    assert "dimension" in result.witness


def test_primary_module_detects_a_generator_leaving_the_span():
    # The path on four vertices, classed by distance: the indicator span has
    # the right dimension, but the table is not a scheme, and a generator
    # maps an indicator outside the span at every base point.
    table = [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]
    results = [check_primary_module(BasePoint(Scheme(table), None, x, {})) for x in range(4)]
    assert [r.passed for r in results] == [False] * 4
    assert [r.witness for r in results] == [
        f"x={x}: a generator maps an indicator vector outside the span" for x in range(4)
    ]
    assert [r.checked for r in results] == [5, 6, 6, 5]


def test_t0_span_matrices_have_scheme_shape():
    ctx = wreath_context([2, 2], 0)
    span = t0_span(ctx)
    assert span.shape == (4, 4)
    assert span.dimension == 10
    assert all(isinstance(mat, ExactMatrix) for mat in span.basis())
    assert span.contains(ctx.adjacency[1])
    assert span.contains(identity(4).scaled(3))
