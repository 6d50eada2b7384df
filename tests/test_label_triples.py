"""The class-table facts behind T_0, against the matrices they stand for.

``label_triples`` (``reference.py``) reads which triple products
E_i* A_j E_h* are nonzero from the class table, ``starting_pieces`` packs
the products themselves as sphere blocks, and ``t0_dimension`` counts them.
``pieces_by_rows`` (``reference.py``) is the entry-by-entry build of the
pieces that ``starting_pieces`` replaced.  ``triple_product`` and
``t0_span`` (``reference.py``) are the exact matrix reference, and the
intersection numbers are a second, base-point-free one (Terwilliger 1992,
Lemma 3.2).
"""

from fractions import Fraction
from itertools import product as iter_product
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import (
    example_schemes,
    label_triples,
    make_context,
    moduli_up_to,
    moved_pair_table,
    pieces_by_rows,
    relabelled,
    t0_dimension,
    t0_span,
    triple_product,
    wreath_point,
)

from wreathalg import (
    BasePoint,
    CycloNum,
    check_triple_list,
    cyclotomic_polynomial,
    euler_phi,
    predict_triple_nonzero,
    predict_vanishing,
    rational,
    starting_pieces,
    wreath_of_cyclics,
    zeta,
)

# The same examples on every run, and no example database on disk.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

LADDER = [(2, 3), (3, 3), (2, 2, 2, 2), (2, 3, 4)]
SCHEMES = {
    **{"x".join(map(str, m)): wreath_of_cyclics(m) for m in LADDER},
    **{name: scheme for name, scheme in example_schemes().items() if name != "t22"},
}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_table_facts_match_the_matrices_at_every_point(name):
    scheme = SCHEMES[name]
    c = scheme.classes
    triples = list(iter_product(range(c), repeat=3))
    by_intersection = {tr for tr in triples if scheme.intersection_number(*tr) != 0}
    for j in range(c):
        adjacency = scheme.adjacency_matrix(j)
        for y, z in iter_product(range(scheme.order), repeat=2):
            # the fact that lets block-form read its blocks from the table
            assert (adjacency[y, z] == 1) == (scheme.table[y][z] == j)
    for x in range(scheme.order):
        ctx = make_context(scheme, x)
        labels = label_triples(scheme, x)
        assert labels == {tr for tr in triples if not triple_product(ctx, *tr).is_zero()}
        assert labels == by_intersection
        assert t0_dimension(scheme, x) == t0_span(ctx).dimension == len(labels)
        # each piece is the block of its triple product on its two spheres
        for (i, j, h), piece in starting_pieces(scheme, x).items():
            assert piece.data == [[triple_product(ctx, i, j, h)[y, z] for z in ctx.spheres[h]]
                                  for y in ctx.spheres[i]]


PIECE_CASES = {
    **{str(m): (lambda m=m: wreath_of_cyclics(m), None) for m in moduli_up_to(12)},
    "(2, 3, 4)@4": (lambda: wreath_of_cyclics((2, 3, 4)), [4]),
    "relabelled-444-seed-1@0": (lambda: relabelled((4, 4, 4), 1), [0]),
    "relabelled-444-seed-1103@0": (lambda: relabelled((4, 4, 4), 1103), [0]),
    **{name: (lambda name=name: example_schemes()[name], None) for name in ("shrikhande", "s3")},
    "moved-pair": (moved_pair_table, None),
}


@pytest.mark.parametrize("name", PIECE_CASES)
def test_packed_pieces_match_the_blocks_built_entry_by_entry(name):
    # every point of every tuple of order <= 12, and single points of the
    # larger tables: the same keys in the same order, and each piece equal
    # to the from_rows block in value and in its packed representation
    build, points = PIECE_CASES[name]
    scheme = build()
    for x in range(scheme.order) if points is None else points:
        packed, reference = starting_pieces(scheme, x), pieces_by_rows(scheme, x)
        assert list(packed) == list(reference) == sorted(label_triples(scheme, x))
        for key, piece in reference.items():
            assert packed[key] == piece
            assert (packed[key].rows, packed[key].cols, packed[key].packed, packed[key].width,
                    packed[key].bound, packed[key].den) == (
                piece.rows, piece.cols, piece.packed, piece.width, piece.bound, piece.den)


def test_label_triples_rejects_a_bad_base_point():
    scheme = wreath_of_cyclics((2, 3))
    for x in (-1, scheme.order):
        with pytest.raises(ValueError):
            label_triples(scheme, x)


def test_triple_list_fails_on_one_relabelled_pair():
    # The (2,3) table with the symmetric pair (0, 1)/(1, 0) moved from class 1
    # to class 2 is no longer a scheme.  Its label triples change at every
    # point, still as the products say, and the table-read triple-list fails
    # there with its witness.
    m = (2, 3)
    intact = wreath_of_cyclics(m)
    broken = moved_pair_table()
    triples = list(iter_product(range(broken.classes), repeat=3))
    for x in range(broken.order):
        ctx = make_context(broken, x, moduli=m)
        labels = label_triples(broken, x)
        assert labels != label_triples(intact, x)
        assert labels == {tr for tr in triples if not triple_product(ctx, *tr).is_zero()}
        assert not check_triple_list(BasePoint(broken, m, x, {})).passed
        assert check_triple_list(wreath_point(m, x)).passed
    assert check_triple_list(BasePoint(broken, m, 0, {})).witness == (
        "x=0, classes (WreathIndex(0,0),WreathIndex(1,1),WreathIndex(1,1)): "
        "predicted nonzero, product is zero"
    )
    assert check_triple_list(BasePoint(broken, m, 2, {})).witness == (
        "x=2, classes (WreathIndex(2,2),WreathIndex(1,1),WreathIndex(2,2)): "
        "predicted nonzero, product is zero"
    )


@st.composite
def moduli_and_point(draw):
    """Moduli of a wreath scheme of order at most 24, and a base point."""
    moduli, order = [], 1
    while order * 2 <= 24 and (not moduli or draw(st.booleans())):
        p = draw(st.integers(2, 24 // order))
        moduli.append(p)
        order *= p
    return tuple(moduli), draw(st.integers(0, order - 1))


@SETTINGS
@given(moduli_and_point())
def test_predictions_agree_with_labels_and_intersection_numbers(case):
    m, x = case
    scheme = wreath_of_cyclics(m)
    labels = label_triples(scheme, x)
    for a, b, c in iter_product(range(scheme.classes), repeat=3):
        nonzero = scheme.intersection_number(a, b, c) != 0
        assert predict_triple_nonzero(m, a, b, c) == ((a, b, c) in labels) == nonzero
        assert predict_vanishing(m, a, b, c) == (not nonzero)


# -- sympy as an independent oracle for the cyclotomic arithmetic ----------------------


def _sympy_coeffs(poly, length):
    """Constant-first Fraction coefficients of a sympy Poly, padded to length."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return coeffs + [Fraction(0)] * (length - len(coeffs))


@pytest.mark.parametrize("n", [*range(1, 32), 35, 36, 48, 60, 63, 64])
def test_cyclotomic_arithmetic_against_sympy(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi_n = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    assert list(cyclotomic_polynomial(n)) == _sympy_coeffs(phi_n, euler_phi(n) + 1)
    # the powers of zeta_n, z^d reduced modulo Phi_n, as the test references read them
    for d in range(2 * n + 1):
        assert list(zeta(n, d).coeffs) == _sympy_coeffs(sympy.Poly(x**d, x).rem(phi_n), euler_phi(n))
    rng = Random(n)
    for _ in range(3):
        value = CycloNum(n, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                  for _ in range(euler_phi(n))))
        if value.is_zero():
            value = value + rational(1)
        inverse = sympy.invert(
            sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in
                        reversed(value.coeffs)], x), phi_n
        )
        assert list(value.inv().coeffs) == _sympy_coeffs(sympy.Poly(inverse, x), euler_phi(n))
        assert all(type(c) is Fraction for c in value.inv().coeffs)
