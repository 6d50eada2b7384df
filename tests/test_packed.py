"""Packed rational matrices, and the matrices over Q(zeta_N) that the
references hold as planes of them, against the entrywise CycloNum
reference, and the field laws of CycloNum itself, as properties over random
inputs.

``grid_product`` and ``grid_map`` (``reference.py``) are the reference:
they compute on CycloNum grids one entry at a time, the way ExactMatrix did
before it stored packed rows.  Every packed operation must decode to the
reference's entries, and every packed ``==``/``is_zero`` must agree with the
entrywise comparison.  Over Q the operations are the package's
``ExactMatrix``'s; over Q(zeta_N) they are ``CycloMatrix``'s
(``reference.py``), whose planes are ``ExactMatrix`` and whose every step is
an ``ExactMatrix`` sum, scaling or product.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import CycloMatrix, grid_map, grid_product, identity

from wreathalg import ZERO, CycloNum, ExactMatrix, euler_phi, zeta
from wreathalg import linalg

# The same examples on every run, and no example database on disk.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
CONDUCTORS = (1, 2, 3, 4, 5, 12)

# Near the 32-bit slot bound, so that products and cross-multiplied
# comparisons must widen, and beyond it, so that packing starts wide.
BIG = 1 << 31
integers = st.one_of(
    st.integers(-3, 3),
    st.integers(BIG - 8, BIG + 8),
    st.integers(-BIG - 8, -BIG + 8),
    st.integers(-(1 << 70), 1 << 70),
)
fractions = st.builds(Fraction, integers, st.integers(1, 6))


@st.composite
def cyclo(draw, conductors=CONDUCTORS, small=False):
    n = draw(st.sampled_from(conductors))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)) if small else fractions
    # mostly zeros, as in the matrices of a scheme
    value = ZERO
    for k in range(euler_phi(n)):
        if draw(st.integers(0, 2)) == 0:
            value = value + zeta(n, k) * draw(coeff)
    return value


@st.composite
def matrices(draw, rows, cols, conductors):
    """The package's own matrix where every entry is rational, else the
    reference's planes."""
    mat = CycloMatrix.from_rows([[draw(cyclo(conductors)) for _ in range(cols)] for _ in range(rows)])
    return mat.planes[0] if mat.conductor == 1 else mat


FIELDS = st.sampled_from([(1,), (3,), (4,), (1, 3, 4), (2, 12)])
shapes = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@given(st.data(), shapes, FIELDS)
@SETTINGS
def test_product_matches_the_grid_product(data, shape, field):
    r, k, c = shape
    a = data.draw(matrices(r, k, field))
    b = data.draw(matrices(k, c, field))
    product = a * b
    reference = grid_product(a.data, b.data)
    assert product.data == reference
    assert product == CycloMatrix.from_rows(reference)
    assert product.is_zero() == all(v.is_zero() for row in reference for v in row)


@given(st.data(), shapes, FIELDS)
@SETTINGS
def test_sum_difference_transpose_and_negation(data, shape, field):
    r, c, _ = shape
    a = data.draw(matrices(r, c, field))
    b = data.draw(matrices(r, c, field))
    assert (a + b).data == grid_map(lambda x, y: x + y, a.data, b.data)
    assert (a - b).data == grid_map(lambda x, y: x - y, a.data, b.data)
    assert (-a).data == grid_map(lambda x: -x, a.data)
    assert a.transpose().data == [list(col) for col in zip(*a.data)]
    assert (a - a).is_zero()
    assert a + b - b == a


@given(st.data(), st.integers(1, 4), st.integers(1, 4), FIELDS, cyclo())
@SETTINGS
def test_scaled_matches_entrywise_scaling(data, r, c, field, scalar):
    a = CycloMatrix.of(data.draw(matrices(r, c, field)))
    scaled = a.scaled(scalar)
    assert scaled.data == grid_map(lambda x: scalar * x, a.data)
    assert scaled.is_zero() == (scalar.is_zero() or a.is_zero())


@given(st.data(), st.integers(1, 3), st.integers(1, 3), FIELDS, FIELDS)
@SETTINGS
def test_equality_matches_entrywise_equality(data, r, c, field_a, field_b):
    a = data.draw(matrices(r, c, field_a))
    b = data.draw(matrices(r, c, field_b))
    assert (a == b) == (a.data == b.data)
    # equal matrices of different denominators, conductors and widths
    same = CycloMatrix.of(a).scaled(Fraction(1, 3)).scaled(zeta(4)).scaled(zeta(4, 3)).scaled(3)
    assert same == a and a == same
    assert same.data == a.data
    if not a.is_zero():
        width = max(plane.width for plane in CycloMatrix.of(a).planes)
        wide = a.scaled(1 << width).scaled(Fraction(1, 1 << width))
        assert max(plane.width for plane in CycloMatrix.of(wide).planes) > width
        assert wide == a and a == wide
        assert a != a.scaled(2)


@given(cyclo(small=True), cyclo(small=True), cyclo(small=True))
@SETTINGS
def test_cyclonum_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a * a.inv() == 1
        assert (b / a) * a == b


def test_entries_near_the_slot_bound_round_trip():
    top = BIG - 1  # the largest entry 32-bit slots certify
    for values in ([[top, -top], [1, 0]], [[BIG, -top], [0, 0]], [[-BIG, 1], [top, 2]]):
        mat = ExactMatrix.from_rows(values)
        assert mat.width == (32 if max(abs(v) for row in values for v in row) < BIG else 64)
        assert mat.data == values
        assert mat * identity(2) == mat
        assert (mat * mat).data == grid_product(mat.data, mat.data)


def test_reduction_modulo_phi_is_in_the_bound():
    # (1 - z)(m z - m) = 3 m z in Q(zeta_3): reducing z^2 = -1 - z makes an
    # entry larger than the operands' row sum times bound, 2 m < 2^31 <= 3 m,
    # so the rational sums of the planes must widen
    m = (1 << 30) - 1
    z = zeta(3)
    a = CycloMatrix.from_rows([[1 - z]])
    b = CycloMatrix.from_rows([[m * z - m]])
    assert (a * b).data == [[3 * m * z]]
    assert a * b == CycloMatrix.from_rows([[3 * m * z]])
    assert (a * b).planes[1].width == 64


@pytest.fixture
def narrow_slots(monkeypatch):
    """Every width decision picks 8-bit slots, whatever the bound."""
    monkeypatch.setattr(linalg, "_width_for", lambda bound: 8)


def test_too_narrow_slots_raise_in_construction(narrow_slots):
    with pytest.raises(ArithmeticError):
        ExactMatrix.from_rows([[200, 1]])


def test_too_narrow_slots_raise_in_products(narrow_slots):
    a = ExactMatrix.from_rows([[100, 100], [100, 100]])  # certified: 100 < 2^7
    with pytest.raises(ArithmeticError):
        a * a  # entries 20000 would overflow the slots


def test_too_narrow_slots_raise_instead_of_comparing(narrow_slots):
    a = ExactMatrix.from_rows([[100, 1]])
    third = a.scaled(Fraction(1, 3))  # certified: same numerators, den 3
    with pytest.raises(ArithmeticError):
        a == third  # cross-multiplies a's numerators by 3, past 2^7
    with pytest.raises(ArithmeticError):
        a.scaled(2)


def test_too_narrow_slots_raise_in_the_private_constructor():
    row = linalg._pack([1, 0], 8)
    assert linalg.ExactMatrix._packed(1, 2, 1, 1, 8, [row]).flat() == [1, 0]
    with pytest.raises(ArithmeticError):
        linalg.ExactMatrix._packed(1, 2, 1, 200, 8, [row])


def test_mixed_conductor_product_lands_in_the_lcm():
    third = CycloMatrix.from_rows([[zeta(3), 0], [0, 1]])
    half = CycloMatrix.from_rows([[zeta(4), 1], [0, zeta(2)]])
    product = third * half
    assert product.conductor == 12
    assert product.data == grid_product(third.data, half.data)
    assert isinstance(product[0, 0], CycloNum)
