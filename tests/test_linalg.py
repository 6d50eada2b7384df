import random
from fractions import Fraction

import pytest
from reference import CycloMatrix, CycloSpan, block, block_ones, identity, product_closure, trace

from wreathalg import ExactMatrix, ExactSpan, rational, zeta


def row(*entries):
    """A vector, as the 1 x n matrix a span of vectors holds."""
    return ExactMatrix.from_rows([list(entries)])


def test_matrix_basics():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b) == ExactMatrix.from_rows([[2, 1], [4, 3]])
    assert a + b == ExactMatrix.from_rows([[1, 3], [4, 4]])
    assert a - a == ExactMatrix.zeros(2, 2)
    assert a.transpose() == ExactMatrix.from_rows([[1, 3], [2, 4]])
    assert trace(a) == rational(5)
    assert identity(2) * a == a
    assert a.scaled(Fraction(1, 2))[0, 1] == rational(1)
    assert all(type(v) is Fraction for v in a.flat()) and a.data == [[1, 2], [3, 4]]


def test_block_ones_and_nonzero_rows():
    mat = block_ones(3, 4, [0, 2], [1, 3])
    assert mat == ExactMatrix.from_rows([[0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1]])
    assert mat.nonzero_rows() == [0, 2]
    assert block_ones(2, 2, [], [0]).is_zero()
    assert ExactMatrix.from_rows([[0, 0], [0, Fraction(1, 3)]]).nonzero_rows() == [1]


@pytest.mark.parametrize("entry", [0.5, "3", zeta(3), rational(1), True],
                         ids=["float", "str", "irrational", "cyclonum", "bool"])
def test_an_entry_that_is_not_an_int_or_a_fraction_is_refused(entry):
    # the kernel is exact over Q: a float, a string, a bool or a CycloNum,
    # even a rational one, never reaches it
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[entry, 1]])
    with pytest.raises(TypeError):
        ExactMatrix(1, 2, [[Fraction(1, 2), entry]])
    with pytest.raises(TypeError):
        identity(2).scaled(entry)


def test_matrix_shape_errors():
    a = ExactMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        a + identity(2)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1], [1, 2]])


def test_matrix_block():
    # rows 1, 3 and columns 0, 2 of a matrix that is zero elsewhere, read by
    # the reference of span-accounting, plane by plane
    w = zeta(3, 1)
    a = CycloMatrix.from_rows([[0, 0, 0, 0], [Fraction(1, 2), 0, w, 0],
                               [0, 0, 0, 0], [0, 0, 3, 0]])
    assert block(a, [1, 3], [0, 2]) == CycloMatrix.from_rows([[Fraction(1, 2), w], [0, 3]])
    assert block(a, [1, 3], [0, 2, 3]) == CycloMatrix.from_rows([[Fraction(1, 2), w, 0],
                                                               [0, 3, 0]])
    # a nonzero entry in another row, or in another column of the same rows
    assert block(a, [1], [0, 2]) is None
    assert block(a, [1, 3], [2]) is None
    # only the irrational plane of the entry (1, 2) is off the block
    rational_part = ExactMatrix.from_rows([[0, 0, 0, 0], [Fraction(1, 2), 0, 0, 0],
                                           [0, 0, 0, 0], [0, 0, 3, 0]])
    assert block(a - rational_part, [1, 3], [0]) is None
    assert block(rational_part, [1, 3], [0, 2]) == ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, 3]])


def test_matrix_vector_product():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert a * ExactMatrix.from_rows([[1], [1]]) == ExactMatrix.from_rows([[3], [7]])


def test_span_rank_and_membership():
    span = ExactSpan(1, 3)
    assert span.insert(row(1, 2, 3))
    assert span.insert(row(0, 1, 1))
    assert not span.insert(row(1, 3, 4))
    assert span.dimension == 2
    assert span.contains(row(2, 5, 7))
    assert not span.contains(row(0, 0, 1))


def test_span_fraction_input():
    span = ExactSpan(1, 2)
    span.insert(row(Fraction(1, 2), Fraction(1, 3)))
    assert span.contains(row(3, 2))
    assert span.dimension == 1


def test_span_reduced_form_is_pivot_one():
    span = ExactSpan(1, 3)
    span.insert(row(2, 4, 0))
    span.insert(row(2, 5, 0))
    rows = [m.flat() for m in span.basis()]
    assert rows[0] == [rational(1), rational(0), rational(0)]
    assert rows[1] == [rational(0), rational(1), rational(0)]


@pytest.mark.parametrize("field", ["int", "cyclo"])
def test_span_basis_is_independent_of_insertion_order(field):
    rng = random.Random(7)
    unit = zeta(3) if field == "cyclo" else 1
    gens = [[rng.randrange(-3, 4) * unit ** rng.randrange(3) for _ in range(6)] for _ in range(3)]
    combos = []
    for _ in range(4):
        coeffs = [rng.randrange(-2, 3) for _ in gens]
        combos.append([sum((c * g[k] for c, g in zip(coeffs, gens)), 0 * unit) for k in range(6)])
    vectors = gens + combos
    reference = None
    for _ in range(5):
        rng.shuffle(vectors)
        span = CycloSpan(1, 6, 3) if field == "cyclo" else ExactSpan(1, 6)
        for vec in vectors:
            span.insert(CycloMatrix.from_rows([vec]) if field == "cyclo" else row(*vec))
        if reference is None:
            reference = [m.flat() for m in span.basis()]
        assert span.dimension == 3
        assert [m.flat() for m in span.basis()] == reference


def test_span_basis_matrices():
    mats = [ExactMatrix.from_rows([[1, 0], [0, 0]]), ExactMatrix.from_rows([[1, 0], [0, 1]])]
    basis = ExactSpan.from_matrices(mats)
    assert basis.dimension == 2
    assert basis.contains(ExactMatrix.from_rows([[0, 0], [0, 3]]))
    assert not basis.contains(ExactMatrix.from_rows([[0, 1], [0, 0]]))
    rebuilt = basis.basis()
    assert all(isinstance(m, ExactMatrix) for m in rebuilt)
    assert rebuilt[0][0, 0] == rational(1)
    assert basis.shape == (2, 2)
    with pytest.raises(ValueError):
        basis.contains(ExactMatrix.from_rows([[1, 0, 0, 0]]))
    with pytest.raises(ValueError):
        ExactSpan.from_matrices([])


def test_closure_of_identity():
    assert product_closure([identity(3)]).dimension == 1


def test_closure_of_orthogonal_idempotents():
    mats = []
    for i in range(4):
        m = ExactMatrix.zeros(4, 4).data
        rows = [list(r) for r in m]
        rows[i][i] = 1
        mats.append(ExactMatrix(4, 4, rows))
    assert product_closure(mats).dimension == 4


def test_closure_generates_matrix_units():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    e21 = ExactMatrix.from_rows([[0, 0], [1, 0]])
    closure = product_closure([e12, e21])
    assert closure.dimension == 4


def test_closure_idempotent():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    e21 = ExactMatrix.from_rows([[0, 0], [1, 0]])
    closure = product_closure([e12, e21])
    again = product_closure(closure.basis())
    assert again.dimension == closure.dimension


def test_closure_handles_cyclotomic_generators():
    z = zeta(4)
    m = CycloMatrix.from_rows([[z, 0], [0, 1]])
    closure = product_closure([m, identity(2)])
    # powers of m stay inside span{m, I, m^2=-diag(1,0)+...}: diag algebra has dim 2
    assert closure.dimension == 2
    assert closure.contains(ExactMatrix.from_rows([[1, 0], [0, 0]]))


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        product_closure([])
    with pytest.raises(ValueError):
        product_closure([ExactMatrix.from_rows([[1, 2]])])
