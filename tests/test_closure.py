"""The word-schedule closure against the pairwise fixpoint it replaced.

``pairwise_closure`` is the reference: round by round it multiplies every
pair of accepted spanning matrices, at least one of them new, until a round
adds nothing.  Both must give the same dimension and, because the span
stores the reduced echelon form of the subspace, the same basis.
"""

from fractions import Fraction

import pytest

from wreathalg import (
    ExactMatrix,
    ExactSpan,
    Scheme,
    build_central_idempotents,
    make_context,
    product_closure,
    standard_generators,
    wreath_context,
)


def pairwise_closure(matrices) -> ExactSpan:
    n = matrices[0].rows
    span = ExactSpan(n, n)
    reps = [m for m in matrices if span.insert(m)]
    processed = 0
    while processed < len(reps):
        count = len(reps)
        for i in range(count):
            for j in range(count):
                if i >= processed or j >= processed:
                    product = reps[i] * reps[j]
                    if span.insert(product):
                        reps.append(product)
        processed = count
    return span


def assert_same_closure(generators):
    expected = pairwise_closure(generators)
    actual = product_closure(generators)
    assert actual.dimension == expected.dimension
    assert actual.basis() == expected.basis()


@pytest.mark.parametrize(
    "moduli, base_point",
    [((2, 3), 0), ((2, 3), 1), ((2, 3), 5), ((3, 3), 0), ((3, 3), 4), ((2, 2, 2), 0), ((2, 2, 2), 7)],
)
def test_wreath_closure_matches_pairwise(moduli, base_point):
    assert_same_closure(standard_generators(wreath_context(moduli, base_point)))


def test_non_wreath_closure_matches_pairwise():
    # the broken table of the triple-regularity counterexample
    table = [
        [0, 2, 1, 1],
        [2, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    for x in range(4):
        assert_same_closure(standard_generators(make_context(Scheme(table), x)))


def test_cyclotomic_closure_matches_pairwise():
    # the idempotents of (3,2) have entries in Q(zeta_3)
    ctx = wreath_context((3, 2), 0)
    idempotents = list(build_central_idempotents(ctx).matrices.values())
    assert all(any(not a.is_rational() for a in e.flat()) for e in idempotents)
    assert_same_closure(idempotents + standard_generators(ctx))
    assert_same_closure(idempotents[:1] + [ctx.adjacency[1]])


def test_rational_reclosure_matches_pairwise():
    # criterion 11b closes the closure's own basis again; scaling that basis
    # by non-integral rationals keeps the algebra but not the integer entries
    basis = product_closure(standard_generators(wreath_context((2, 3), 0))).basis()
    assert_same_closure(basis)
    assert_same_closure([m.scaled(Fraction(2, k + 3)) for k, m in enumerate(basis)])


def test_closure_needs_long_words():
    # one 5-cycle P generates span{P, P^2, P^3, P^4, P^5 = I}: the last two
    # need words of length 4 and 5
    cycle = ExactMatrix.from_rows([[1 if c == (r + 1) % 5 else 0 for c in range(5)]
                                   for r in range(5)])
    closure = product_closure([cycle])
    assert closure.dimension == 5
    assert closure.contains(ExactMatrix.identity(5))
    assert pairwise_closure([cycle]).dimension == 5
