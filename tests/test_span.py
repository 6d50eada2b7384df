"""ExactSpan, and the spans over Q(zeta_N) that the references rank by
restriction of scalars to it, against the CycloNum Gauss-Jordan elimination
that ExactSpan replaced.

``ReferenceSpan`` (``reference.py``) is the reference: it keeps one
CycloNum per entry, scales each accepted row to pivot one and reduces every
stored row against it.  Over Q, ``ExactSpan`` keeps the reduced echelon
form of the same subspace, so insert verdicts, dimensions, basis vectors
and membership must agree exactly, whatever the insertion order.  Over
Q(zeta_N), ``CycloSpan`` (``reference.py``) is the package's ``ExactSpan``
of the planes of zeta_N^k v, k < phi(N), for each v inserted: insert
verdicts, dimensions and membership must agree with the reference, and
every reference row must be a member, which with equal dimensions makes the
two subspaces equal.  Over Q the rational inserts also run on a plain
``ExactSpan``, whose basis must be the reference's rows exactly.
"""

import math
from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import CycloMatrix, CycloSpan, ReferenceSpan

from wreathalg import ZERO, ExactMatrix, ExactSpan, euler_phi, zeta

# The same examples on every run, and no example database on disk.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def row(vec):
    """A vector, as the 1 x n matrix a span of vectors holds."""
    return CycloMatrix.from_rows([vec])


def basis_vectors(span):
    return [m.flat() for m in span.basis()]


def assert_same_subspace(span, reference, exact=None):
    """Equal dimensions, and every reference row a member of ``span``; and
    the reference's rows the reduced echelon basis of ``exact``, if given."""
    assert span.dimension == len(reference.rows)
    assert all(span.contains(row(vec)) for vec in reference.vectors())
    assert exact is None or basis_vectors(exact) == reference.vectors()


def insert_agrees(span, reference, vec, exact=None):
    """Insert ``vec`` into the spans, whose verdicts must agree; ``exact``,
    a plain ``ExactSpan`` beside a span over Q, takes its one plane."""
    verdict = reference.insert(vec)
    assert span.insert(row(vec)) == verdict
    assert exact is None or exact.insert(row(vec).planes[0]) == verdict


@st.composite
def elements(draw, conductor, size=2):
    """An element of Z[zeta_conductor] with coefficients in [-size, size],
    small by default, zero half of the time."""
    if draw(st.booleans()):
        return ZERO
    value = ZERO
    for k in range(euler_phi(conductor)):
        value = value + zeta(conductor, k) * draw(st.integers(-size, size))
    return value


@st.composite
def vectors(draw, length, conductor, known=(), size=2):
    """A vector over Q(zeta_conductor); often a combination of ``known``
    ones, so that some inserts are rejected."""
    if known and draw(st.booleans()):
        picked = draw(st.lists(st.sampled_from(known), min_size=1, max_size=3))
        vec = [ZERO] * length
        for other in picked:
            c = draw(elements(conductor, size))
            vec = [a + c * b for a, b in zip(vec, other)]
        return vec
    return [draw(elements(conductor, size)) for _ in range(length)]


def rational_span(field, length):
    """A plain ``ExactSpan`` of vectors to run beside the span over Q, else None."""
    return ExactSpan(1, length) if field == (1,) else None


# Conductors of the vectors, in insertion order; (3, 4) adds Q(zeta_4) rows
# to a span that already holds Q(zeta_3) rows, all over Q(zeta_12).
FIELDS = [(1,), (3,), (4,), (3, 4)]
# the conductors of the membership probes, some of them not inserted
PROBES = (1, 3, 4, 5)


@given(st.data(), st.sampled_from(FIELDS), st.integers(2, 6))
@SETTINGS
def test_span_matches_the_reference_echelon(data, field, length):
    span = CycloSpan(1, length, math.lcm(*field, *PROBES))
    reference, inserted, exact = ReferenceSpan(), [], rational_span(field, length)
    for conductor in field:
        for k in range(data.draw(st.integers(1, 5))):
            vec = data.draw(vectors(length, conductor, inserted))
            if k == 0:
                vec[0] = zeta(conductor)  # each field's first vector is irrational
            insert_agrees(span, reference, vec, exact)
            inserted.append(vec)
    assert_same_subspace(span, reference, exact)
    # membership, also of vectors over a conductor no inserted vector has
    for conductor in PROBES:
        vec = data.draw(vectors(length, conductor, inserted))
        stored = basis_vectors(span)
        assert span.contains(row(vec)) == reference.contains(vec)
        assert basis_vectors(span) == stored


@given(st.data(), st.sampled_from(FIELDS))
@SETTINGS
def test_basis_matrices_are_the_reference_rows(data, field):
    span, reference, inserted = CycloSpan(2, 3, math.lcm(*field)), ReferenceSpan(), []
    for conductor in field:
        for k in range(data.draw(st.integers(1, 4))):
            vec = data.draw(vectors(6, conductor, inserted))
            if k == 0:
                vec[0] = zeta(conductor)
            span.insert(CycloMatrix.from_rows([vec[:3], vec[3:]]))
            reference.insert(vec)
            inserted.append(vec)
    assert span.dimension == len(reference.rows)
    for vec in reference.vectors():
        assert span.contains(CycloMatrix.from_rows([vec[:3], vec[3:]]))
    if math.lcm(*field) == 1:  # over Q, the basis matrices are the reference's rows
        assert basis_vectors(span) == reference.vectors()
        assert all(span.contains(mat) for mat in span.basis())


def test_irrational_pivots_over_q_zeta_35():
    # phi(35) = 24: each vector is 24 rational planes, and each insert
    # adjoins its 24 multiples by the powers of zeta_35
    rng = Random(35)

    def element():
        return sum((zeta(35, k) * rng.randint(-2, 2) for k in range(24)), ZERO)

    span, reference, inserted = CycloSpan(1, 4, 35), ReferenceSpan(), []
    for k in range(4):
        vec = [element() for _ in range(4)]
        vec[0] = vec[0] + zeta(35)  # nonzero and irrational
        if k == 3:  # a combination of the first two, with irrational weights
            c = element()
            vec = [a * zeta(35, 3) + b * c for a, b in zip(inserted[0], inserted[1])]
        assert span.insert(row(vec)) == reference.insert(vec)
        inserted.append(vec)
    assert span.dimension == len(reference.rows) == 3
    assert span.span.dimension == 3 * 24
    assert_same_subspace(span, reference)
    c = element()
    probe = [a * c + b for a, b in zip(inserted[2], inserted[1])]
    assert span.contains(row(probe)) and reference.contains(probe)
    outside = [element() for _ in range(4)]
    assert span.contains(row(outside)) == reference.contains(outside)


# Coefficients up to 2^40 start past 32-bit slots, and the elimination's
# cross-multiplications and combinations of known vectors reach past 64 bits.
BIG = 1 << 40


@given(st.data(), st.sampled_from([(1,), (3,), (3, 4)]), st.integers(2, 5))
@SETTINGS
def test_span_with_entries_past_the_slot_widths_matches_the_reference(data, field, length):
    span, reference, inserted = CycloSpan(1, length, math.lcm(*field, 3, 4)), ReferenceSpan(), []
    exact = rational_span(field, length)
    for conductor in field:
        for k in range(data.draw(st.integers(1, 4))):
            vec = data.draw(vectors(length, conductor, inserted, BIG))
            if k == 0:
                vec[0] = zeta(conductor) * BIG + 1
            insert_agrees(span, reference, vec, exact)
            inserted.append(vec)
    assert_same_subspace(span, reference, exact)
    for conductor in (1, 3, 4):
        vec = data.draw(vectors(length, conductor, inserted, BIG))
        assert span.contains(row(vec)) == reference.contains(vec)
    assert_same_subspace(span, reference)


def test_elimination_widens_past_64_bit_slots():
    # Clearing q against the stored pivot p, coprime to it, scales the
    # vector by p: the proven bound passes 2^63, so the span repacks at 128.
    p, q = BIG + 1, BIG + 3
    span, reference = ExactSpan(1, 4), ReferenceSpan()
    for vec in ([p, 1, 0, 0], [q, 0, 1, 0]):
        assert span.insert(ExactMatrix.from_rows([vec])) and reference.insert(vec)
    assert span.width == 128
    assert basis_vectors(span) == reference.vectors()
    for probe in ([p * q, q, p, 0], [p * q, q, p, 1], [0, q, -p, 0]):
        assert span.contains(ExactMatrix.from_rows([probe])) == reference.contains(probe)
    assert span.contains(ExactMatrix.from_rows([[0, q, -p, 0]]))
