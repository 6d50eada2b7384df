"""ExactSpan against the CycloNum Gauss-Jordan elimination it replaced.

``ReferenceSpan`` (``reference.py``) is the reference: it keeps one
CycloNum per entry, scales each accepted row to pivot one and reduces every
stored row against it, the way ExactSpan held irrational spans before its
rows became integer coefficients over Z[zeta_N].  Both keep the reduced echelon form of the
same subspace, so insert verdicts, dimensions, basis vectors and membership
must agree exactly, whatever the conductors and the insertion order.
"""

import math
from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import ReferenceSpan

from wreathalg import ZERO, ExactMatrix, ExactSpan, euler_phi, zeta

# The same examples on every run, and no example database on disk.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def row(vec):
    """A vector, as the 1 x n matrix a span of vectors holds."""
    return ExactMatrix.from_rows([vec])


def basis_vectors(span):
    return [m.flat() for m in span.basis()]


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


# Conductors of the vectors, in insertion order; (3, 4) widens a span that
# already holds Q(zeta_3) rows to conductor 12.
FIELDS = [(1,), (3,), (4,), (3, 4)]


@given(st.data(), st.sampled_from(FIELDS), st.integers(2, 6))
@SETTINGS
def test_span_matches_the_reference_echelon(data, field, length):
    span, reference, inserted = ExactSpan(1, length), ReferenceSpan(), []
    for conductor in field:
        for k in range(data.draw(st.integers(1, 5))):
            vec = data.draw(vectors(length, conductor, inserted))
            if k == 0:
                vec[0] = zeta(conductor)  # each field's first vector is irrational
            assert span.insert(row(vec)) == reference.insert(vec)
            inserted.append(vec)
    widened = math.lcm(*field)
    assert span.conductor == widened
    assert span.dimension == len(reference.rows)
    assert basis_vectors(span) == reference.vectors()
    # membership, also of vectors over a conductor the span has not seen
    for conductor in (1, 3, 4, 5):
        vec = data.draw(vectors(length, conductor, inserted))
        stored = basis_vectors(span)
        assert span.contains(row(vec)) == reference.contains(vec)
        assert basis_vectors(span) == stored
    assert span.conductor == widened


@given(st.data(), st.sampled_from([3, 4]), st.integers(2, 6))
@SETTINGS
def test_irrational_membership_in_a_rational_span(data, conductor, length):
    span, reference = ExactSpan(1, length), ReferenceSpan()
    rational = [data.draw(vectors(length, 1)) for _ in range(data.draw(st.integers(1, 4)))]
    for vec in rational:
        span.insert(row(vec))
        reference.insert(vec)
    # an irrational multiple of a member is a member over the larger field
    c = zeta(conductor) + data.draw(st.integers(-2, 2))
    probes = [[c * a for a in rational[0]], data.draw(vectors(length, conductor, rational))]
    for vec in probes:
        assert span.contains(row(vec)) == reference.contains(vec)
    assert span.contains(row(probes[0]))
    assert span.conductor == 1


@given(st.data(), st.sampled_from(FIELDS))
@SETTINGS
def test_basis_matrices_are_the_reference_rows(data, field):
    span, reference, inserted = ExactSpan(2, 3), ReferenceSpan(), []
    for conductor in field:
        for k in range(data.draw(st.integers(1, 4))):
            vec = data.draw(vectors(6, conductor, inserted))
            if k == 0:
                vec[0] = zeta(conductor)
            span.insert(ExactMatrix(2, 3, [vec[:3], vec[3:]]))
            reference.insert(vec)
            inserted.append(vec)
    assert basis_vectors(span) == reference.vectors()
    for m in span.basis():
        assert span.contains(m)


def test_irrational_pivots_over_q_zeta_35():
    # phi(35) = 24: the pivot is made rational by its adjugate, a product of
    # 23 Galois conjugates, and the rows must still be the reference's
    rng = Random(35)

    def element():
        return sum((zeta(35, k) * rng.randint(-2, 2) for k in range(24)), ZERO)

    span, reference, inserted = ExactSpan(1, 4), ReferenceSpan(), []
    for k in range(4):
        vec = [element() for _ in range(4)]
        vec[0] = vec[0] + zeta(35)  # nonzero and irrational
        if k == 3:  # a combination of the first two, with irrational weights
            c = element()
            vec = [a * zeta(35, 3) + b * c for a, b in zip(inserted[0], inserted[1])]
        assert span.insert(row(vec)) == reference.insert(vec)
        inserted.append(vec)
    assert span.conductor == 35
    assert span.dimension == len(reference.rows) == 3
    assert basis_vectors(span) == reference.vectors()
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
    span, reference, inserted = ExactSpan(1, length), ReferenceSpan(), []
    for conductor in field:
        for k in range(data.draw(st.integers(1, 4))):
            vec = data.draw(vectors(length, conductor, inserted, BIG))
            if k == 0:
                vec[0] = zeta(conductor) * BIG + 1
            assert span.insert(row(vec)) == reference.insert(vec)
            inserted.append(vec)
    assert span.dimension == len(reference.rows)
    assert basis_vectors(span) == reference.vectors()
    for conductor in (1, 3, 4):
        vec = data.draw(vectors(length, conductor, inserted, BIG))
        assert span.contains(row(vec)) == reference.contains(vec)
    assert basis_vectors(span) == reference.vectors()


def test_elimination_widens_past_64_bit_slots():
    # Clearing q against the stored pivot p, coprime to it, scales the
    # vector by p: the proven bound passes 2^63, so the span repacks at 128.
    p, q = BIG + 1, BIG + 3
    span, reference = ExactSpan(1, 4), ReferenceSpan()
    for vec in ([p, 1, 0, 0], [q, 0, 1, 0]):
        assert span.insert(row(vec)) and reference.insert(vec)
    assert span.width == 128
    assert basis_vectors(span) == reference.vectors()
    for probe in ([p * q, q, p, 0], [p * q, q, p, 1], [0, q, -p, 0]):
        assert span.contains(row(probe)) == reference.contains(probe)
    assert span.contains(row([0, q, -p, 0]))
