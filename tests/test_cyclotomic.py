import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathalg import ONE, ZERO, cyclotomic_polynomial, euler_phi, rational, zeta
from wreathalg.cyclotomic import _adjugate, _mul


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_identity_cases():
    assert zeta(1, 0) == ONE
    assert zeta(2, 1) == rational(-1)
    assert zeta(3, 1) + zeta(3, 2) == rational(-1)


def test_zeta_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        zeta(0, 1)


def test_power_of_root_wraps():
    z = zeta(5)
    assert z**5 == ONE
    assert z**7 == zeta(5, 2)
    assert z**-1 == zeta(5, 4)


def test_phi_annihilates_its_root():
    for n in (3, 4, 5, 6, 8, 12):
        z = zeta(n)
        value = ZERO
        for k, c in enumerate(cyclotomic_polynomial(n)):
            value = value + z**k * c
        assert value.is_zero()


def test_i_squared():
    assert zeta(4, 1) * zeta(4, 1) == rational(-1)


def test_inverse_of_root_is_conjugate_power():
    assert zeta(3, 1).inv() == zeta(3, 2)
    assert zeta(8, 3).inv() == zeta(8, 5)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        (zeta(3) - zeta(3)).inv()


def test_division():
    z = zeta(7, 3)
    assert (z / z).is_one()
    assert rational(Fraction(3, 2)) / rational(3) == rational(Fraction(1, 2))


def test_mixed_conductor_promotion():
    assert zeta(2, 1) == zeta(6, 3)
    assert zeta(3, 1) == zeta(6, 2)
    assert zeta(2, 1) * zeta(3, 1) == zeta(6, 5)
    assert zeta(4, 1) + zeta(6, 1) == zeta(12, 3) + zeta(12, 2)


def test_sum_of_all_roots_is_zero():
    for n in range(2, 13):
        total = ZERO
        for k in range(n):
            total = total + zeta(n, k)
        assert total.is_zero(), n


def rational_value(value) -> Fraction:
    """The rational number ``value`` is; ValueError where it is irrational."""
    if not value.is_rational():
        raise ValueError(f"{value!r} is not rational")
    return value.coeffs[0]


def test_rational_detection():
    assert rational(Fraction(2, 3)).is_rational()
    assert (zeta(3) + zeta(3, 2)).is_rational()
    assert rational_value(zeta(3) + zeta(3, 2)) == -1
    assert not zeta(5).is_rational()
    with pytest.raises(ValueError):
        rational_value(zeta(5))


def _random_element(rng, conductor):
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(euler_phi(conductor))]
    value = ZERO
    for k, c in enumerate(coeffs):
        value = value + zeta(conductor, k) * c
    return value


def test_field_axioms_randomized():
    rng = random.Random(20260809)
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        c = _random_element(rng, rng.choice([1, 2, 3, 4, 6]))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero()
        if not a.is_zero():
            assert (a * a.inv()).is_one()


def test_embedding_preserves_arithmetic():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_element(rng, 3)
        b = _random_element(rng, 3)
        assert (a * b).embedded(12) == a.embedded(12) * b.embedded(12)
        assert (a + b).embedded(12) == a.embedded(12) + b.embedded(12)


def test_rational_values_embed_at_any_conductor():
    # zeta_2 = -1 is rational: it lies in every Q(zeta_n), though 2 does not
    # divide n; an irrational value still needs a multiple of its conductor
    for n in (1, 3, 5, 9, 12):
        assert zeta(2).embedded(n).conductor == n
        assert zeta(2).embedded(n) == -1
        assert rational(Fraction(3, 4)).embedded(n) == Fraction(3, 4)
    assert zeta(2).embedded(3) + zeta(3) == zeta(3) - 1
    with pytest.raises(ValueError, match="target conductor must be a multiple"):
        zeta(4).embedded(6)


def test_canonical_equality_same_conductor():
    a = zeta(12, 4)  # lies in Q(zeta_3) but is stored at conductor 12
    assert a == zeta(3, 1)
    assert a.coeffs == zeta(3, 1).embedded(12).coeffs


@given(st.data(), st.sampled_from([2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 35]))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_adjugate_times_element_is_its_norm(data, n):
    # a * adj(a) = N(a), a nonzero rational integer, for every nonzero
    # a in Z[zeta_n]; the adjugate has integer coefficients
    a = data.draw(st.lists(st.integers(-3, 3), min_size=euler_phi(n), max_size=euler_phi(n))
                  .filter(any))
    adjugate = _adjugate(a, n)
    norm = _mul(a, adjugate, n)
    assert all(type(c) is int for c in adjugate + norm)
    assert norm[0] != 0 and not any(norm[1:])
