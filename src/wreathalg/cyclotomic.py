"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is a rational-coefficient vector over the power basis
{1, z, ..., z^(phi(N)-1)} of Q(zeta_N), kept reduced modulo the N-th
cyclotomic polynomial.  The reduced form is canonical, so equality of
coefficient vectors decides equality of field elements exactly; every
verdict in this package ultimately rests on that.

Elements of different conductors are combined by embedding both into
Q(zeta_lcm), via zeta_m = zeta_lcm^(lcm/m).

This module is the one exact kernel for Q(zeta_N); no command path forms
an element of it, since ``linalg`` is over Q.  ``_reduce`` is the only
reduction modulo Phi_N: a long division by the monic integer Phi_N, in the
coefficients' own arithmetic, so integers stay integers.  The one inverse is
the adjugate over the norm: the product of the Galois conjugates
z -> z^k, 1 < k < N, gcd(k, N) = 1, of an integer element a is ``adj(a)``,
and ``a adj(a) = N(a)`` is a nonzero rational integer, so
``a^-1 = adj(a) / N(a)``.  No step divides in Z[zeta_N].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CycloNum",
    "zeta",
    "rational",
    "euler_phi",
    "cyclotomic_polynomial",
    "ZERO",
    "ONE",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient of a positive integer."""
    if n < 1:
        raise ValueError("totient undefined for n < 1")
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials (constant term first).
    # The divisor must be monic and must divide evenly.
    num = list(num)
    out = []
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        out.append(c)
        for idx, dc in enumerate(den):
            num[k + idx] -= c * dc
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all
    proper divisors of n.
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _zero(coeffs):
    # A zero of the coefficients' own type: CycloNum keeps Fractions.
    return _F0 if isinstance(coeffs[0], Fraction) else 0


def _reduce(coeffs, n: int) -> tuple:
    """``sum_k coeffs[k] z^k`` modulo Phi_n: its phi(n) power-basis
    coefficients, by long division by the monic integer Phi_n.  The
    arithmetic is the coefficients' own, so integer input stays integer;
    short input is padded with zeros of the same type."""
    phi = euler_phi(n)
    work = list(coeffs)
    if len(work) < phi:
        work += [_zero(work)] * (phi - len(work))
    elif len(work) > phi:
        taps = [(idx, m) for idx, m in enumerate(cyclotomic_polynomial(n)[:phi]) if m]
        for k in range(len(work) - 1, phi - 1, -1):
            c = work[k]
            if c:
                base = k - phi
                for idx, m in taps:
                    work[base + idx] -= c if m == 1 else -c if m == -1 else c * m
        del work[phi:]
    return tuple(work)


def _mul(a, b, n: int) -> tuple:
    """The product of two power-basis coefficient vectors of Q(zeta_n),
    reduced; zero coefficients are skipped, and integers stay integers."""
    terms = [(j, cb) for j, cb in enumerate(b) if cb]
    raw = [_zero(a)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in terms:
                raw[i + j] += ca * cb
    return _reduce(raw, n)


def _adjugate(a, n: int) -> tuple[int, ...]:
    """The product of the Galois conjugates sigma_k(a), z -> z^k, over
    1 < k < n with gcd(k, n) = 1, for integer coefficients ``a``.  Then
    ``a * _adjugate(a, n)`` is the norm N(a), a rational integer, nonzero
    for nonzero ``a``, since Phi_n is irreducible."""
    out = (1,) + (0,) * (len(a) - 1)
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            # k is a unit mod n, so the indices k*s mod n are distinct.
            raw = [0] * n
            for s, c in enumerate(a):
                if c:
                    raw[k * s % n] = c
            out = _mul(out, _reduce(raw, n), n)
    return out


class CycloNum:
    """An element of Q(zeta_N) in canonical power-basis form.

    Instances are immutable and safe to share.  The constructor is an
    internal fast path and trusts its arguments; use :func:`zeta`,
    :func:`rational` or arithmetic to build values.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        self.conductor = conductor
        self.coeffs = coeffs

    @staticmethod
    def from_rational(value) -> "CycloNum":
        return CycloNum(1, (Fraction(value),))

    # -- structure queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conductor handling -----------------------------------------------

    def embedded(self, n: int) -> "CycloNum":
        """The same value viewed inside Q(zeta_n); n must be a multiple of
        the conductor, unless the value is rational, which every Q(zeta_n)
        holds."""
        if n == self.conductor:
            return self
        if self.is_rational():
            return CycloNum(n, _reduce(self.coeffs[:1], n))
        if n % self.conductor:
            raise ValueError("target conductor must be a multiple")
        step = n // self.conductor
        raw = [_F0] * ((len(self.coeffs) - 1) * step + 1)
        raw[::step] = self.coeffs
        return CycloNum(n, _reduce(raw, n))

    def _promoted(self, other):
        if not isinstance(other, CycloNum):
            if isinstance(other, (int, Fraction)):
                other = CycloNum.from_rational(other)
            else:
                return None, None
        if self.conductor == other.conductor:
            return self, other
        n = math.lcm(self.conductor, other.conductor)
        return self.embedded(n), other.embedded(n)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self._promoted(other)
        if a is None:
            return NotImplemented
        return CycloNum(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._promoted(other)
        if a is None:
            return NotImplemented
        return CycloNum(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloNum(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self._promoted(other)
        if a is None:
            return NotImplemented
        if a.conductor == 1:
            return CycloNum(1, (a.coeffs[0] * b.coeffs[0],))
        return CycloNum(a.conductor, _mul(a.coeffs, b.coeffs, a.conductor))

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        if self.conductor == 1:
            return CycloNum(1, (_F1 / self.coeffs[0],))
        # a = self * den has integer coefficients, and a^-1 = adj(a) / N(a).
        n = self.conductor
        den = math.lcm(*(c.denominator for c in self.coeffs))
        a = [c.numerator * (den // c.denominator) for c in self.coeffs]
        adjugate = _adjugate(a, n)
        norm = _mul(a, adjugate, n)
        if any(norm[1:]):
            raise ArithmeticError("the norm is not a rational integer")
        return CycloNum(n, tuple(Fraction(c * den, norm[0]) for c in adjugate))

    def __truediv__(self, other):
        a, b = self._promoted(other)
        if a is None:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        a, b = self._promoted(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    # -- output -------------------------------------------------------------

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.coeffs[0]})"
        terms = [f"({c})*z{self.conductor}^{k}" if k else f"({c})"
                 for k, c in enumerate(self.coeffs) if c]
        return "CycloNum(" + " + ".join(terms) + ")"


ZERO = CycloNum(1, (_F0,))
ONE = CycloNum(1, (_F1,))


def zeta(n: int, k: int = 1) -> CycloNum:
    """The root of unity exp(2*pi*i*k/n) as an exact element of Q(zeta_n)."""
    if n < 1:
        raise ValueError("order of the root of unity must be positive")
    k %= n
    if n == 1:
        return ONE
    return CycloNum(n, _reduce([_F0] * k + [_F1], n))


def rational(value) -> CycloNum:
    """Embed an int or Fraction as a conductor-1 element."""
    return CycloNum.from_rational(value)
