"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is a rational-coefficient vector over the power basis
{1, z, ..., z^(phi(N)-1)} of Q(zeta_N), kept reduced modulo the N-th
cyclotomic polynomial.  The reduced form is canonical, so equality of
coefficient vectors decides equality of field elements exactly; every
verdict in this package ultimately rests on that.

Elements of different conductors are combined by embedding both into
Q(zeta_lcm), via zeta_m = zeta_lcm^(lcm/m).
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
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials (constant term first).
    # The divisor must be monic and must divide evenly.
    num = list(num)
    deg_out = len(num) - len(den)
    out = [0] * (deg_out + 1)
    for k in range(deg_out, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for idx, dc in enumerate(den):
                num[k + idx] -= c * dc
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


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
    for d in _divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce(coeffs, n: int) -> tuple[Fraction, ...]:
    # Reduce a raw coefficient list modulo Phi_n down to length phi(n).
    phi = euler_phi(n)
    work = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    if len(work) < phi:
        work.extend([_F0] * (phi - len(work)))
    if len(work) > phi:
        mod = cyclotomic_polynomial(n)
        for k in range(len(work) - 1, phi - 1, -1):
            c = work[k]
            if c:
                work[k] = _F0
                base = k - phi
                for idx in range(phi):
                    if mod[idx]:
                        work[base + idx] -= c * mod[idx]
        del work[phi:]
    return tuple(work)


def _poly_trimmed(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = _poly_trimmed(num)
    den = _poly_trimmed(den)
    q = [_F0] * max(len(num) - len(den) + 1, 0)
    inv_lead = _F1 / den[-1]
    while len(num) >= len(den):
        c = num[-1] * inv_lead
        shift = len(num) - len(den)
        if c:
            q[shift] = c
            for i, dc in enumerate(den):
                num[shift + i] -= c * dc
        num.pop()
        num = _poly_trimmed(num)
    return q, num


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_F0] * (len(b) - len(a))
    for i, cb in enumerate(b):
        out[i] -= cb
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

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conductor handling -----------------------------------------------

    def embedded(self, n: int) -> "CycloNum":
        """The same value viewed inside Q(zeta_n); n must be a multiple."""
        if n == self.conductor:
            return self
        if n % self.conductor:
            raise ValueError("target conductor must be a multiple")
        step = n // self.conductor
        raw = [_F0] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                raw[k * step] += c
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
        raw = [_F0] * (2 * len(a.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        raw[i + j] += ca * cb
        return CycloNum(a.conductor, _reduce(raw, a.conductor))

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        if self.conductor == 1:
            return CycloNum(1, (_F1 / self.coeffs[0],))
        # Extended Euclid against Phi_N, which is irreducible over Q, so the
        # gcd with any nonzero residue is a nonzero constant.
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r1 = list(self.coeffs)
        t0: list[Fraction] = [_F0]
        t1: list[Fraction] = [_F1]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        r0 = _poly_trimmed(r0)
        if len(r0) != 1:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not constant")
        scale = _F1 / r0[0]
        return CycloNum(self.conductor, _reduce([c * scale for c in t0], self.conductor))

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

    def to_complex(self) -> complex:
        """Numerical embedding zeta_N -> exp(2*pi*i/N).  Diagnostics only."""
        import cmath

        root = cmath.exp(2j * cmath.pi / self.conductor)
        value = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                value += float(c) * root**k
        return value

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.coeffs[0]})"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*z{self.conductor}^{k}" if k else f"({c})")
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
    raw = [_F0] * (k + 1)
    raw[k] = _F1
    return CycloNum(n, _reduce(raw, n))


def rational(value) -> CycloNum:
    """Embed an int or Fraction as a conductor-1 element."""
    return CycloNum.from_rational(value)
