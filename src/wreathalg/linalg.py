"""Dense exact matrices over Q(zeta_N) and echelon-form span bookkeeping.

``ExactMatrix`` stores a matrix over Q(zeta_N) as packed integer rows
(Kronecker substitution).  Entry (i, j) is
``(v_0 + v_1 z + ... + v_{phi(N)-1} z^(phi(N)-1)) / den`` with integer
coefficients, one positive common denominator ``den`` and ``z = zeta_N``;
row i of plane s is the single int ``sum_j v_s(i, j) 2^(b j)`` for a slot
width ``b``.  A rational matrix has one plane.  Packing is Z-linear, so
sums, scalings and embeddings act on whole row ints, and row i of ``A*B``
is ``sum_k a_ik packed(B_k)``: one big-int multiply-add per nonzero entry
of A, with the planes convolved and reduced modulo Phi_N by the integer
powers ``_xpow(N, d)`` of the ``cyclotomic`` kernel.  Packing is
injective while every ``|v| < 2^(b-1)``, so each matrix carries a proven
bound on its ``|v|``: every operation derives its result's bound from its
operands' bounds and repacks wider when the bound would reach
``2^(b-1)``, and no matrix is built, and no equality decided, under a bound
its width does not certify.  Equality and zero tests are then int
comparisons.  The ``CycloNum`` grid of the public API (``data``,
``flat()``, ``[i, j]``) is decoded on demand.

``ExactSpan`` keeps the span of equal-shape matrices over Q(zeta_N) in
reduced echelon form, each row an ``ExactMatrix`` in the same layout: its
numerators are the row, of content one, and its ``den`` is its positive
rational-integer pivot entry.  Vectors are n x 1 matrices.  A matrix is
reduced on its own packed rows, denominator dropped: a pivot entry is one
biased shift and mask of a row int, a step is one big-int multiply-add per
row, and zero is ``not any`` of the row ints.  The vector carries a proven
bound, and the span repacks wider before a step its width would not
certify.  Rows are unpacked only on an accepted insert and when the span
widens.  Every product by a scalar of Z[zeta_N], in the spans and in
``ExactMatrix.scaled``, is one helper on planes of packed rows
(``_times``), and an irrational pivot is made rational by its adjugate
(see ``cyclotomic``), so the span code works on integers alone.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from operator import itemgetter, mul, sub

from .cyclotomic import ZERO, CycloNum, _adjugate, _xpow, euler_phi

__all__ = ["ExactMatrix", "ExactSpan"]


def as_cyclo(value) -> CycloNum:
    if isinstance(value, CycloNum):
        return value
    return CycloNum.from_rational(value) if value else ZERO


# -- packed rows ----------------------------------------------------------------

# Slot widths are powers of two from 32 bits up, so that most matrices share
# one width and compare without repacking.  Slots of a standard integer size
# are packed and unpacked by ``struct`` in C.
_MIN_WIDTH = 32
_CODES = {32: "i", 64: "q"}


def _width_for(bound: int) -> int:
    """The narrowest slot width that certifies entries with ``|v| <= bound``."""
    width = _MIN_WIDTH
    while bound >= 1 << (width - 1):
        width *= 2
    return width


def _certify(bound: int, width: int) -> None:
    """The slot-bound certificate: packing at ``width`` is injective on
    entries with ``|v| <= bound`` only if ``bound < 2^(width-1)``."""
    if bound >= 1 << (width - 1):
        raise ArithmeticError(f"entry bound {bound} is not certified by {width}-bit slots")


@lru_cache(maxsize=None)
def _bias(width: int, n: int) -> int:
    # 2^(width-1) in each of n slots: it turns signed slots into offset ones.
    half = 1 << (width - 1)
    return half * ((1 << (width * n)) - 1) // ((1 << width) - 1)


def _pack(values, width: int) -> int:
    """``sum_k values[k] 2^(width k)``; every ``|values[k]| < 2^(width-1)``."""
    code = _CODES.get(width)
    if code is None:
        return sum(v << (width * k) for k, v in enumerate(values) if v)
    # Two's-complement slots with their top bits flipped are offset slots.
    bias = _bias(width, len(values))
    slots = struct.pack(f"<{len(values)}{code}", *values)
    return (int.from_bytes(slots, "little") ^ bias) - bias


def _unpack(rows, width: int, n: int) -> list[int]:
    """The n slot values of each packed row, concatenated; the inverse of
    :func:`_pack` row by row."""
    bias = _bias(width, n)
    size = width * n // 8
    zero = bytes(size)
    raw = b"".join(((row + bias) ^ bias).to_bytes(size, "little") if row else zero
                   for row in rows)
    code = _CODES.get(width)
    if code is None:
        step = width // 8
        return [int.from_bytes(raw[k:k + step], "little", signed=True)
                for k in range(0, len(raw), step)]
    return list(struct.unpack(f"<{len(raw) * 8 // width}{code}", raw))


def _reduced(raw: dict[int, list[int]], conductor: int, rows: int) -> list[list[int]]:
    """The planes of ``sum_d raw[d] z^d`` reduced modulo Phi_conductor."""
    if conductor == 1:
        return [raw.get(0) or [0] * rows]
    phi = euler_phi(conductor)
    if max(raw, default=0) < phi:
        return [raw.get(j) or [0] * rows for j in range(phi)]
    terms: list[tuple[list[int], list[list[int]]]] = [([], []) for _ in range(phi)]
    for d, plane in raw.items():
        for j, c in enumerate(_xpow(conductor, d)):
            if c:
                terms[j][0].append(c)
                terms[j][1].append(plane)
    return [[sum(map(mul, factors, column)) for column in zip(*rows_in)] if factors else [0] * rows
            for factors, rows_in in terms]


@lru_cache(maxsize=None)
def _spread(conductor: int, source_a: int, source_b: int) -> int:
    """``max_j sum_d |coefficient j of z^d|`` in Q(zeta_N), N = conductor,
    over the degrees ``d = s N/N_a + t N/N_b`` of plane s over Q(zeta_{N_a})
    times plane t over Q(zeta_{N_b}): reducing modulo Phi_N multiplies the
    raw degrees' bound by at most this."""
    step_a, step_b = conductor // source_a, conductor // source_b
    degrees = {s * step_a + t * step_b
               for s in range(euler_phi(source_a)) for t in range(euler_phi(source_b))}
    return max(sum(abs(_xpow(conductor, d)[j]) for d in degrees) for j in range(euler_phi(conductor)))


def _times(coeffs, source_a: int, planes, source_b: int, conductor: int) -> list[list[int]]:
    """The planes of ``a M`` over Q(zeta_conductor), new lists, for
    ``a = sum_s coeffs[s] z_a^s`` over Q(zeta_{source_a}) and the planes of
    M over Q(zeta_{source_b}), packed rows or entries alike.  Given s and d
    there is at most one t, so its entries are at most ``sum_s |coeffs[s]|``
    times ``_spread(conductor, source_a, source_b)`` times M's bound."""
    step_a, step_b = conductor // source_a, conductor // source_b
    terms: dict[int, tuple[list[int], list[list[int]]]] = {}
    for s, c in enumerate(coeffs):
        for t, plane in enumerate(planes if c else ()):
            factors, rows = terms.setdefault(s * step_a + t * step_b, ([], []))
            factors.append(c)
            rows.append(plane)
    raw = {d: [sum(map(mul, factors, column)) for column in zip(*rows)]
           for d, (factors, rows) in terms.items()}
    return _reduced(raw, conductor, len(planes[0]))


def _max_abs(planes) -> int:
    """The largest |v| over planes of int rows."""
    rows = [row for plane in planes for row in plane if row]
    return max(max(map(max, rows)), -min(map(min, rows))) if rows else 0


def _numerators(grid):
    """(conductor, den, planes of int rows) for a grid of ints, Fractions and
    CycloNums: the smallest conductor holding every irrational entry and
    the least common denominator of all coefficients."""
    if all(set(map(type, row)) <= {int} for row in grid):
        return 1, 1, [[list(row) for row in grid]]
    cells = [[as_cyclo(v) for v in row] for row in grid]
    conductor = math.lcm(1, *(v.conductor for row in cells for v in row if not v.is_rational()))
    pad = (0,) * (euler_phi(conductor) - 1)
    coeffs = [[(v.coeffs[0],) + pad if v.is_rational() else v.embedded(conductor).coeffs
               for v in row] for row in cells]
    den = math.lcm(*(q.denominator for row in coeffs for c in row for q in c))
    planes = [[[c[s].numerator * (den // c[s].denominator) for c in row] for row in coeffs]
              for s in range(len(pad) + 1)]
    return conductor, den, planes


def _packing(conductor: int, den: int, planes):
    """(conductor, den, bound, width, packed planes) for planes of int rows;
    the width is certified before anything is packed at it."""
    bound = _max_abs(planes)
    width = _width_for(bound)
    _certify(bound, width)
    return conductor, den, bound, width, [[_pack(row, width) for row in plane] for plane in planes]


class ExactMatrix:
    """Immutable dense matrix with exact cyclotomic entries, stored as
    packed integer rows (see the module docstring)."""

    __slots__ = ("rows", "cols", "conductor", "den", "bound", "width", "planes",
                 "_ints", "_terms")

    def __init__(self, rows: int, cols: int, data):
        """The matrix of a ``rows`` x ``cols`` grid of CycloNum (or int or
        Fraction) entries."""
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("data does not have the given shape")
        self._init(rows, cols, *_packing(*_numerators(data)))

    def _init(self, rows, cols, conductor, den, bound, width, planes):
        _certify(bound, width)
        self.rows = rows
        self.cols = cols
        self.conductor = conductor
        self.den = den
        self.bound = bound
        self.width = width
        self.planes = planes
        self._ints = None
        self._terms = None

    @classmethod
    def _packed(cls, rows, cols, conductor, den, bound, width, planes) -> "ExactMatrix":
        """A matrix from packed planes, whose entries are at most ``bound``."""
        mat = cls.__new__(cls)
        mat._init(rows, cols, conductor, den, bound, width, planes)
        return mat

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = list(rows)
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows must be nonempty and of equal length")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._packed(rows, cols, 1, 1, 0, _MIN_WIDTH, [[0] * rows])

    @classmethod
    def ones(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._packed(rows, cols, 1, 1, 1, _MIN_WIDTH, [[_pack([1] * cols, _MIN_WIDTH)] * rows])

    # -- decoding -----------------------------------------------------------------

    def _decoded(self) -> list[list[list[int]]]:
        """The integer coefficients, plane by plane and row by row."""
        if self._ints is None:
            cols = self.cols
            flat = [_unpack(plane, self.width, cols) for plane in self.planes]
            self._ints = [[values[k:k + cols] for k in range(0, len(values), cols)]
                          for values in flat]
        return self._ints

    def _left_terms(self):
        """Each plane's distinct rows as ``(columns, values)`` of their nonzero
        entries (values None when all are one; None for a zero row), with
        each row's place among them, and the largest row sum of ``|v|`` over
        all planes.  Equal rows of a left factor give equal product rows."""
        if self._terms is None:
            columns = range(self.cols)
            sums = [0] * self.rows
            planes = []
            for plane in self._decoded():
                distinct: dict[tuple[int, ...], int] = {}
                places = [distinct.setdefault(tuple(row), len(distinct)) for row in plane]
                terms = []
                for row in distinct:
                    values = list(filter(None, row))
                    ones = values.count(1) == len(values)
                    terms.append((list(compress(columns, row)), None if ones else values) if values else None)
                for i, row in enumerate(plane):
                    sums[i] += sum(map(abs, row))
                planes.append((terms, places))
            self._terms = planes, max(sums, default=0)
        return self._terms

    def _at(self, width: int) -> list[list[int]]:
        """The planes packed at ``width``, which is at least the own width."""
        if width == self.width:
            return self.planes
        return [[_pack(row, width) for row in plane] for plane in self._decoded()]

    def _entry(self, coeffs) -> CycloNum:
        return CycloNum(self.conductor, tuple(Fraction(v, self.den) for v in coeffs))

    @property
    def data(self) -> list[list[CycloNum]]:
        return [[self._entry(c) for c in zip(*rows)] for rows in zip(*self._decoded())]

    def flat(self):
        return [self._entry(c) for rows in zip(*self._decoded()) for c in zip(*rows)]

    def __getitem__(self, key):
        i, j = key
        return self._entry([plane[i][j] for plane in self._decoded()])

    # -- arithmetic ---------------------------------------------------------------

    def _embedded(self, conductor: int) -> "ExactMatrix":
        """The same matrix over Q(zeta_conductor), a multiple of its own."""
        return self if conductor == self.conductor else self._multiple((1,), 1, 1, conductor)

    def _multiple(self, coeffs, source: int, den: int, conductor: int) -> "ExactMatrix":
        """The matrix times ``sum_s coeffs[s] z_source^s / den``, over
        Q(zeta_conductor), a multiple of both conductors."""
        bound = self.bound * sum(map(abs, coeffs)) * _spread(conductor, source, self.conductor)
        width = max(self.width, _width_for(bound))
        planes = _times(coeffs, source, self._at(width), self.conductor, conductor)
        return ExactMatrix._packed(self.rows, self.cols, conductor, self.den * den, bound, width, planes)

    def _sum(self, other, sign: int) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_shape(other)
        conductor = math.lcm(self.conductor, other.conductor)
        a, b = self._embedded(conductor), other._embedded(conductor)
        den = math.lcm(a.den, b.den)
        ma, mb = den // a.den, sign * (den // b.den)
        bound = a.bound * ma + b.bound * abs(mb)
        width = max(a.width, b.width, _width_for(bound))
        planes = [[x * ma + y * mb for x, y in zip(pa, pb)]
                  for pa, pb in zip(a._at(width), b._at(width))]
        return ExactMatrix._packed(self.rows, self.cols, conductor, den, bound, width, planes)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return ExactMatrix._packed(self.rows, self.cols, self.conductor, self.den, self.bound,
                                   self.width, [[-r for r in plane] for plane in self.planes])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return _product(self, other)

    def scaled(self, scalar) -> "ExactMatrix":
        s = as_cyclo(scalar)
        if s.is_rational():
            q = Fraction(s.coeffs[0])
            bound = self.bound * abs(q.numerator)
            width = max(self.width, _width_for(bound))
            planes = self._at(width)
            if q.numerator != 1:
                planes = [[q.numerator * r for r in plane] for plane in planes]
            return ExactMatrix._packed(self.rows, self.cols, self.conductor,
                                       self.den * q.denominator, bound, width, planes)
        den = math.lcm(*(q.denominator for q in s.coeffs))
        return self._multiple([q.numerator * (den // q.denominator) for q in s.coeffs], s.conductor,
                              den, math.lcm(s.conductor, self.conductor))

    def transpose(self) -> "ExactMatrix":
        planes = [[_pack(column, self.width) for column in zip(*plane)]
                  for plane in self._decoded()]
        return ExactMatrix._packed(self.cols, self.rows, self.conductor, self.den, self.bound,
                                   self.width, planes)

    def is_zero(self) -> bool:
        return not any(any(plane) for plane in self.planes)

    def nonzero_rows(self) -> list[int]:
        """The indices of the rows with a nonzero entry, read off the packed rows."""
        return [i for i, row in enumerate(zip(*self.planes)) if any(row)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        conductor = math.lcm(self.conductor, other.conductor)
        a, b = self._embedded(conductor), other._embedded(conductor)
        # a == b exactly when a's numerators times mb equal b's times ma.
        g = math.gcd(a.den, b.den)
        ma, mb = b.den // g, a.den // g
        width = max(a.width, b.width, _width_for(max(a.bound * ma, b.bound * mb)))
        _certify(a.bound * ma, width)
        _certify(b.bound * mb, width)
        pa, pb = a._at(width), b._at(width)
        if ma == mb == 1:
            return pa == pb
        return all(x * ma == y * mb for ra, rb in zip(pa, pb) for x, y in zip(ra, rb))

    def _require_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shapes do not match")

    def __repr__(self):
        return f"<ExactMatrix {self.rows}x{self.cols}>"


def _product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product over Q(zeta_N), N the lcm of the operands' conductors.

    With z_A = z^(N/N_A) and z_B = z^(N/N_B), plane s of A times plane t of
    B lands at degree d = s N/N_A + t N/N_B, and row i of it is
    ``sum_k a_ik packed(B_k)``.  Given s and d there is at most one t, so
    each raw degree has entries of size at most A's largest row sum of
    ``|a|`` over all planes times B's bound, and reducing z^d modulo Phi_N
    multiplies that by at most ``_spread(N, N_A, N_B)``, cached per triple
    of conductors.  That is the result's proven bound, and so its width.
    """
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    conductor = math.lcm(a.conductor, b.conductor)
    terms, row_sum = a._left_terms()
    bound = row_sum * b.bound * _spread(conductor, a.conductor, b.conductor)
    width = max(b.width, _width_for(bound))
    step_a, step_b = conductor // a.conductor, conductor // b.conductor
    live = [(t, plane.__getitem__) for t, plane in enumerate(b._at(width)) if any(plane)]
    raw = {}
    for s, (rows, places) in enumerate(terms):
        for t, get in live if any(rows) else ():
            d = s * step_a + t * step_b
            term = list(map([0 if row is None
                             else sum(map(get, row[0])) if row[1] is None
                             else sum(map(mul, row[1], map(get, row[0])))
                             for row in rows].__getitem__, places))
            raw[d] = term if d not in raw else [x + y for x, y in zip(raw[d], term)]
    return ExactMatrix._packed(a.rows, b.cols, conductor, a.den * b.den, bound, width,
                               _reduced(raw, conductor, a.rows))


# -- spans ----------------------------------------------------------------------


def _slot(planes, r: int, shift: int, bias: int, width: int) -> list[int]:
    """Entry ``shift / width`` of row r in each plane: ``bias`` offsets it
    and every lower slot into ``[0, 2^width)``, so none borrows from it."""
    half = 1 << (width - 1)
    return [((plane[r] + bias) >> shift & (half << 1) - 1) - half for plane in planes]


def _cancel(v, bound: int, a, row: ExactMatrix, conductor: int, width: int):
    """``v <- (c/g) v - (a/g) S`` in the list ``v`` of planes, for the stored
    row S = ``row`` with pivot entry ``c = row.den``, v's entry ``a`` there
    and ``g = gcd(c, a)``: one big-int multiply-add per row.  Returns the
    new bound, or None, v unchanged, where ``width`` does not certify it."""
    c = row.den
    g = math.gcd(c, *a)
    m, x, term = c // g, a[0] // g, row.planes
    if any(a[1:]):
        a = [y // g for y in a]
        x, term = 1, _times(a, conductor, term, conductor, conductor)
        grown = m * bound + sum(map(abs, a)) * _spread(conductor, conductor, conductor) * row.bound
    else:
        grown = m * bound + abs(x) * row.bound
    if grown >> (width - 1):
        return None
    v[:] = [list(map(sub, plane, rows)) if m == x == 1 else [m * p - x * q for p, q in zip(plane, rows)]
            for plane, rows in zip(v, term)]
    return grown


def _exact_bound(v, width: int, cols: int) -> int:
    """The largest |entry| of planes certified at ``width``, off their slots."""
    return max(map(abs, _unpack(chain.from_iterable(v), width, cols)))


class ExactSpan:
    """The span of ``rows`` x ``cols`` matrices over Q(zeta_N), flattened
    row-major and kept in reduced echelon form (see the module docstring).

    Pivots are first nonzero entries, rows are fully reduced against each
    other, and each is scaled to content one with a positive rational
    pivot, so the stored rows depend only on the subspace.  Reducing
    ``v <- (c/g) v - (a/g) S`` grows the vector's proven bound by ``c/g``
    and by ``|a/g|`` times S's bound.  Where the width would not certify a
    step, the step is tried with the exact bound, read off the slots, and
    then the span repacks every row at twice the width and reduces again,
    so no slot is read and no zero decided under an uncertified bound.  An
    accepted row stays packed where its pivot is one and its bound fits
    the narrowest width; any other is unpacked once, to divide out its
    content.  The conductor N starts at 1 and grows to the lcm of the
    conductors inserted, by embedding the stored rows.
    """

    def __init__(self, rows: int, cols: int):
        self.shape = (rows, cols)
        self.conductor, self.width = 1, _MIN_WIDTH
        # (pivot, its row, shift, bias, row matrix), sorted by pivot
        self._rows: list[tuple] = []

    @classmethod
    def from_matrices(cls, matrices) -> "ExactSpan":
        matrices = list(matrices)
        if not matrices:
            raise ValueError("need at least one matrix")
        span = cls(matrices[0].rows, matrices[0].cols)
        for mat in matrices:
            span.insert(mat)
        return span

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def _key(self, pivot: int, width: int) -> tuple[int, int, int, int]:
        """(pivot, row, shift, bias) of a flat pivot index: ``_slot``'s reading."""
        r, j = divmod(pivot, self.shape[1])
        return pivot, r, width * j, _bias(width, j + 1)

    def _stored(self, planes, key, bound: int, width: int, conductor: int):
        """A stored row from planes whose first nonzero entry is at ``key``:
        times the pivot's adjugate where it is irrational, divided by its
        content, pivot positive; None where ``width`` cannot hold it.  A
        pivot of one leaves the content one, and the row stays packed unless
        its bound passes the narrowest width."""
        pivot, r, shift, bias = key
        a, c = _slot(planes, r, shift, bias, width), 1
        if a[0] != 1 or any(a[1:]) or bound >> (_MIN_WIDTH - 1):
            cols, n = self.shape[1], self.shape[0] * self.shape[1]
            values = _unpack(chain.from_iterable(planes), width, cols)
            entries = [values[k:k + n] for k in range(0, len(values), n)]
            if any(a[1:]):
                # The adjugate turns the pivot into its norm, a rational integer.
                entries = _times(_adjugate(a, conductor), conductor, entries, conductor, conductor)
            g = math.gcd(*chain.from_iterable(entries))
            g = -g if entries[0][pivot] < 0 else g
            entries = [[x // g for x in plane] for plane in entries]
            c, bound = entries[0][pivot], max(map(abs, chain.from_iterable(entries)))
            if bound >> (width - 1):
                return None
            planes = [[_pack(plane[k:k + cols], width) for k in range(0, n, cols)] for plane in entries]
        return (*key, ExactMatrix._packed(*self.shape, conductor, c, bound, width, planes))

    def _rows_at(self, conductor: int, width: int):
        """The stored rows over Q(zeta_conductor) at ``width``, at least the
        own; None where the width does not certify them.  Z[zeta_M] is
        Z[zeta_N] meet Q(zeta_M), so embedding keeps content one and pivots."""
        if conductor == self.conductor and width == self.width:
            return self._rows
        spread, rows = _spread(conductor, 1, self.conductor), []
        for pivot, _, _, _, row in self._rows:
            if row.bound * spread >> (width - 1):
                return None
            planes = _times((1,), 1, row._at(width), self.conductor, conductor)
            mat = ExactMatrix._packed(*self.shape, conductor, row.den, row.bound * spread, width, planes)
            rows.append((*self._key(pivot, width), mat))
        return rows

    def _residual(self, mat: ExactMatrix, width: int = 0):
        """(rows, planes, bound, conductor, width): ``mat``'s numerators
        reduced against the stored rows, at the lcm of the conductors and the
        narrowest width from ``width`` up that certifies every step."""
        if (mat.rows, mat.cols) != self.shape:
            raise ValueError("matrix shape does not match the span")
        source = 1 if mat.conductor == 1 or not any(map(any, mat.planes[1:])) else mat.conductor
        conductor = math.lcm(self.conductor, source)
        width = max(self.width, mat.width, width)
        while True:
            rows = self._rows_at(conductor, width)
            v, bound = list(mat._at(width)[:euler_phi(source)]), mat.bound
            if source != conductor:
                v, bound = _times((1,), 1, v, source, conductor), bound * _spread(conductor, 1, source)
            half, mask, phi = 1 << (width - 1), (1 << width) - 1, len(v)
            certified = rows is not None and bound < half
            for _, r, shift, bias, row in rows if certified else ():
                a = ([((plane[r] + bias) >> shift & mask) - half for plane in v] if phi > 1
                     else [((v[0][r] + bias) >> shift & mask) - half])
                if any(a):
                    # a proven bound may be loose: retry with the exact one
                    bound = (_cancel(v, bound, a, row, conductor, width)
                             or _cancel(v, _exact_bound(v, width, self.shape[1]), a, row, conductor, width))
                    if bound is None:
                        break
            if certified and bound is not None:
                return rows, v, bound, conductor, width
            width *= 2

    def insert(self, mat: ExactMatrix) -> bool:
        """Adjoin a matrix; returns True iff the dimension grew."""
        width = 0
        while True:
            rows, v, bound, conductor, width = self._residual(mat, width)
            grew = any(map(any, v))
            if grew:
                rows = self._accepted(rows, v, bound, conductor, width)
            if rows is not None:
                self.conductor, self.width, self._rows = conductor, width, rows
                return grew
            width *= 2

    def _accepted(self, rows, v, bound: int, conductor: int, width: int):
        """The stored rows with the nonzero residual ``v`` adjoined and every
        row reduced against it; None where ``width`` does not certify a step."""
        # The pivot is in the first nonzero row r, and the lowest set bit of a
        # certified row int lies in its first nonzero slot.
        r = list(map(any, zip(*v))).index(True)
        j = min(((x & -x).bit_length() - 1) // width for x in (plane[r] for plane in v) if x)
        new = self._stored(v, self._key(r * self.shape[1] + j, width), bound, width, conductor)
        if new is None:
            return None
        updated, key = [new], new[:4]
        for old in rows:
            a = _slot(old[4].planes, *key[1:], width)
            if any(a):
                planes = list(old[4].planes)
                grown = _cancel(planes, old[4].bound, a, new[4], conductor, width)
                if grown is None:
                    return None
                old = self._stored(planes, old[:4], grown, width, conductor)
            updated.append(old)
        return sorted(updated, key=itemgetter(0))

    def contains(self, mat: ExactMatrix) -> bool:
        """Exact membership: the residual after reduction is zero.  The
        stored rows are left as they are."""
        return not any(map(any, self._residual(mat)[1]))

    def basis(self) -> list[ExactMatrix]:
        """The reduced echelon rows as matrices, pivots normalized to one."""
        return [row for *_, row in self._rows]
