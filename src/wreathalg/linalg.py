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

``ExactSpan`` keeps the span of equal-shape matrices over Q(zeta_N),
flattened row-major, in reduced echelon form, with one row type: a row
holds the integer power-basis coefficients of its entries over Z[zeta_N],
interleaved, scaled to content one with a positive rational-integer pivot.
Vectors are n x 1 matrices.  The conductor N starts at 1, where the rows
are plain integer rows, and widens to the lcm of the conductors inserted;
widening embeds the stored rows, which stay in reduced echelon form.  A
matrix is inserted as its decoded integer planes, denominator dropped, since
scaling leaves a span unchanged, and the block closure of ``terwilliger``
inserts packed products as they come.  An irrational pivot is made rational
by multiplying its row by the pivot's adjugate (see ``cyclotomic``), so the
span code works on integers alone, with no ``CycloNum`` and no ``Fraction``.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import mul

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
    phi = euler_phi(conductor)
    if all(d < phi for d in raw):
        return [raw.get(j) or [0] * rows for j in range(phi)]
    planes = [[0] * rows for _ in range(phi)]
    for d, plane in raw.items():
        for j, c in enumerate(_xpow(conductor, d)):
            if c:
                planes[j] = [x + c * y for x, y in zip(planes[j], plane)]
    return planes


def _max_abs(planes) -> int:
    """The largest |v| over planes of int rows."""
    rows = [row for plane in planes for row in plane if row]
    if not rows:
        return 0
    return max(max(map(max, rows)), -min(map(min, rows)))


def _numerators(grid):
    """(conductor, den, planes of int rows) for a grid of ints, Fractions and
    CycloNums: the smallest conductor holding every irrational entry and
    the least common denominator of all coefficients."""
    if all(set(map(type, row)) <= {int} for row in grid):
        return 1, 1, [[list(row) for row in grid]]
    cells = [[as_cyclo(v) for v in row] for row in grid]
    conductor = 1
    for row in cells:
        for v in row:
            if not v.is_rational():
                conductor = math.lcm(conductor, v.conductor)
    pad = (0,) * (euler_phi(conductor) - 1)
    coeffs = [[(v.coeffs[0],) + pad if v.is_rational() else v.embedded(conductor).coeffs
               for v in row] for row in cells]
    den = 1
    for row in coeffs:
        for c in row:
            for q in c:
                den = math.lcm(den, q.denominator)
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
        """Each plane's nonzero entries, row by row, as ``(columns, values)``
        (values None when all are one; None for a zero row), and the largest
        row sum of ``|v|`` over all planes."""
        if self._terms is None:
            columns = range(self.cols)
            sums = [0] * self.rows
            planes = []
            for plane in self._decoded():
                terms = []
                for i, row in enumerate(plane):
                    values = list(filter(None, row))
                    if not values:
                        terms.append(None)
                        continue
                    sums[i] += sum(map(abs, values))
                    ones = values.count(1) == len(values)
                    terms.append((list(compress(columns, row)), None if ones else values))
                planes.append(terms)
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
        if conductor == self.conductor:
            return self
        one = (1,) + (0,) * (euler_phi(conductor) - 1)
        return _product(_diagonal(self.rows, conductor, 1, one), self)

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
        # An irrational scalar multiplies as the scalar matrix.
        conductor, den, planes = _numerators([[s]])
        return _product(_diagonal(self.rows, conductor, den, [p[0][0] for p in planes]), self)

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


def _diagonal(n: int, conductor: int, den: int, coeffs) -> ExactMatrix:
    """The n x n scalar matrix of ``sum_s coeffs[s] z^s / den``."""
    bound = max(map(abs, coeffs))
    width = _width_for(bound)
    return ExactMatrix._packed(n, n, conductor, den, bound, width,
                               [[c << (width * i) for i in range(n)] for c in coeffs])


def _product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product over Q(zeta_N), N the lcm of the operands' conductors.

    With z_A = z^(N/N_A) and z_B = z^(N/N_B), plane s of A times plane t of
    B lands at degree d = s N/N_A + t N/N_B, and row i of it is
    ``sum_k a_ik packed(B_k)``.  Given s and d there is at most one t, so
    each raw degree has entries of size at most A's largest row sum of
    ``|a|`` over all planes times B's bound; reducing z^d modulo Phi_N
    multiplies that by at most the largest row sum of the reduction's
    coefficients.  That is the result's proven bound, and so its width.
    """
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    conductor = math.lcm(a.conductor, b.conductor)
    step_a, step_b = conductor // a.conductor, conductor // b.conductor
    terms, row_sum = a._left_terms()
    pairs = [(s, t, s * step_a + t * step_b) for s, plane in enumerate(terms) if any(plane)
             for t, plane_b in enumerate(b.planes) if any(plane_b)]
    degrees = {d for _, _, d in pairs}
    factor = max(sum(abs(_xpow(conductor, d)[j]) for d in degrees)
                 for j in range(euler_phi(conductor)))
    bound = row_sum * b.bound * factor
    width = max(b.width, _width_for(bound))
    planes_b = b._at(width)
    raw = {}
    for s, t, d in pairs:
        get = planes_b[t].__getitem__
        term = [0 if row is None
                else sum(map(get, row[0])) if row[1] is None
                else sum(map(mul, row[1], map(get, row[0])))
                for row in terms[s]]
        raw[d] = term if d not in raw else [x + y for x, y in zip(raw[d], term)]
    return ExactMatrix._packed(a.rows, b.cols, conductor, a.den * b.den, bound, width,
                               _reduced(raw, conductor, a.rows))


# -- spans ----------------------------------------------------------------------


def _interleaved(planes) -> list[int]:
    """The flat vector whose entry k has coefficients ``planes[s][k]``."""
    phi = len(planes)
    if phi == 1:
        return planes[0]
    out = [0] * (len(planes[0]) * phi)
    for s, plane in enumerate(planes):
        out[s::phi] = plane
    return out


def _times(a, vec: list[int], conductor: int) -> list[int]:
    """``a * vec`` for ``a`` in Z[zeta_conductor], given by its power-basis
    coefficients, and an interleaved vector over Z[zeta_conductor]."""
    phi = len(a)
    planes = [vec[t::phi] for t in range(phi)]
    raw = {}
    for s, c in enumerate(a):
        if c:
            for t, plane in enumerate(planes):
                term = [c * x for x in plane]
                d = s + t
                raw[d] = [x + y for x, y in zip(raw[d], term)] if d in raw else term
    return _interleaved(_reduced(raw, conductor, len(vec) // phi))


def _embedded(vec: list[int], source: int, target: int) -> list[int]:
    """An interleaved vector over Z[zeta_source] as one over Z[zeta_target]."""
    if source == target:
        return vec
    phi, step = euler_phi(source), target // source
    raw = {s * step: vec[s::phi] for s in range(phi)}
    return _interleaved(_reduced(raw, target, len(vec) // phi))


def _normalized(row: list[int], at: int) -> list[int]:
    """``row`` divided by its content, with a positive coefficient at ``at``."""
    g = math.gcd(*row)
    if row[at] < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def _support(row: list[int], phi: int) -> list[int]:
    """The flat indices of every coefficient of the row's nonzero entries."""
    nonzero = compress(range(len(row)), row)
    if phi == 1:
        return list(nonzero)
    return [k + s for k in dict.fromkeys(i - i % phi for i in nonzero) for s in range(phi)]


def _eliminate(v: list[int], row: list[int], support: list[int], at: int,
               conductor: int) -> list[int]:
    """Clear the entry of ``v`` that starts at flat index ``at``, where
    ``row`` holds the positive integer ``c``: with ``a`` that entry of ``v``
    and ``g = gcd(c, a)``, ``v <- (c/g) v - (a/g) * row``.  Only the row's
    support changes when ``g = c``; ``v`` is then changed in place."""
    a = v[at:at + euler_phi(conductor)]
    c = row[at]
    g = math.gcd(c, *a)
    if g != c:
        m = c // g
        v = [m * x for x in v]
    if any(a[1:]):
        product = _times([x // g for x in a], [row[k] for k in support], conductor)
        for k, x in zip(support, product):
            v[k] -= x
    else:
        m = a[0] // g
        for k in support:
            v[k] -= m * row[k]
    return v


def _reduce(rows, v: list[int], conductor: int) -> list[int]:
    """Reduce ``v`` against (pivot, row, support) triples over one conductor."""
    phi = euler_phi(conductor)
    for pivot, row, support in rows:
        at = pivot * phi
        if any(v[at:at + phi]):
            v = _eliminate(v, row, support, at, conductor)
    return v


class ExactSpan:
    """The span of ``rows`` x ``cols`` matrices over Q(zeta_N), flattened
    row-major and kept in reduced echelon form.

    A row holds, entry by entry, the ``phi(N)`` integer power-basis
    coefficients of one basis matrix over Z[zeta_N], interleaved in one
    flat list (coefficient s of entry k at index ``k phi(N) + s``).  Each row
    is scaled to content one and is a positive integer ``c`` times the
    reduced echelon row whose pivot entry is one, so its pivot entry is the
    rational integer ``c``.  Pivoting is first-nonzero-entry, and rows are
    fully reduced against each other, so the stored rows depend only on the
    subspace, not on which spanning matrices were inserted, or in which
    order.

    The conductor N starts at 1 and grows to the lcm of the conductors of
    the inserted matrices.  A field embedding keeps reduced echelon form, so
    widening embeds the stored rows and normalises their content again;
    nothing is re-inserted.  At N = 1 the rows are plain integer rows.  A
    matrix enters as its integer numerators, its denominator dropped, which
    leaves every span unchanged.
    """

    def __init__(self, rows: int, cols: int):
        self.shape = (rows, cols)
        self.conductor = 1
        # (pivot entry, row, _support(row)), sorted by pivot
        self._rows: list[tuple[int, list[int], list[int]]] = []

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

    def _vector(self, mat: ExactMatrix) -> tuple[int, list[int]]:
        """The conductor and interleaved integer coefficients of ``mat``."""
        if (mat.rows, mat.cols) != self.shape:
            raise ValueError("matrix shape does not match the span")
        planes = mat.planes
        if any(any(plane) for plane in planes[1:]):
            conductor = mat.conductor
        else:
            conductor, planes = 1, planes[:1]
        return conductor, _interleaved([_unpack(plane, mat.width, mat.cols) for plane in planes])

    def _widened(self, conductor: int):
        """The rows over Q(zeta_conductor), a multiple of the own conductor."""
        if conductor == self.conductor:
            return self._rows
        phi = euler_phi(conductor)
        rows = []
        for pivot, row, _ in self._rows:
            row = _normalized(_embedded(row, self.conductor, conductor), pivot * phi)
            rows.append((pivot, row, _support(row, phi)))
        return rows

    def insert(self, mat: ExactMatrix) -> bool:
        """Adjoin a matrix; returns True iff the dimension grew."""
        source, v = self._vector(mat)
        conductor = math.lcm(self.conductor, source)
        self._rows = self._widened(conductor)
        self.conductor = conductor
        v = _reduce(self._rows, _embedded(v, source, conductor), conductor)
        if v.count(0) == len(v):
            return False
        phi = euler_phi(conductor)
        pivot = next(compress(range(len(v)), v)) // phi
        at = pivot * phi
        if any(v[at + 1:at + phi]):
            # The pivot's adjugate turns the pivot into its norm, a rational
            # integer; _normalized then makes the row primitive.
            v = _times(_adjugate(v[at:at + phi], conductor), v, conductor)
        v = _normalized(v, at)
        support = _support(v, phi)
        updated = []
        for p, row, row_support in self._rows:
            if any(row[at:at + phi]):
                row = _normalized(_eliminate(row, v, support, at, conductor), p * phi)
                row_support = _support(row, phi)
            updated.append((p, row, row_support))
        updated.append((pivot, v, support))
        updated.sort(key=lambda item: item[0])
        self._rows = updated
        return True

    def contains(self, mat: ExactMatrix) -> bool:
        """Exact membership: the residual after reduction is zero.  The
        stored rows are left as they are."""
        source, v = self._vector(mat)
        conductor = math.lcm(self.conductor, source)
        v = _reduce(self._widened(conductor), _embedded(v, source, conductor), conductor)
        return v.count(0) == len(v)

    def basis(self) -> list[ExactMatrix]:
        """The reduced echelon rows as matrices, pivots normalized to one."""
        rows, cols = self.shape
        phi = euler_phi(self.conductor)
        # A row's pivot coefficient is a positive integer: the denominator.
        return [ExactMatrix._packed(rows, cols, *_packing(
                    self.conductor, row[pivot * phi],
                    [[plane[r * cols:(r + 1) * cols] for r in range(rows)]
                     for plane in (row[s::phi] for s in range(phi))]))
                for pivot, row, _ in self._rows]
