"""Dense exact rational matrices and echelon-form span bookkeeping.

``ExactMatrix`` stores a matrix over Q as packed integer rows (Kronecker
substitution).  Entry (i, j) is ``v(i, j) / den`` with integer numerators
and one positive common denominator ``den``; row i is the single int
``sum_j v(i, j) 2^(b j)`` for a slot width ``b``.  Packing is Z-linear, so
sums and scalings act on whole row ints, and row i of ``A*B`` is
``sum_k a_ik packed(B_k)``: one big-int multiply-add per nonzero entry of A.
Packing is injective while every ``|v| < 2^(b-1)``, so each matrix carries a
proven bound on its ``|v|``: every operation derives its result's bound from
its operands' bounds and repacks wider when the bound would reach
``2^(b-1)``, and no matrix is built, and no equality decided, under a bound
its width does not certify.  Equality and zero tests are then int
comparisons.  An entry given to the constructor must be an ``int`` or a
``Fraction`` (a ``bool``, a ``float``, a string or any other type is
refused), and the entries of the public API (``data``, ``flat()``,
``[i, j]``) are ``Fraction``s, decoded on demand.

``ExactSpan`` keeps the span of equal-shape rational matrices in reduced
echelon form, each row an ``ExactMatrix`` in the same layout: its numerators
are the row, of content one, and its ``den`` is its positive pivot entry.
Vectors are n x 1 matrices.  A matrix is reduced on its own packed rows,
denominator dropped: a pivot entry is one biased shift and mask of a row
int, a step is one big-int multiply-add per row, and zero is ``not any`` of
the row ints.  The vector carries a proven bound, and the span repacks wider
before a step its width would not certify.  Rows are unpacked only on an
accepted insert.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from operator import itemgetter, mul, sub

__all__ = ["ExactMatrix", "ExactSpan"]


def _refuse(kinds) -> None:
    """A TypeError unless each type of ``kinds`` is int or a Fraction type, so
    that no bool, float, string or irrational number reaches the kernel."""
    for kind in kinds:
        if kind is not int and not issubclass(kind, Fraction):
            raise TypeError(f"an entry of type {kind.__name__} is not an int or a Fraction")


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


def _numerators(grid):
    """(den, int rows) for a grid of ints and Fractions: the least common
    denominator and the numerators over it; a TypeError for any other entry."""
    types = set(map(type, chain.from_iterable(grid)))
    if types <= {int}:
        return 1, [list(row) for row in grid]
    _refuse(types)
    den = math.lcm(*(v.denominator for row in grid for v in row))
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in grid]


def _packing(den: int, rows):
    """(den, bound, width, packed rows) for int rows; the width is certified
    before anything is packed at it."""
    bound = max((max(max(row), -min(row)) for row in rows if row), default=0)
    width = _width_for(bound)
    _certify(bound, width)
    return den, bound, width, [_pack(row, width) for row in rows]


class ExactMatrix:
    """Immutable dense matrix with exact rational entries, stored as packed
    integer rows (see the module docstring)."""

    __slots__ = ("rows", "cols", "den", "bound", "width", "packed", "_ints", "_terms")

    def __init__(self, rows: int, cols: int, data):
        """The matrix of a ``rows`` x ``cols`` grid of int or Fraction entries."""
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("data does not have the given shape")
        self._init(rows, cols, *_packing(*_numerators(data)))

    def _init(self, rows, cols, den, bound, width, packed):
        _certify(bound, width)
        self.rows = rows
        self.cols = cols
        self.den = den
        self.bound = bound
        self.width = width
        self.packed = packed
        self._ints = None
        self._terms = None

    @classmethod
    def _packed(cls, rows, cols, den, bound, width, packed) -> "ExactMatrix":
        """A matrix from packed rows, whose entries are at most ``bound``."""
        mat = cls.__new__(cls)
        mat._init(rows, cols, den, bound, width, packed)
        return mat

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = list(rows)
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows must be nonempty and of equal length")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._packed(rows, cols, 1, 0, _MIN_WIDTH, [0] * rows)

    @classmethod
    def ones(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._packed(rows, cols, 1, 1, _MIN_WIDTH, [_pack([1] * cols, _MIN_WIDTH)] * rows)

    # -- decoding -----------------------------------------------------------------

    def _decoded(self) -> list[list[int]]:
        """The integer numerators, row by row."""
        if self._ints is None:
            cols = self.cols
            values = _unpack(self.packed, self.width, cols)
            self._ints = [values[k:k + cols] for k in range(0, len(values), cols)]
        return self._ints

    def _left_terms(self):
        """The distinct rows as ``(columns, values)`` of their nonzero entries
        (values None when all are one; None for a zero row), each row's place
        among them, and the largest row sum of ``|v|``.  Equal rows of a left
        factor give equal product rows."""
        if self._terms is None:
            columns = range(self.cols)
            distinct: dict[tuple[int, ...], int] = {}
            places = [distinct.setdefault(tuple(row), len(distinct)) for row in self._decoded()]
            terms = []
            for row in distinct:
                values = list(filter(None, row))
                ones = values.count(1) == len(values)
                terms.append((list(compress(columns, row)), None if ones else values) if values else None)
            self._terms = terms, places, max((sum(map(abs, row)) for row in distinct), default=0)
        return self._terms

    def _at(self, width: int) -> list[int]:
        """The rows packed at ``width``, which is at least the own width."""
        if width == self.width:
            return self.packed
        return [_pack(row, width) for row in self._decoded()]

    @property
    def data(self) -> list[list[Fraction]]:
        den = self.den
        return [[Fraction(v, den) for v in row] for row in self._decoded()]

    def flat(self) -> list[Fraction]:
        den = self.den
        return [Fraction(v, den) for row in self._decoded() for v in row]

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._decoded()[i][j], self.den)

    # -- arithmetic ---------------------------------------------------------------

    def _sum(self, other, sign: int) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_shape(other)
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        bound = self.bound * ma + other.bound * abs(mb)
        width = max(self.width, other.width, _width_for(bound))
        packed = [x * ma + y * mb for x, y in zip(self._at(width), other._at(width))]
        return ExactMatrix._packed(self.rows, self.cols, den, bound, width, packed)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return ExactMatrix._packed(self.rows, self.cols, self.den, self.bound, self.width,
                                   [-r for r in self.packed])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return _product(self, other)

    def scaled(self, scalar) -> "ExactMatrix":
        """The matrix times an int or a Fraction."""
        _refuse({type(scalar)})
        num = scalar.numerator
        bound = self.bound * abs(num)
        width = max(self.width, _width_for(bound))
        packed = self._at(width)
        if num != 1:
            packed = [num * r for r in packed]
        return ExactMatrix._packed(self.rows, self.cols, self.den * scalar.denominator, bound, width, packed)

    def transpose(self) -> "ExactMatrix":
        packed = [_pack(column, self.width) for column in zip(*self._decoded())]
        return ExactMatrix._packed(self.cols, self.rows, self.den, self.bound, self.width, packed)

    def is_zero(self) -> bool:
        return not any(self.packed)

    def nonzero_rows(self) -> list[int]:
        """The indices of the rows with a nonzero entry, read off the packed rows."""
        return [i for i, row in enumerate(self.packed) if row]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # self == other exactly when self's numerators times ma equal other's times mb.
        g = math.gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        width = max(self.width, other.width, _width_for(max(self.bound * ma, other.bound * mb)))
        _certify(self.bound * ma, width)
        _certify(other.bound * mb, width)
        pa, pb = self._at(width), other._at(width)
        if ma == mb == 1:
            return pa == pb
        return all(x * ma == y * mb for x, y in zip(pa, pb))

    def _require_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shapes do not match")

    def __repr__(self):
        return f"<ExactMatrix {self.rows}x{self.cols}>"


def _product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product: row i is ``sum_k a_ik packed(B_k)``, so its entries are at
    most A's largest row sum of ``|a|`` times B's bound.  That is the
    result's proven bound, and so its width."""
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    terms, places, row_sum = a._left_terms()
    bound = row_sum * b.bound
    width = max(b.width, _width_for(bound))
    get = b._at(width).__getitem__
    distinct = [0 if row is None
                else sum(map(get, row[0])) if row[1] is None
                else sum(map(mul, row[1], map(get, row[0])))
                for row in terms]
    return ExactMatrix._packed(a.rows, b.cols, a.den * b.den, bound, width,
                               list(map(distinct.__getitem__, places)))


# -- spans ----------------------------------------------------------------------


def _slot(packed, r: int, shift: int, bias: int, width: int) -> int:
    """Entry ``shift / width`` of row r: ``bias`` offsets it and every lower
    slot into ``[0, 2^width)``, so none borrows from it."""
    half = 1 << (width - 1)
    return ((packed[r] + bias) >> shift & (half << 1) - 1) - half


def _cancel(v: list[int], bound: int, a: int, row: ExactMatrix, width: int):
    """``v <- (c/g) v - (a/g) S`` in the packed rows ``v``, for the stored
    row S = ``row`` with pivot entry ``c = row.den``, v's entry ``a`` there
    and ``g = gcd(c, a)``: one big-int multiply-add per row.  Returns the
    new bound, or None, v unchanged, where ``width`` does not certify it."""
    c = row.den
    g = math.gcd(c, a)
    m, x = c // g, a // g
    grown = m * bound + abs(x) * row.bound
    if grown >> (width - 1):
        return None
    v[:] = (list(map(sub, v, row.packed)) if m == x == 1
            else [m * p - x * q for p, q in zip(v, row.packed)])
    return grown


def _exact_bound(v, width: int, cols: int) -> int:
    """The largest |entry| of packed rows certified at ``width``, off their slots."""
    return max(map(abs, _unpack(v, width, cols)))


class ExactSpan:
    """The span of ``rows`` x ``cols`` rational matrices, flattened row-major
    and kept in reduced echelon form (see the module docstring).

    Pivots are first nonzero entries, rows are fully reduced against each
    other, and each is scaled to content one with a positive pivot, so the
    stored rows depend only on the subspace.  Reducing
    ``v <- (c/g) v - (a/g) S`` grows the vector's proven bound by ``c/g``
    and by ``|a/g|`` times S's bound.  Where the width would not certify a
    step, the step is tried with the exact bound, read off the slots, and
    then the span repacks every row at twice the width and reduces again,
    so no slot is read and no zero decided under an uncertified bound.  An
    accepted row stays packed where its pivot is one and its bound fits
    the narrowest width; any other is unpacked once, to divide out its
    content, which leaves it certified at the width it was reduced at.
    """

    def __init__(self, rows: int, cols: int):
        self.shape = (rows, cols)
        self.width = _MIN_WIDTH
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

    def _stored(self, packed, key, bound: int, width: int):
        """A stored row from packed rows whose first nonzero entry is at
        ``key``, divided by its content, pivot positive.  A pivot of one
        leaves the content one, and the row stays packed unless its bound
        passes the narrowest width."""
        pivot, r, shift, bias = key
        c = _slot(packed, r, shift, bias, width)
        if c != 1 or bound >> (_MIN_WIDTH - 1):
            cols = self.shape[1]
            entries = _unpack(packed, width, cols)
            g = math.gcd(*entries)
            g = -g if entries[pivot] < 0 else g
            entries = [x // g for x in entries]
            c, bound = entries[pivot], max(map(abs, entries))
            packed = [_pack(entries[k:k + cols], width) for k in range(0, len(entries), cols)]
        return (*key, ExactMatrix._packed(*self.shape, c, bound, width, packed))

    def _rows_at(self, width: int):
        """The stored rows at ``width``, at least the own, which certifies them."""
        if width == self.width:
            return self._rows
        return [(*self._key(pivot, width),
                 ExactMatrix._packed(*self.shape, row.den, row.bound, width, row._at(width)))
                for pivot, *_, row in self._rows]

    def _residual(self, mat: ExactMatrix, width: int = 0):
        """(rows, packed rows, bound, width): ``mat``'s numerators reduced
        against the stored rows, at the narrowest width from ``width`` up
        that certifies every step."""
        if (mat.rows, mat.cols) != self.shape:
            raise ValueError("matrix shape does not match the span")
        width = max(self.width, mat.width, width)
        while True:
            rows = self._rows_at(width)
            v, bound = list(mat._at(width)), mat.bound
            half, mask = 1 << (width - 1), (1 << width) - 1
            for _, r, shift, bias, row in rows:
                a = ((v[r] + bias) >> shift & mask) - half
                if a:
                    # a proven bound may be loose: retry with the exact one
                    bound = (_cancel(v, bound, a, row, width)
                             or _cancel(v, _exact_bound(v, width, self.shape[1]), a, row, width))
                    if bound is None:
                        break
            if bound is not None:
                return rows, v, bound, width
            width *= 2

    def insert(self, mat: ExactMatrix) -> bool:
        """Adjoin a matrix; returns True iff the dimension grew."""
        width = 0
        while True:
            rows, v, bound, width = self._residual(mat, width)
            grew = any(v)
            if grew:
                rows = self._accepted(rows, v, bound, width)
            if rows is not None:
                self.width, self._rows = width, rows
                return grew
            width *= 2

    def _accepted(self, rows, v, bound: int, width: int):
        """The stored rows with the nonzero residual ``v`` adjoined and every
        row reduced against it; None where ``width`` does not certify a step."""
        # The pivot is in the first nonzero row r, and the lowest set bit of a
        # certified row int lies in its first nonzero slot.
        r = next(i for i, x in enumerate(v) if x)
        j = ((v[r] & -v[r]).bit_length() - 1) // width
        new = self._stored(v, self._key(r * self.shape[1] + j, width), bound, width)
        updated, key = [new], new[:4]
        for old in rows:
            a = _slot(old[4].packed, *key[1:], width)
            if a:
                packed = list(old[4].packed)
                grown = _cancel(packed, old[4].bound, a, new[4], width)
                if grown is None:
                    return None
                old = self._stored(packed, old[:4], grown, width)
            updated.append(old)
        return sorted(updated, key=itemgetter(0))

    def contains(self, mat: ExactMatrix) -> bool:
        """Exact membership: the residual after reduction is zero.  The
        stored rows are left as they are."""
        return not any(self._residual(mat)[1])

    def basis(self) -> list[ExactMatrix]:
        """The reduced echelon rows as matrices, pivots normalized to one."""
        return [row for *_, row in self._rows]
