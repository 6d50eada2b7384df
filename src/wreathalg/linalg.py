"""Dense exact matrices over Q(zeta_N) and echelon-form span bookkeeping.

Two representations coexist here.  ``ExactMatrix`` is the general-purpose
dense matrix with CycloNum entries.  ``ExactSpan`` keeps a subspace of
flat vectors in reduced echelon form; while every inserted vector is
rational it works on integer rows scaled to content one (all arithmetic
stays in machine/big integers, which is what makes the closure oracle
fast), and it upgrades itself to CycloNum rows the first time a vector
with an irrational entry arrives.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import ONE, ZERO, CycloNum

__all__ = ["ExactMatrix", "ExactSpan", "SpanBasis", "product_closure"]


def as_cyclo(value) -> CycloNum:
    if isinstance(value, CycloNum):
        return value
    return CycloNum.from_rational(value)


class ExactMatrix:
    """Immutable dense matrix with exact cyclotomic entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        data = [[as_cyclo(v) for v in row] for row in rows]
        if not data or any(len(row) != len(data[0]) for row in data):
            raise ValueError("rows must be nonempty and of equal length")
        return cls(len(data), len(data[0]), data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        data = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = ONE
        return cls(n, n, data)

    @classmethod
    def ones(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [[ONE] * cols for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [[-a for a in row] for row in self.data])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            arow = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                c = arow[k]
                if c.is_zero():
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + c * b
        return ExactMatrix(self.rows, other.cols, out)

    def scaled(self, scalar) -> "ExactMatrix":
        s = as_cyclo(scalar)
        return ExactMatrix(self.rows, self.cols, [[s * a for a in row] for row in self.data])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, [list(col) for col in zip(*self.data)])

    def apply(self, vector):
        """Matrix-vector product; the vector entries are coerced to CycloNum."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match")
        vec = [as_cyclo(v) for v in vector]
        out = []
        for row in self.data:
            acc = ZERO
            for a, v in zip(row, vec):
                if not a.is_zero() and not v.is_zero():
                    acc = acc + a * v
            out.append(acc)
        return out

    def trace(self) -> CycloNum:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.data[i][i]
        return acc

    def flat(self):
        return [a for row in self.data for a in row]

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.data for a in row)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))

    def _require_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shapes do not match")

    def __repr__(self):
        return f"<ExactMatrix {self.rows}x{self.cols}>"


def _content_normalized(row: list[int], pivot: int) -> list[int]:
    g = 0
    for a in row:
        if a:
            g = math.gcd(g, a)
    if row[pivot] < 0:
        g = -g
    return [a // g for a in row]


def _support(row: list[int]) -> list[int]:
    return [k for k, a in enumerate(row) if a]


def _reduce_cyclo(rows, v: list[CycloNum]) -> list[CycloNum]:
    """Reduce ``v`` against (pivot, row) pairs whose pivots are one."""
    for pivot, row in rows:
        c = v[pivot]
        if not c.is_zero():
            v = [a - c * b if not b.is_zero() else a for a, b in zip(v, row)]
    return v


class ExactSpan:
    """A subspace of length-``length`` vectors in reduced echelon form.

    Pivoting is first-nonzero-entry; rows are fully reduced against each
    other, so the stored basis is the reduced echelon form of the subspace
    and does not depend on which spanning vectors were inserted, or in
    which order.
    """

    def __init__(self, length: int):
        self.length = length
        # (pivot, row, indices of the row's nonzero entries)
        self._int_rows: list[tuple[int, list[int], list[int]]] = []
        self._cyclo_rows: list[tuple[int, list[CycloNum]]] | None = None

    @property
    def dimension(self) -> int:
        if self._cyclo_rows is not None:
            return len(self._cyclo_rows)
        return len(self._int_rows)

    # -- input conversion ---------------------------------------------------

    def _as_int_vector(self, vec):
        # None signals an irrational entry (handled by the CycloNum path).
        values = []
        denom = 1
        for v in vec:
            if isinstance(v, CycloNum):
                if not v.is_rational():
                    return None
                v = v.coeffs[0]
            elif isinstance(v, int):
                values.append(v)
                continue
            elif not isinstance(v, Fraction):
                v = Fraction(v)
            values.append(v)
            if isinstance(v, Fraction):
                denom = denom * v.denominator // math.gcd(denom, v.denominator)
        if denom == 1:
            return [int(v) for v in values]
        return [int(v * denom) for v in values]

    @staticmethod
    def _as_cyclo_vector(vec):
        return [as_cyclo(v) for v in vec]

    def _upgrade(self):
        self._cyclo_rows = self._cyclo_view()
        self._int_rows = []

    # -- integer rows ---------------------------------------------------------

    def _reduce_int(self, v: list[int]) -> list[int]:
        v = list(v)
        for pivot, row, support in self._int_rows:
            c = v[pivot]
            if c:
                rp = row[pivot]
                if c % rp == 0:
                    # v needs no rescaling, so only the row's support changes.
                    m_row = c // rp
                    for k in support:
                        v[k] -= m_row * row[k]
                    continue
                g = math.gcd(c, rp)
                m_v, m_row = rp // g, c // g
                v = [m_v * a - m_row * b for a, b in zip(v, row)]
        return v

    def _insert_int(self, v: list[int]) -> bool:
        v = self._reduce_int(v)
        if not any(v):
            return False
        pivot = next(k for k, a in enumerate(v) if a)
        v = _content_normalized(v, pivot)
        updated = []
        for p, row, support in self._int_rows:
            c = row[pivot]
            if c:
                vp = v[pivot]
                g = math.gcd(c, vp)
                m_row, m_v = vp // g, c // g
                row = _content_normalized([m_row * a - m_v * b for a, b in zip(row, v)], p)
                support = _support(row)
            updated.append((p, row, support))
        updated.append((pivot, v, _support(v)))
        updated.sort(key=lambda item: item[0])
        self._int_rows = updated
        return True

    # -- cyclotomic rows --------------------------------------------------------

    def _insert_cyclo(self, v: list[CycloNum]) -> bool:
        v = _reduce_cyclo(self._cyclo_rows, v)
        pivot = next((k for k, a in enumerate(v) if not a.is_zero()), None)
        if pivot is None:
            return False
        inv = v[pivot].inv()
        v = [a * inv for a in v]
        updated = []
        for p, row in self._cyclo_rows:
            c = row[pivot]
            if not c.is_zero():
                row = [a - c * b if not b.is_zero() else a for a, b in zip(row, v)]
            updated.append((p, row))
        updated.append((pivot, v))
        updated.sort(key=lambda item: item[0])
        self._cyclo_rows = updated
        return True

    # -- public API -----------------------------------------------------------

    def insert(self, vec) -> bool:
        """Adjoin a vector; returns True iff the dimension grew."""
        if len(vec) != self.length:
            raise ValueError("vector length does not match the ambient space")
        if self._cyclo_rows is None:
            v = self._as_int_vector(vec)
            if v is not None:
                return self._insert_int(v)
            self._upgrade()
        return self._insert_cyclo(self._as_cyclo_vector(vec))

    def contains(self, vec) -> bool:
        """Exact membership: the residual after reduction is zero."""
        if len(vec) != self.length:
            raise ValueError("vector length does not match the ambient space")
        rows = self._cyclo_rows
        if rows is None:
            v = self._as_int_vector(vec)
            if v is not None:
                return not any(self._reduce_int(v))
            # An irrational vector against integer rows: reduce it against
            # their cyclotomic view, leaving the stored rows as they are.
            rows = self._cyclo_view()
        residual = _reduce_cyclo(rows, self._as_cyclo_vector(vec))
        return all(a.is_zero() for a in residual)

    def _cyclo_view(self):
        rows = []
        for pivot, row, _ in self._int_rows:
            inv = Fraction(1, row[pivot])
            rows.append((pivot, [CycloNum.from_rational(a * inv) for a in row]))
        return rows

    def vectors(self):
        """The reduced basis rows, pivots normalized to one."""
        if self._cyclo_rows is not None:
            return [list(row) for _, row in self._cyclo_rows]
        return [[CycloNum.from_rational(Fraction(a, row[pivot])) for a in row]
                for pivot, row, _ in self._int_rows]


class SpanBasis:
    """Span of equal-shape matrices, flattened row-major into an ExactSpan."""

    def __init__(self, rows: int, cols: int):
        self.shape = (rows, cols)
        self.span = ExactSpan(rows * cols)

    @classmethod
    def from_matrices(cls, matrices) -> "SpanBasis":
        matrices = list(matrices)
        if not matrices:
            raise ValueError("need at least one matrix")
        basis = cls(matrices[0].rows, matrices[0].cols)
        for mat in matrices:
            basis.insert(mat)
        return basis

    @classmethod
    def _wrap(cls, span: ExactSpan, rows: int, cols: int) -> "SpanBasis":
        basis = cls.__new__(cls)
        basis.shape = (rows, cols)
        basis.span = span
        return basis

    def insert(self, matrix: ExactMatrix) -> bool:
        if (matrix.rows, matrix.cols) != self.shape:
            raise ValueError("matrix shape does not match the span")
        return self.span.insert(matrix.flat())

    def contains(self, matrix: ExactMatrix) -> bool:
        if (matrix.rows, matrix.cols) != self.shape:
            raise ValueError("matrix shape does not match the span")
        return self.span.contains(matrix.flat())

    @property
    def dimension(self) -> int:
        return self.span.dimension

    def basis(self) -> list[ExactMatrix]:
        rows, cols = self.shape
        out = []
        for vec in self.span.vectors():
            data = [vec[r * cols:(r + 1) * cols] for r in range(rows)]
            out.append(ExactMatrix(rows, cols, data))
        return out


def _left_product(row_terms, rows, n: int, zero):
    """Flat ``g*r`` from the nonzero ``(column, entry)`` terms of each row of
    ``g`` and the rows of ``r``: row i of the product is the combination of
    the rows of ``r`` that row i of ``g`` selects."""
    out = [zero] * (n * n)
    start = 0
    for terms in row_terms:
        if len(terms) == 1 and terms[0][1] == 1:
            out[start:start + n] = rows[terms[0][0]]
        elif terms:
            picked = [rows[k] if c == 1 else [c * b for b in rows[k]] for k, c in terms]
            out[start:start + n] = [sum(col, zero) for col in zip(*picked)]
        start += n
    return out


def product_closure(matrices) -> SpanBasis:
    """Smallest subspace containing ``matrices`` and closed under products.

    Word schedule: the accepted spanning vectors ``reps`` are walked in
    acceptance order, each is multiplied on the left by every accepted
    generator, and a product that grows the span joins ``reps``.  The final
    span V contains the generators S and satisfies s*V within V for each s,
    so every word s1*(s2...sk) lies in V by induction on k; since V is
    spanned by words, it is exactly the span of all words.

    Rational generators are scaled to integers, which leaves the algebra
    unchanged, and multiplied as flat int vectors inserted straight into the
    integer echelon; otherwise the same loop runs on CycloNum vectors.  The
    basis is the span's reduced echelon form, which depends only on the
    subspace, not on the schedule.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one generator")
    n = matrices[0].rows
    if any(m.rows != n or m.cols != n for m in matrices):
        raise ValueError("generators must be square matrices of equal size")
    span = ExactSpan(n * n)
    vecs = [span._as_int_vector(m.flat()) for m in matrices]
    if all(v is not None for v in vecs):
        zero, insert = 0, span._insert_int
    else:
        span._upgrade()
        vecs = [m.flat() for m in matrices]
        zero, insert = ZERO, span._insert_cyclo
    generators, reps = [], []
    for v in vecs:
        if insert(v):
            generators.append([[(k, c) for k, c in enumerate(v[i:i + n]) if c]
                               for i in range(0, n * n, n)])
            reps.append(v)
    for r in reps:  # reps grows while it is walked
        rows = [r[i:i + n] for i in range(0, n * n, n)]
        for row_terms in generators:
            product = _left_product(row_terms, rows, n, zero)
            if insert(product):
                reps.append(product)
    return SpanBasis._wrap(span, n, n)
