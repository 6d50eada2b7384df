"""The exact references the tests compare the package against.

Each reference is the slow, direct computation that a path of the package
replaced, kept here as it was so that every cross-check stays independent
of the code it checks.  None of them is on a CLI path.

- ``TerwilligerContext``, ``make_context``, ``wreath_context`` and
  ``standard_generators``: the n x n adjacency matrices and dual
  idempotents of a base point, which the references below multiply; the
  package holds E*_i as its sphere and E*_i A_j E*_h as its piece.
- ``product_closure`` and ``algebra_dimension``: the flat closure of the
  n x n generators, the reference of ``terwilliger.block_closure``.
  ``pairwise_closure`` is in turn the reference of ``product_closure``.
- ``close_blocks_by_products``: the block closure that forms every product
  of a factor and an accepted block, the reference of the products that
  ``terwilliger.close_blocks`` skips as constant multiples of the all-ones
  block.
- ``label_triples`` and ``t0_dimension``: the labels of the vertex pairs
  at a base point and their count, dim T_0(x), read from the class table;
  ``pieces_by_rows`` builds the 0/1 block of each label entry by entry, the
  reference of ``terwilliger.starting_pieces``.
- ``triple_product`` and ``t0_span``: the matrices E*_i A_j E*_h, the
  reference of ``label_triples`` and ``t0_dimension``.
- ``CycloMatrix`` and ``CycloSpan``: matrices over Q(zeta_N), which the
  references below form and the package does not, held as their phi(N)
  planes of the package's rational ``ExactMatrix``, and their spans by
  restriction of scalars to the package's rational ``ExactSpan``;
  ``span_of`` picks the span that holds given matrices.
- ``grid_product`` and ``grid_map``: entrywise CycloNum arithmetic, the
  reference of the ``ExactMatrix`` operations and of ``CycloMatrix``'s.
- ``identity``, ``trace`` and ``classify``: the n x n identity, the trace
  of a square matrix and one table entry, which only the tests read.
- ``ReferenceSpan``: CycloNum Gauss-Jordan elimination, the reference of
  ``ExactSpan`` and ``CycloSpan``.
- ``brute_intersection`` and ``commutes_by_products``: the intersection
  numbers and commutativity from their definitions, the reference of the
  table-read ``Scheme`` parameters.
- ``intersection_data_by_counts``: the intersection tensor and its witness
  with the path counts of each vertex pair counted vertex by vertex, the
  reference of the packed row sums of ``Scheme``.
- ``relabelled``: a wreath table with its vertices permuted by a seeded
  permutation, as the benchmark's oracle workload draws it.
- ``transpose_witness_by_pairs``: the transpose axiom's first witness by
  a loop over every pair, the reference of ``Scheme._transpose_witness``.
- ``triple_intersection``: one triple intersection count by enumeration
  over the vertex set.
- ``generating_classes_by_reclosure``: the greedy generating class set with
  the word span closed again from scratch for every label that joins, the
  reference of the grown span of ``Scheme.generating_classes``.
- ``triply_regular_by_counts``: the triple-regularity sweep with a dict of
  label counts per tuple, the reference of the sorted-code sweep of
  ``check_triply_regular``.
- ``block_ones``, ``unit_matrix`` and ``unit_matrices``: the k^2 units of
  a family as n x n matrices, which the unit references read; the package
  holds a family as its spheres and forms no unit.
- ``units_by_products`` and ``idempotents_by_products``: the unit and
  idempotent families built from n x n sandwiches E_a M E_b, the reference
  of the piece-read builds of ``structure``, the idempotents held as
  ``MemberMatrices``; ``embedded`` puts a block back into n x n.
- ``closed_form_members``: each member of a ``CentralIdempotentFamily`` as
  its block I (x) P_xi (x) J / n_h, formed entry by entry from the digits
  of the vertices' positions in their sphere; ``_idempotent_scalar`` is
  the eigenvalue of A_j on it.
- ``matrix_units_by_products``, ``adjacency_action_by_products``,
  ``central_idempotents_by_products``, ``unit_ideal_by_membership``,
  ``quotient_commutes_by_membership``, ``unit_rank_by_echelon``,
  ``commutation_by_products``, ``primary_module_by_products`` and
  ``span_accounting_by_blocks``: the per-point checks as n x n products,
  unit-span memberships and echelon ranks, the reference of the checks of
  ``structure`` and ``terwilliger``.

It also holds the example tables and moduli tuples the tests share, and
``rebind``, which replaces a public wreathalg function through every
binding.
"""

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import permutations, repeat
from itertools import product as iter_product
from operator import add, neg

from wreathalg import (
    ZERO,
    BasePoint,
    CentralIdempotentFamily,
    CheckResult,
    CycloNum,
    ExactMatrix,
    ExactSpan,
    MatrixUnitFamily,
    Scheme,
    StructureError,
    WreathIndex,
    check_moduli,
    class_indices,
    dimension_formula,
    euler_phi,
    indices_below_level,
    one_dim_ideal_count,
    rational,
    wreath_of_cyclics,
    zeta,
)
from wreathalg.decomposition import _require_wreath
from wreathalg.terwilliger import _spheres

# -- n x n contexts ---------------------------------------------------------------------


@dataclass
class TerwilligerContext:
    """A scheme together with a base point and the derived n x n matrices."""

    scheme: Scheme
    base_point: int
    adjacency: list[ExactMatrix]
    dual_idempotents: list[ExactMatrix]
    spheres: list[list[int]]
    moduli: tuple[int, ...] | None = None


def make_context(scheme: Scheme, base_point: int, moduli=None) -> TerwilligerContext:
    spheres = _spheres(scheme, base_point)
    duals = []
    zero = [0] * scheme.order
    for i in range(scheme.classes):
        rows = [zero] * scheme.order
        for y in spheres[i]:
            rows[y] = [0] * scheme.order
            rows[y][y] = 1
        duals.append(ExactMatrix.from_rows(rows))
    adjacency = [scheme.adjacency_matrix(i) for i in range(scheme.classes)]
    if moduli is not None:
        moduli = check_moduli(moduli)
    return TerwilligerContext(scheme, base_point, adjacency, duals, spheres, moduli)


def wreath_context(moduli, base_point: int) -> TerwilligerContext:
    m = check_moduli(moduli)
    return make_context(wreath_of_cyclics(m), base_point, moduli=m)


def standard_generators(ctx: TerwilligerContext) -> list[ExactMatrix]:
    """Adjacency matrices followed by the dual idempotents, in class order."""
    return list(ctx.adjacency) + list(ctx.dual_idempotents)


def wreath_point(moduli, base_point: int) -> BasePoint:
    """A fresh base point of the wreath scheme with these moduli."""
    m = check_moduli(moduli)
    return BasePoint(wreath_of_cyclics(m), m, base_point, {})


def label_triples(scheme: Scheme, x: int) -> set[tuple[int, int, int]]:
    """The labels (t[x][y], t[y][z], t[x][z]) of all vertex pairs (y, z).

    E_i* A_j E_h* at base point x is the 0/1 matrix of the pairs labelled
    (i, j, h).  Each pair has one label, so the nonzero triple products have
    disjoint supports and dim T_0(x) is the number of labels present.  For a
    scheme, (i, j, h) is present iff p^h_{ij} != 0 (Terwilliger 1992, Lemma 3.2).
    """
    if not 0 <= x < scheme.order:
        raise ValueError(f"base point {x} out of range")
    tx = scheme.table[x]
    return set().union(*(zip(repeat(tx[y]), row, tx) for y, row in enumerate(scheme.table)))


def t0_dimension(scheme: Scheme, base_point: int) -> int:
    """dim T_0(x): the number of label triples at x."""
    return len(label_triples(scheme, base_point))


def pieces_by_rows(scheme: Scheme, base_point: int) -> dict[tuple[int, int, int], ExactMatrix]:
    """E*_i A_j E*_h at x as the 0/1 block of the pairs labelled j on
    S_i x S_h, one per label triple, built entry by entry through
    ``ExactMatrix.from_rows``: the reference of ``starting_pieces``."""
    spheres, t = _spheres(scheme, base_point), scheme.table
    return {
        (i, j, h): ExactMatrix.from_rows([[int(t[y][z] == j) for z in spheres[h]] for y in spheres[i]])
        for i, j, h in sorted(label_triples(scheme, base_point))
    }


# -- closures -------------------------------------------------------------------------


def product_closure(matrices) -> ExactSpan:
    """Smallest subspace containing ``matrices`` and closed under products.

    Word schedule: the accepted spanning matrices ``reps`` are walked in
    acceptance order, each is multiplied on the left by every accepted
    generator, and a product that grows the span joins ``reps``.  The final
    span V contains the generators S and satisfies s*V within V for each s,
    so every word s1*(s2...sk) lies in V by induction on k; since V is
    spanned by words, it is exactly the span of all words.

    Products are packed matrix products, and every one is inserted into the
    span as it comes.  The basis is the span's reduced echelon form, which
    depends only on the subspace, not on the schedule.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one generator")
    n = matrices[0].rows
    if any(m.rows != n or m.cols != n for m in matrices):
        raise ValueError("generators must be square matrices of equal size")
    span = span_of(matrices, n, n)
    generators = [m for m in matrices if span.insert(m)]
    reps = list(generators)
    for r in reps:  # reps grows while it is walked
        for g in generators:
            product = g * r
            if span.insert(product):
                reps.append(product)
    return span


def algebra_dimension(scheme: Scheme, base_point: int) -> int:
    """Dimension of the algebra at a base point by the flat closure of the
    n x n generators: the reference for ``block_closure``."""
    return product_closure(standard_generators(make_context(scheme, base_point))).dimension


def pairwise_closure(matrices) -> ExactSpan:
    """Round by round, every pair of accepted spanning matrices, at least one
    of them new, multiplied until a round adds nothing: the reference of
    ``product_closure``."""
    n = matrices[0].rows
    span = span_of(matrices, n, n)
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


def close_blocks_by_products(pieces, factors) -> dict[tuple[int, int], ExactSpan]:
    """``terwilliger.close_blocks`` with every product formed: each accepted
    block at (i, k), walked in acceptance order, times every factor
    (h, j, i), inserted at (h, k), and accepted where it grows the span.
    Only a span that holds every matrix of its shape gets no product."""
    spans: dict[tuple[int, int], ExactSpan] = {}

    def grows(i, k, mat):
        if (i, k) not in spans:
            spans[i, k] = ExactSpan(mat.rows, mat.cols)
        return spans[i, k].insert(mat)

    acting = {}
    for (h, _, i), factor in factors.items():
        acting.setdefault(i, []).append((h, factor))
    accepted = [(i, k, piece) for (i, _, k), piece in pieces.items() if grows(i, k, piece)]
    for i, k, mat in accepted:  # accepted grows while it is walked
        for h, factor in acting.get(i, ()):
            span = spans.get((h, k))
            if span is not None and span.dimension == factor.rows * mat.cols:
                continue
            product = factor * mat
            if grows(h, k, product):
                accepted.append((h, k, product))
    return spans


# -- triple products ------------------------------------------------------------------


def triple_product(ctx: TerwilligerContext, i: int, j: int, h: int) -> ExactMatrix:
    """The exact product E_i* A_j E_h*: the matrix reference for ``label_triples``."""
    return ctx.dual_idempotents[i] * ctx.adjacency[j] * ctx.dual_idempotents[h]


def t0_span(ctx: TerwilligerContext) -> ExactSpan:
    """Span (no closure) of all triple products E_i* A_j E_h*."""
    span = ExactSpan(ctx.scheme.order, ctx.scheme.order)
    for i, j, h in iter_product(range(ctx.scheme.classes), repeat=3):
        span.insert(triple_product(ctx, i, j, h))
    return span


# -- matrices and spans over Q(zeta_N) ---------------------------------------------------


def as_cyclo(value) -> CycloNum:
    """``value`` as a CycloNum: an int or a Fraction at conductor 1."""
    return value if isinstance(value, CycloNum) else rational(value)


def _planes(terms, conductor: int, rows: int, cols: int) -> list[ExactMatrix]:
    """The planes of ``sum_d M_d z^d`` over Q(zeta_conductor), for the pairs
    (d, M_d) of ``terms``, each z^d read in the power basis from ``zeta``."""
    planes = [ExactMatrix.zeros(rows, cols)] * euler_phi(conductor)
    for d, mat in terms:
        for j, c in enumerate(zeta(conductor, d).coeffs):
            if c:
                planes[j] = planes[j] + mat.scaled(c)
    return planes


class CycloMatrix:
    """A matrix over Q(zeta_N), N = ``conductor``, held as its planes: the
    phi(N) rational ``ExactMatrix`` M_s with the matrix sum_s zeta_N^s M_s.
    The power basis is a basis of Q(zeta_N) over Q, so the planes are
    unique and equality is plane by plane.  A product convolves the planes
    and reduces the degrees modulo Phi_N; operands of different conductors
    are embedded into the lcm first, and a rational ``ExactMatrix`` is the
    conductor-1 matrix of its one plane."""

    def __init__(self, conductor: int, planes):
        self.conductor, self.planes = conductor, list(planes)
        self.rows, self.cols = self.planes[0].rows, self.planes[0].cols

    @classmethod
    def of(cls, mat) -> "CycloMatrix":
        return mat if isinstance(mat, CycloMatrix) else cls(1, [mat])

    @classmethod
    def from_rows(cls, rows) -> "CycloMatrix":
        """The matrix of a grid of CycloNum, int and Fraction entries, over
        the smallest field that holds them."""
        cells = [[as_cyclo(v) for v in row] for row in rows]
        # a rational cell, whatever its conductor, embeds in every field
        conductor = math.lcm(*(v.conductor for row in cells for v in row if not v.is_rational()))
        coeffs = [[v.embedded(conductor).coeffs for v in row] for row in cells]
        return cls(conductor, [ExactMatrix.from_rows([[c[s] for c in row] for row in coeffs])
                               for s in range(euler_phi(conductor))])

    def map(self, f) -> "CycloMatrix":
        """The matrix of the planes ``f(M_s)``, for a Q-linear ``f``."""
        return CycloMatrix(self.conductor, [f(plane) for plane in self.planes])

    def embedded(self, conductor: int) -> "CycloMatrix":
        """The same matrix over Q(zeta_conductor), a multiple of its own."""
        if conductor % self.conductor:
            raise ValueError("target conductor must be a multiple")
        step = conductor // self.conductor
        return self if step == 1 else CycloMatrix(conductor, _planes(
            [(s * step, plane) for s, plane in enumerate(self.planes)], conductor, self.rows, self.cols))

    def _both(self, other):
        """Both operands over the lcm of their conductors."""
        other = CycloMatrix.of(other)
        conductor = math.lcm(self.conductor, other.conductor)
        return self.embedded(conductor), other.embedded(conductor)

    def __add__(self, other):
        a, b = self._both(other)
        return CycloMatrix(a.conductor, map(add, a.planes, b.planes))

    __radd__ = __add__

    def __neg__(self):
        return self.map(neg)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._both(other)
        terms = [(s + t, x * y) for s, x in enumerate(a.planes) if not x.is_zero()
                 for t, y in enumerate(b.planes) if not y.is_zero()]
        return CycloMatrix(a.conductor, _planes(terms, a.conductor, a.rows, b.cols))

    def __rmul__(self, other):
        return CycloMatrix.of(other) * self

    def scaled(self, scalar) -> "CycloMatrix":
        value = as_cyclo(scalar)
        a = self.embedded(math.lcm(self.conductor, value.conductor))
        terms = [(k + s, plane.scaled(q)) for k, q in enumerate(value.embedded(a.conductor).coeffs) if q
                 for s, plane in enumerate(a.planes)]
        return CycloMatrix(a.conductor, _planes(terms, a.conductor, a.rows, a.cols))

    def transpose(self) -> "CycloMatrix":
        return self.map(ExactMatrix.transpose)

    def is_zero(self) -> bool:
        return all(plane.is_zero() for plane in self.planes)

    def __eq__(self, other):
        a, b = self._both(other)
        return a.planes == b.planes

    @property
    def data(self) -> list[list[CycloNum]]:
        return [[CycloNum(self.conductor, cell) for cell in zip(*rows)]
                for rows in zip(*(plane.data for plane in self.planes))]

    def flat(self) -> list[CycloNum]:
        return [value for row in self.data for value in row]

    def __getitem__(self, key) -> CycloNum:
        return CycloNum(self.conductor, tuple(plane[key] for plane in self.planes))


class CycloSpan:
    """The span over Q(zeta_N), N = ``conductor``, of ``rows`` x ``cols``
    matrices, by restriction of scalars: the package's rational ``ExactSpan``
    of the planes, stacked, of zeta_N^k M for k < phi(N) and each M adjoined.
    The Q-span of those is the Q(zeta_N)-span of the M, so its Q-dimension
    is phi(N) times theirs and membership over Q(zeta_N) is Q-membership.
    An insert grows the span iff M itself is new, and then by phi(N)."""

    def __init__(self, rows: int, cols: int, conductor: int):
        self.conductor, self.phi = conductor, euler_phi(conductor)
        self.span = ExactSpan(self.phi * rows, cols)

    def _stacked(self, mat) -> ExactMatrix:
        planes = CycloMatrix.of(mat).embedded(self.conductor).planes
        return ExactMatrix.from_rows([row for plane in planes for row in plane.data])

    def insert(self, mat) -> bool:
        grew = self.span.insert(self._stacked(mat))
        for k in range(1, self.phi) if grew else ():
            self.span.insert(self._stacked(CycloMatrix.of(mat).scaled(zeta(self.conductor, k))))
        return grew

    def contains(self, mat) -> bool:
        return self.span.contains(self._stacked(mat))

    @property
    def dimension(self) -> int:
        return self.span.dimension // self.phi

    def basis(self) -> list[ExactMatrix]:
        """The rational span's reduced echelon rows: a canonical Q-basis."""
        return self.span.basis()


def span_of(matrices, rows: int, cols: int):
    """An empty span for ``matrices``: the package's ``ExactSpan`` where all
    are rational ``ExactMatrix``, else the ``CycloSpan`` over the lcm of
    their conductors."""
    if all(isinstance(mat, ExactMatrix) for mat in matrices):
        return ExactSpan(rows, cols)
    return CycloSpan(rows, cols, math.lcm(*(CycloMatrix.of(mat).conductor for mat in matrices)))


# -- entrywise matrices and spans -----------------------------------------------------


def grid_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def grid_map(f, *grids):
    return [[f(*cells) for cells in zip(*rows)] for rows in zip(*grids)]


def identity(n: int) -> ExactMatrix:
    return ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def trace(mat: ExactMatrix):
    if mat.rows != mat.cols:
        raise ValueError("trace of a non-square matrix")
    return sum((mat[i, i] for i in range(mat.rows)), ZERO)


def classify(scheme: Scheme, x: int, y: int) -> int:
    return scheme.table[x][y]


class ReferenceSpan:
    """Reduced echelon form over CycloNum entries, pivots one."""

    def __init__(self):
        self.rows = []  # (pivot, row), sorted by pivot

    def _reduce(self, v):
        for pivot, row in self.rows:
            c = v[pivot]
            if not c.is_zero():
                v = [a - c * b if not b.is_zero() else a for a, b in zip(v, row)]
        return v

    def insert(self, vec) -> bool:
        v = self._reduce([as_cyclo(a) for a in vec])
        pivot = next((k for k, a in enumerate(v) if not a.is_zero()), None)
        if pivot is None:
            return False
        inv = v[pivot].inv()
        v = [a * inv for a in v]
        updated = []
        for p, row in self.rows:
            c = row[pivot]
            if not c.is_zero():
                row = [a - c * b if not b.is_zero() else a for a, b in zip(row, v)]
            updated.append((p, row))
        updated.append((pivot, v))
        updated.sort(key=lambda item: item[0])
        self.rows = updated
        return True

    def contains(self, vec) -> bool:
        return all(a.is_zero() for a in self._reduce([as_cyclo(a) for a in vec]))

    def vectors(self):
        return [row for _, row in self.rows]


# -- scheme parameters ----------------------------------------------------------------


def brute_intersection(table, i, j, h):
    """Independent recount of p_{ij}^h straight from the definition."""
    n = len(table)
    counts = set()
    for x in range(n):
        for y in range(n):
            if table[x][y] == h:
                counts.add(sum(1 for z in range(n) if table[x][z] == i and table[z][y] == j))
    assert len(counts) == 1, "table is not a scheme"
    return counts.pop()


def intersection_data_by_counts(scheme: Scheme):
    """The first pair's path counts of each relation, as ``tensor[h]`` keyed
    by the label pair (i, j), up to the first pair whose counts differ from
    its relation's, and that first regularity witness, or None: each pair in
    row order is counted on its own, over every z, and the witness names the
    first label pair (i, j) in sorted order whose counts differ.  The
    reference of ``Scheme._intersection_data``."""
    n = scheme.order
    t = scheme.table
    columns = list(zip(*t))
    tensor = {}
    pairs = {}
    for x, y in iter_product(range(n), repeat=2):
        h = t[x][y]
        counts = Counter(zip(t[x], columns[y]))  # (t[x][z], t[z][y]) over z
        if h not in tensor:
            tensor[h], pairs[h] = counts, (x, y)
        elif tensor[h] != counts:
            ref = tensor[h]
            i, j = next(key for key in sorted(ref.keys() | counts.keys()) if counts[key] != ref[key])
            witness = (
                f"count of class-{i}/class-{j} paths is {ref[i, j]} "
                f"for pair {pairs[h]} but {counts[i, j]} for ({x},{y}), "
                f"both in relation {h}"
            )
            return tensor, witness
    return tensor, None


def transpose_witness_by_pairs(scheme: Scheme) -> str | None:
    """The first pair, in row order, whose transpose label breaks the
    transpose map, as ``verify_axioms`` names it, or None: the reference of
    ``Scheme._transpose_witness``."""
    t = scheme.table
    tmap = {}
    for x, y in iter_product(range(scheme.order), repeat=2):
        i, it = t[x][y], t[y][x]
        if tmap.setdefault(i, it) != it:
            return f"classify({y},{x}) = {it} but class {i} transposed to {tmap[i]} before"
    return None


def triple_intersection(scheme: Scheme, x: int, y: int, z: int, i: int, j: int, h: int) -> int:
    """|R_i(x) & R_j(y) & R_h(z)| by enumeration over the vertex set."""
    t = scheme.table
    count = 0
    for w in range(scheme.order):
        if t[x][w] == i and t[y][w] == j and t[z][w] == h:
            count += 1
    return count


def word_span_by_reclosure(scheme: Scheme, classes) -> ExactSpan:
    """The span of the coefficient columns of the words in the A_j, j in
    ``classes``, applied to A_0, closed from scratch."""
    tensor = scheme._tensor
    c = scheme.classes
    # terms[g][m]: the nonzero (h, p^h_gm) of A_g A_m, one g per class
    terms = [[[(h, grid[g, m]) for h, grid in tensor.items() if grid[g, m]]
              for m in range(c)] for g in classes]
    words = [[1] + [0] * (c - 1)]
    span = ExactSpan.from_matrices([ExactMatrix.from_rows([[v] for v in words[0]])])
    for vector in words:  # words grows while it is walked
        for acting in terms:
            image = [0] * c
            for m, v in enumerate(vector):
                if v:
                    for h, p in acting[m]:
                        image[h] += v * p
            if span.insert(ExactMatrix.from_rows([[v] for v in image])):
                words.append(image)
    return span


def generating_classes_by_reclosure(scheme: Scheme):
    """The greedy generating class set, the word span closed again for every
    label that joins, on a scheme whose intersection numbers are defined."""
    c = scheme.classes
    classes: list[int] = []
    span = word_span_by_reclosure(scheme, classes)
    for j in range(1, c):
        if span.dimension == c:
            break
        if not span.contains(ExactMatrix.from_rows([[int(h == j)] for h in range(c)])):
            classes.append(j)
            span = word_span_by_reclosure(scheme, classes)
    return tuple(classes) if span.dimension == c else None


def commutes_by_products(scheme):
    """Every pair of adjacency matrices, multiplied exactly."""
    mats = [scheme.adjacency_matrix(i) for i in range(scheme.classes)]
    return all(a * b == b * a for k, a in enumerate(mats) for b in mats[k + 1:])


def triply_regular_by_counts(scheme: Scheme, sweep_points=None) -> CheckResult:
    """The triple-regularity sweep with one dict of label counts per tuple,
    one update per vertex: the reference of ``check_triply_regular``."""
    n = scheme.order
    t = scheme.table
    buckets: dict[tuple[int, int, int], tuple[tuple[int, int, int], dict]] = {}
    regular = True
    witness = None
    checked = 0
    for x in range(n) if sweep_points is None else sweep_points:
        tx = t[x]
        for y in range(n):
            ty = t[y]
            key_xy = tx[y]
            for z in range(n):
                tz = t[z]
                key = (key_xy, tx[z], ty[z])
                counts: dict[tuple[int, int, int], int] = {}
                for w in range(n):
                    label = (tx[w], ty[w], tz[w])
                    counts[label] = counts.get(label, 0) + 1
                checked += 1
                if key not in buckets:
                    buckets[key] = ((x, y, z), counts)
                elif buckets[key][1] != counts:
                    regular = False
                    first_triple, ref = buckets[key][0], buckets[key][1]
                    for label in sorted(set(ref) | set(counts)):
                        if ref.get(label, 0) != counts.get(label, 0):
                            witness = (
                                f"classes {label} over pair pattern {key}: count "
                                f"{ref.get(label, 0)} at {first_triple} but "
                                f"{counts.get(label, 0)} at {(x, y, z)}"
                            )
                            break
                    break
            if not regular:
                break
        if not regular:
            break
    return CheckResult("triply-regular", regular, witness, checked)


# -- the matrix-unit checks -----------------------------------------------------------


def block_ones(rows: int, cols: int, row_set, col_set) -> ExactMatrix:
    """The 0/1 matrix that is one on ``row_set`` x ``col_set``: u v^T for
    the indicator columns u and v of the two sets."""
    u = ExactMatrix.from_rows([[int(i in row_set)] for i in range(rows)])
    return u * ExactMatrix.from_rows([[int(j in col_set) for j in range(cols)]])


def unit_matrix(units: MatrixUnitFamily, a, b) -> ExactMatrix:
    """The unit G_ab = u_a u_b^T / n_b of the family as an n x n matrix; a
    and b are flat indices or WreathIndex."""
    sa, sb = (units.spheres[i.flat if isinstance(i, WreathIndex) else i] for i in (a, b))
    n = sum(map(len, units.spheres))  # the spheres cover the vertices
    return block_ones(n, n, sa, sb).scaled(Fraction(1, len(sb)))


def unit_matrices(units: MatrixUnitFamily) -> dict[tuple[int, int], ExactMatrix]:
    """Every unit of the family by its (a, b) key, in key order."""
    return {key: unit_matrix(units, *key) for key in units.keys}


def units_by_products(ctx: TerwilligerContext) -> MatrixUnitFamily:
    """The unit family, each unit formed from dual-idempotent products
    (sandwiching the adjacency matrix of the higher level, or the all-ones
    matrix on equal levels) scaled by the reciprocal column valency and
    compared with its closed form; the first mismatch, in key order, raises
    StructureError."""
    moduli = _require_wreath(ctx)
    scheme = ctx.scheme
    indices = class_indices(moduli)
    family = MatrixUnitFamily(
        moduli, ctx.base_point, indices, tuple(tuple(ctx.spheres[a.flat]) for a in indices))
    ones = ExactMatrix.ones(scheme.order, scheme.order)
    for a in indices:
        ea = ctx.dual_idempotents[a.flat]
        for b in indices:
            eb = ctx.dual_idempotents[b.flat]
            n_b = scheme.valency(b.flat)
            if a.level < b.level:
                mat = (ea * ctx.adjacency[b.flat] * eb).scaled(Fraction(1, n_b))
            elif a.level > b.level:
                mat = (ea * ctx.adjacency[a.flat].transpose() * eb).scaled(Fraction(1, n_b))
            else:
                mat = (ea * ones * eb).scaled(Fraction(1, n_b))
            if mat != unit_matrix(family, a, b):
                raise StructureError(f"x={ctx.base_point}: G[{a.flat},{b.flat}] does not match "
                                     f"the closed form u_{a.flat} u_{b.flat}^T / n_{b.flat}")
    return family


@dataclass
class MemberMatrices:
    """An idempotent family as matrices by member key (a, hx), flat indices,
    which the references multiply."""

    moduli: tuple[int, ...]
    base_point: int
    matrices: dict[tuple[int, int], CycloMatrix] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.matrices)

    def nonzero_count(self) -> int:
        return sum(1 for mat in self.matrices.values() if not mat.is_zero())


def idempotents_by_products(ctx: TerwilligerContext) -> MemberMatrices:
    """The idempotent family as n x n sandwiches E_a M E_a of the
    character-weighted sums M of adjacency matrices."""
    moduli = _require_wreath(ctx)
    family = MemberMatrices(moduli, ctx.base_point)
    for a in class_indices(moduli):
        if a.level < 2:
            continue
        ea = ctx.dual_idempotents[a.flat]
        for hx in class_indices(moduli):
            if hx.level == 0 or hx.level >= a.level:
                continue
            h, xi = hx.level, hx.offset
            p = moduli[h - 1]
            inner = None
            for r in indices_below_level(moduli, h):
                term = ctx.adjacency[r.flat]
                inner = term if inner is None else inner + term
            for t in range(1, p):
                level_index = WreathIndex(h, t, moduli)
                inner = inner + CycloMatrix.of(ctx.adjacency[level_index.flat]).scaled(zeta(p, t * xi))
            n_h = ctx.scheme.valency(hx.flat)
            family.matrices[(a.flat, hx.flat)] = (ea * inner * ea).scaled(Fraction(1, p * n_h))
    return family


def closed_form_members(family: CentralIdempotentFamily) -> dict[tuple[int, int], CycloMatrix]:
    """Each member F_(a,(h,xi)) of ``family``, in key order, as its block on
    S_a x S_a, rows and columns in the order of ``family.spheres[a]``: with
    y and z the positions of two vertices there, the entry is
    zeta_{p_h}^(xi (z_h - y_h)) / (p_h n_h) where y and z agree on the
    digits above h, and 0 elsewhere, with n_h = p_1...p_{h-1} and
    y_h = (y // n_h) mod p_h."""
    indices = class_indices(family.moduli)
    members = {}
    for a, key in family.keys:
        h, xi = indices[key].level, indices[key].offset
        p = family.moduli[h - 1]
        n_h = math.prod(family.moduli[:h - 1])
        positions = range(len(family.spheres[a]))
        rows = [[zeta(p, xi * (z // n_h % p - y // n_h % p)) if y // (n_h * p) == z // (n_h * p)
                 else ZERO for z in positions] for y in positions]
        members[a, key] = CycloMatrix.from_rows(rows).scaled(Fraction(1, p * n_h))
    return members


def _idempotent_scalar(moduli, scheme, a: WreathIndex, hx: WreathIndex, jb: WreathIndex):
    # Eigenvalue of A_(j,beta) on the (a, hx) idempotent.
    if jb.level >= a.level:
        return rational(0)
    if jb.level > hx.level:
        return rational(0)
    n_j = rational(scheme.valency(jb.flat))
    if jb.level == hx.level:
        p = moduli[hx.level - 1]
        return zeta(p, -jb.offset * hx.offset) * n_j
    return n_j


def embedded(block, rows, cols, order: int):
    """The n x n matrix that is ``block`` on ``rows`` x ``cols`` and zero
    elsewhere."""
    if isinstance(block, CycloMatrix):
        return block.map(lambda plane: embedded(plane, rows, cols, order))
    data = [[0] * order for _ in range(order)]
    for y, row in zip(rows, block.data):
        for z, value in zip(cols, row):
            data[y][z] = value
    return ExactMatrix(order, order, data)


def block(mat, rows, cols):
    """The submatrix of ``mat`` on ``rows`` x ``cols``, where every entry off
    it is zero; None otherwise."""
    if isinstance(mat, CycloMatrix):
        planes = [block(plane, rows, cols) for plane in mat.planes]
        return None if any(plane is None for plane in planes) else CycloMatrix(mat.conductor, planes)
    data = mat.data
    inside = {(y, z) for y in rows for z in cols}
    if any(value for y, row in enumerate(data) for z, value in enumerate(row) if (y, z) not in inside):
        return None
    return ExactMatrix.from_rows([[data[y][z] for z in cols] for y in rows])


def _unit_span(units: MatrixUnitFamily) -> ExactSpan:
    return ExactSpan.from_matrices(unit_matrices(units).values())


def unit_rank_by_echelon(point: BasePoint) -> CheckResult:
    """The rank of the unit family on an echelon: k^2 for a full family."""
    rank = _unit_span(point.units).dimension
    full = len(point.units.indices) ** 2
    witness = None if rank == full else f"x={point.x}: unit span has rank {rank}, expected {full}"
    return CheckResult("unit-rank", rank == full, witness, 1)


def matrix_units_by_products(units: MatrixUnitFamily) -> CheckResult:
    """Verify the product law: G_ab G_cd equals G_ad when b == c, else zero."""
    matrices = unit_matrices(units)
    zero = None
    checked = 0
    for (ka, kb), gab in matrices.items():
        for (kc, kd), gcd_ in matrices.items():
            prod = gab * gcd_
            checked += 1
            if kb == kc:
                expected = matrices[(ka, kd)]
                if prod != expected:
                    return CheckResult(
                        "matrix-units",
                        False,
                        f"x={units.base_point}: G[{ka},{kb}]G[{kc},{kd}] != G[{ka},{kd}]",
                        checked,
                    )
            else:
                if zero is None:
                    zero = ExactMatrix.zeros(prod.rows, prod.cols)
                if prod != zero:
                    return CheckResult(
                        "matrix-units",
                        False,
                        f"x={units.base_point}: G[{ka},{kb}]G[{kc},{kd}] is not zero",
                        checked,
                    )
    return CheckResult("matrix-units", True, None, checked)


def _unit_sum(matrices, pairs_and_scales) -> ExactMatrix:
    total = None
    for (ka, kb), scale in pairs_and_scales:
        term = matrices[(ka, kb)].scaled(scale)
        total = term if total is None else total + term
    return total


def adjacency_action_by_products(ctx: TerwilligerContext, units: MatrixUnitFamily) -> CheckResult:
    """Check the closed forms for A_(h,xi) times a unit, on both sides.

    Left action on G_ab depends on how the level of (h, xi) compares with
    the level of a (row index); the right action compares with the level
    of b and shifts its offset.  The identity class acts trivially on
    both sides.
    """
    moduli = _require_wreath(ctx)
    scheme = ctx.scheme
    indices = units.indices
    matrices = unit_matrices(units)
    checked = 0
    for hx in indices:
        adj = ctx.adjacency[hx.flat]
        n_hx = scheme.valency(hx.flat)
        for a in indices:
            n_a = scheme.valency(a.flat)
            for b in indices:
                g = matrices[(a.flat, b.flat)]
                # left: A * G
                if hx.level == 0:
                    expected = g
                elif hx.level < a.level:
                    expected = g.scaled(n_hx)
                elif hx.level == a.level:
                    p = moduli[a.level - 1]
                    if hx.offset == a.offset:
                        expected = _unit_sum(
                            matrices,
                            [((r.flat, b.flat), n_a) for r in indices_below_level(moduli, a.level)],
                        )
                    else:
                        shifted = WreathIndex(a.level, (a.offset - hx.offset) % p, moduli)
                        expected = matrices[(shifted.flat, b.flat)].scaled(n_a)
                else:
                    p = moduli[hx.level - 1]
                    reflected = WreathIndex(hx.level, p - hx.offset, moduli)
                    expected = matrices[(reflected.flat, b.flat)].scaled(n_a)
                checked += 1
                if adj * g != expected:
                    return CheckResult(
                        "ag-forms",
                        False,
                        f"x={ctx.base_point}: A[{hx}] * G[{a},{b}] does not match the closed form",
                        checked,
                    )
                # right: G * A
                n_b = scheme.valency(b.flat)
                if hx.level == 0:
                    expected = g
                elif hx.level < b.level:
                    expected = g.scaled(n_hx)
                elif hx.level == b.level:
                    p = moduli[b.level - 1]
                    rho = (b.offset + hx.offset) % p
                    if rho:
                        target = WreathIndex(b.level, rho, moduli)
                        expected = matrices[(a.flat, target.flat)].scaled(n_b)
                    else:
                        expected = _unit_sum(
                            matrices,
                            [
                                ((a.flat, r.flat), scheme.valency(r.flat))
                                for r in indices_below_level(moduli, b.level)
                            ],
                        )
                else:
                    expected = matrices[(a.flat, hx.flat)].scaled(n_hx)
                checked += 1
                if g * adj != expected:
                    return CheckResult(
                        "ag-forms",
                        False,
                        f"x={ctx.base_point}: G[{a},{b}] * A[{hx}] does not match the closed form",
                        checked,
                    )
    return CheckResult("ag-forms", True, None, checked)


def central_idempotents_by_products(
    ctx: TerwilligerContext,
    family: MemberMatrices,
    units: MatrixUnitFamily,
) -> CheckResult:
    """Every member must be a nonzero idempotent commuting with all
    generators via the eigenvalue table, annihilating every matrix unit,
    and orthogonal to every other member; the family size must match the
    product-count formula."""
    moduli = _require_wreath(ctx)
    scheme = ctx.scheme
    expected_count = one_dim_ideal_count(moduli)
    if family.count != expected_count or family.nonzero_count() != expected_count:
        return CheckResult(
            "f-family",
            False,
            f"x={ctx.base_point}: {family.nonzero_count()} nonzero members of "
            f"{family.count}, expected {expected_count}",
        )
    checked = 0
    items = sorted(family.matrices.items())
    indices = class_indices(moduli)
    zero = ExactMatrix.zeros(scheme.order, scheme.order)
    for (ka, khx), mat in items:
        a = indices[ka]
        hx = indices[khx]
        checked += 1
        if mat * mat != mat:
            return CheckResult(
                "f-family", False, f"x={ctx.base_point}: member ({a},{hx}) is not idempotent", checked
            )
        for jb in indices:
            scalar = _idempotent_scalar(moduli, scheme, a, hx, jb)
            expected = mat.scaled(scalar)
            adj = ctx.adjacency[jb.flat]
            checked += 2
            if adj * mat != expected or mat * adj != expected:
                return CheckResult(
                    "f-family",
                    False,
                    f"x={ctx.base_point}: A[{jb}] acts on member ({a},{hx}) "
                    f"with the wrong eigenvalue",
                    checked,
                )
            dual = ctx.dual_idempotents[jb.flat]
            left = dual * mat
            right = mat * dual
            target = mat if jb.flat == ka else zero
            checked += 2
            if left != target or right != target:
                return CheckResult(
                    "f-family",
                    False,
                    f"x={ctx.base_point}: E[{jb}] does not commute with member ({a},{hx})",
                    checked,
                )
        for key, unit in unit_matrices(units).items():
            checked += 2
            if not (mat * unit).is_zero() or not (unit * mat).is_zero():
                return CheckResult(
                    "f-family",
                    False,
                    f"x={ctx.base_point}: member ({a},{hx}) does not annihilate unit {key}",
                    checked,
                )
        for (kc, khx2), other in items:
            if (kc, khx2) == (ka, khx):
                continue
            checked += 1
            if not (mat * other).is_zero():
                return CheckResult(
                    "f-family",
                    False,
                    f"x={ctx.base_point}: members ({a},{hx}) and "
                    f"({indices[kc]},{indices[khx2]}) are not orthogonal",
                    checked,
                )
    return CheckResult("f-family", True, None, checked)


def unit_ideal_by_membership(ctx: TerwilligerContext, units: MatrixUnitFamily) -> CheckResult:
    span = _unit_span(units)
    matrices = unit_matrices(units).values()
    checked = 0
    for gen in standard_generators(ctx):
        for unit in matrices:
            checked += 2
            if not span.contains(gen * unit) or not span.contains(unit * gen):
                return CheckResult(
                    "unit-ideal",
                    False,
                    f"x={ctx.base_point}: a generator-unit product leaves the unit span",
                    checked,
                )
    return CheckResult("unit-ideal", True, None, checked)


def quotient_commutes_by_membership(ctx: TerwilligerContext, units: MatrixUnitFamily) -> CheckResult:
    span = _unit_span(units)
    generators = standard_generators(ctx)
    checked = 0
    for idx1, g1 in enumerate(generators):
        for g2 in generators[idx1 + 1:]:
            checked += 1
            if not span.contains(g1 * g2 - g2 * g1):
                return CheckResult(
                    "quotient-commutes",
                    False,
                    f"x={ctx.base_point}: a generator commutator leaves the unit span",
                    checked,
                )
    return CheckResult("quotient-commutes", True, None, checked)


def commutation_by_products(ctx: TerwilligerContext) -> CheckResult:
    """Dual idempotents commute with all lower-level adjacency matrices, and
    sandwiched products of lower-level adjacency matrices multiply through."""
    moduli = _require_wreath(ctx)
    checked = 0
    for a in class_indices(moduli):
        if a.level == 0:
            continue
        ea = ctx.dual_idempotents[a.flat]
        lower = indices_below_level(moduli, a.level)
        for b in lower:
            adj = ctx.adjacency[b.flat]
            checked += 1
            if ea * adj != adj * ea:
                return CheckResult(
                    "commutation",
                    False,
                    f"x={ctx.base_point}: E[{a}] does not commute with A[{b}]",
                    checked,
                )
        sandwiched = {b.flat: ea * ctx.adjacency[b.flat] * ea for b in lower}
        for b in lower:
            for c in lower:
                checked += 1
                left = sandwiched[b.flat] * sandwiched[c.flat]
                right = ea * (ctx.adjacency[b.flat] * ctx.adjacency[c.flat]) * ea
                if left != right:
                    return CheckResult(
                        "commutation",
                        False,
                        f"x={ctx.base_point}: sandwich identity fails for E[{a}], A[{b}], A[{c}]",
                        checked,
                    )
    return CheckResult("commutation", True, None, checked)


def primary_module_by_products(ctx: TerwilligerContext) -> CheckResult:
    """The span of the sphere indicator vectors, n x 1 columns, must have
    dimension d+1 and be carried into itself by every generator."""
    c = ctx.scheme.classes
    labels = ctx.scheme.table[ctx.base_point]
    indicators = [ExactMatrix.from_rows([[int(label == i)] for label in labels]) for i in range(c)]
    span = ExactSpan.from_matrices(indicators)
    if span.dimension != c:
        return CheckResult(
            "primary-module",
            False,
            f"x={ctx.base_point}: indicator span has dimension {span.dimension}, expected {c}",
        )
    checked = 0
    for gen in standard_generators(ctx):
        for column in indicators:
            checked += 1
            if not span.contains(gen * column):
                return CheckResult(
                    "primary-module",
                    False,
                    f"x={ctx.base_point}: a generator maps an indicator vector outside the span",
                    checked,
                )
    return CheckResult("primary-module", True, None, checked)


def span_accounting_by_blocks(point: BasePoint, family: MemberMatrices) -> CheckResult:
    """The rank of units and n x n idempotents, and with the point's closure,
    block by block, where every idempotent is certified zero off its block;
    each block's span is over the field of all the idempotents."""
    spheres, members = point.units.spheres, list(family.matrices.values())
    combined = {}
    for a, sa in enumerate(spheres):
        for b, sb in enumerate(spheres):
            combined[a, b] = span_of(members, len(sa), len(sb))
            combined[a, b].insert(ExactMatrix.ones(len(sa), len(sb)))
    for (a, hx), mat in sorted(family.matrices.items()):
        own = block(mat, spheres[a], spheres[a])
        if own is None:
            witness = f"x={point.x}: idempotent F[{a},{hx}] is nonzero off the block ({a},{a})"
            return CheckResult("span-accounting", False, witness, 1)
        combined[a, a].insert(own)
    rank_uf = sum(span.dimension for span in combined.values())
    for key, span in point.closure.items():
        target = combined.setdefault(key, span_of(members, *span.shape))
        for mat in span.basis():
            target.insert(mat)
    rank = sum(span.dimension for span in combined.values())
    formula = dimension_formula(point.moduli)
    ok = rank_uf == formula and rank == point.dim
    witness = (
        None
        if ok
        else f"x={point.x}: rank(units+idempotents) = {rank_uf}, with closure "
        f"{rank}; expected {formula} and {point.dim}"
    )
    return CheckResult("span-accounting", ok, witness, 2)


# -- the references at one base point ------------------------------------------------


class ReferencePoint:
    """The n x n references of the per-point checks at a ``BasePoint``: its
    context from the same table, the unit and idempotent families built by
    products, and ``result(name)``, the reference of the registered check
    ``name``, where a unit family that cannot be built fails every unit
    check with the build's message, as at the point.  The closure and its
    dimension are the point's."""

    def __init__(self, point: BasePoint):
        self.point = point
        self.x = point.x
        self.moduli = point.moduli
        self.ctx = make_context(point.scheme, point.x, point.moduli)

    @cached_property
    def _units(self) -> MatrixUnitFamily | StructureError:
        try:
            return units_by_products(self.ctx)
        except StructureError as exc:
            return exc

    @property
    def units(self) -> MatrixUnitFamily:
        if isinstance(self._units, StructureError):
            raise self._units
        return self._units

    @cached_property
    def idempotents(self) -> MemberMatrices:
        return idempotents_by_products(self.ctx)

    @property
    def closure(self):
        return self.point.closure

    @property
    def dim(self) -> int:
        return self.point.dim

    def result(self, name: str) -> CheckResult:
        try:
            return REFERENCES[name](self)
        except StructureError as exc:
            if name == "unit-support":
                return CheckResult(name, False, str(exc), 1)
            return CheckResult(name, False, str(exc))


def _f_family(ref: ReferencePoint) -> CheckResult:
    units = ref.units  # first: a point with no unit family needs no idempotents
    return central_idempotents_by_products(ref.ctx, ref.idempotents, units)


REFERENCES = {
    "primary-module": lambda ref: primary_module_by_products(ref.ctx),
    "commutation": lambda ref: commutation_by_products(ref.ctx),
    "unit-support": lambda ref: CheckResult("unit-support", True, None, ref.units.count),
    "unit-rank": unit_rank_by_echelon,
    "matrix-units": lambda ref: matrix_units_by_products(ref.units),
    "ag-forms": lambda ref: adjacency_action_by_products(ref.ctx, ref.units),
    "unit-ideal": lambda ref: unit_ideal_by_membership(ref.ctx, ref.units),
    "quotient-commutes": lambda ref: quotient_commutes_by_membership(ref.ctx, ref.units),
    "f-family": _f_family,
    "span-accounting": lambda ref: span_accounting_by_blocks(ref, ref.idempotents),
}


# -- example tables -------------------------------------------------------------------


def example_schemes():
    """The valid class tables the golden oracle reports read, by placeholder name."""
    # (2,2,2) with its vertices relabelled by v -> 5v+3 mod 8
    t = wreath_of_cyclics((2, 2, 2)).table
    perm = [(5 * v + 3) % 8 for v in range(8)]
    relabelled = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            relabelled[perm[x]][perm[y]] = t[x][y]
    # the group scheme of S_3: the class of (g, h) is the index of g^-1 h,
    # and the identity permutation comes first
    group = list(permutations(range(3)))
    s3 = [[group.index(tuple(g.index(h[k]) for k in range(3))) for h in group] for g in group]
    # the Shrikhande graph, the Cayley graph of Z4 x Z4 with connection set
    # {±(1,0), ±(0,1), ±(1,1)}: a commutative scheme that is not triply regular
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = [[0 if x == y else 1 if ((y // 4 - x // 4) % 4, (y - x) % 4) in conn else 2
                   for y in range(16)] for x in range(16)]
    return {
        "t22": wreath_of_cyclics((2, 2)),
        "t222": Scheme(relabelled),
        "s3": Scheme(s3),
        "shrikhande": Scheme(shrikhande),
    }


def moduli_up_to(order, prefix=()):
    """Every tuple of cyclic orders, each at least 2, with product at most ``order``."""
    tuples = []
    for p in range(2, order + 1):
        tuples.append(prefix + (p,))
        tuples += moduli_up_to(order // p, prefix + (p,))
    return tuples


def relabelled(moduli, seed):
    """The wreath table with its vertices permuted by a seeded permutation."""
    scheme = wreath_of_cyclics(moduli)
    n = scheme.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = scheme.table[a][b]
    return Scheme(table, classes=scheme.classes)


def broken_table():
    """The four-vertex table of the triple-regularity counterexample: no
    scheme, since its path counts differ between pairs of one relation."""
    return Scheme([[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])


def moved_pair_table():
    """The (2,3) wreath table with the symmetric pair (0, 1)/(1, 0) moved
    from class 1 to class 2: no longer a scheme, and no longer kept by the
    translation that adds 1 to digit 2."""
    intact = wreath_of_cyclics((2, 3))
    table = [list(row) for row in intact.table]
    assert table[0][1] == table[1][0] == 1
    table[0][1] = table[1][0] = 2
    return Scheme(table, classes=intact.classes)


# -- rebinding ------------------------------------------------------------------------


def rebind(monkeypatch, name, make):
    """Replace the public wreathalg function ``name`` by ``make(original)``
    in every wreathalg module that binds it."""
    import wreathalg

    original = getattr(wreathalg, name)
    replacement = make(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "wreathalg" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
