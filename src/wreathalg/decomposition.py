"""The checks stated for a wreath of cyclics: the paper's explicit
decomposition of T(x), which only ``verify`` runs.

Every check here takes a ``BasePoint`` of :mod:`wreathalg.structure`, whose
registry and artifacts look the functions of this module up at call time,
so ``verify`` imports this module before it builds its scheme and
``oracle``, which runs none of them, never compiles it.  That lookup also
reaches the vanishing criterion and the translation certificate of
:mod:`wreathalg.wreath` through this module.

A ``MatrixUnitFamily`` is the rank-one form G_ab = u_a u_b^T / n_b itself,
held as its k disjoint nonempty spheres S_a (u_a the 0/1 indicator column
of S_a, n_b = |S_b|), so its rank k^2 is a property of the type.
``build_matrix_units`` certifies each unit against that form from its
piece, once per base point; a point where a piece differs has no family,
and every unit check fails there.  The unit checks read a family through
the k indicator columns alone, and an A_j through the row and column sums
of its pieces (``piece_sums``) or the intersection tensor, with no n x n
product.  The sums are the one read of a piece's contents: a 0/1 piece is
all ones where each of its rows sums to |S_h| (``_all_ones``), and only
the block route of ``quotient-commutes`` (``_commutator_constant``), on a
table that is not a commutative scheme, forms or compares a matrix.
Likewise a ``CentralIdempotentFamily`` is the closed form
F_(a,(h,xi)) = I (x) P_xi (x) J / n_h itself, held as its labels over the
spheres: ``build_central_idempotents`` certifies the digit labelling of
the table that this form rests on, once per base point, and each law of
the members, and their rank, follows from the form with no product.  The
final decomposition report certifies the dimension count against the
block closure oracle of :mod:`wreathalg.terwilliger`.
"""

from __future__ import annotations

from itertools import product as iter_product, repeat

from .linalg import ExactMatrix
from .scheme import CheckResult, FrozenRecord
from .structure import (
    BasePoint,
    DecompReport,
    ModuliRequired,
    StructureError,
    _commutative,
    _merge,
    run_point_checks,
)
from .wreath import (
    WreathIndex,
    _as_index,
    check_moduli,
    check_translation_certificate,
    check_vanishing_criterion,
    class_indices,
    num_classes,
    wreath_of_cyclics,
)

__all__ = [
    "predict_triple_nonzero",
    "check_triple_list",
    "piece_sums",
    "check_primary_module",
    "MatrixUnitFamily",
    "build_matrix_units",
    "check_matrix_units",
    "check_adjacency_action",
    "check_block_form",
    "check_commutation",
    "CentralIdempotentFamily",
    "build_central_idempotents",
    "check_central_idempotents",
    "decomposition_report",
    "dimension_formula",
    "one_dim_ideal_count",
    "matrix_block_size",
    # looked up here by the runner with the checks above
    "check_translation_certificate",
    "check_vanishing_criterion",
]


def _require_wreath(point: BasePoint) -> tuple[int, ...]:
    if point.moduli is None:
        raise ModuliRequired("this check needs the moduli of a wreath of cyclics")
    return point.moduli


def matrix_block_size(moduli) -> int:
    return num_classes(moduli)


def one_dim_ideal_count(moduli) -> int:
    m = check_moduli(moduli)
    total = 0
    for i in range(1, len(m)):
        for h in range(i):
            total += (m[h] - 1) * (m[i] - 1)
    return total


def dimension_formula(moduli) -> int:
    return matrix_block_size(moduli) ** 2 + one_dim_ideal_count(moduli)


# -- the nonzero triple products -------------------------------------------------------


def predict_triple_nonzero(moduli, a, b, c) -> bool:
    """Closed-form test for E_a* A_b E_c* being nonzero in the wreath scheme.

    Implemented from the explicit case list, independently of
    :func:`wreathalg.wreath.predict_vanishing`; the two predicates are
    cross-validated by enumeration in the test suite.
    """
    m = check_moduli(moduli)
    return _triple_nonzero(m, _as_index(m, a), _as_index(m, b), _as_index(m, c))


def _triple_nonzero(m: tuple[int, ...], a, b, c) -> bool:
    """``predict_triple_nonzero`` on labels of the checked moduli ``m``."""
    i, al = a.level, a.offset
    j, be = b.level, b.offset
    h, ga = c.level, c.offset
    if i == 0 and j == 0 and h == 0:
        return True
    if i == j == h:
        return (al + be - ga) % m[i - 1] == 0
    if i == j and h < i:
        return (al + be) % m[i - 1] == 0
    if i == h and j < i:
        return al == ga
    if j == h and i < j:
        return be == ga
    return False


def check_triple_list(point: BasePoint) -> CheckResult:
    """Compare the nonzero-triple-product case list with the labels of the
    point's pieces."""
    m = _require_wreath(point)
    present = point.pieces
    checked = 0
    for a, b, c in iter_product(class_indices(m), repeat=3):
        expected = _triple_nonzero(m, a, b, c)
        actual = (a.flat, b.flat, c.flat) in present
        checked += 1
        if expected != actual:
            return CheckResult(
                "triple-list",
                False,
                f"x={point.x}, classes ({a},{b},{c}): predicted "
                f"{'nonzero' if expected else 'zero'}, product is "
                f"{'nonzero' if actual else 'zero'}",
                checked,
            )
    return CheckResult("triple-list", True, None, checked)


# -- the primary module and the sums of the pieces ----------------------------------------


def piece_sums(pieces, classes: int) -> list[dict[tuple[int, int], tuple[int | None, int | None]]]:
    """The row sum and the column sum of each piece E*_i A_j E*_h of
    ``pieces``, keyed as ``starting_pieces``, as ``sums[j][i, h]``, each
    None where it is not constant; an absent piece has none.  They are read
    off the packed 0/1 rows: a row's sum is its count of set bits, and the
    column sums are the lanes of the sum of the rows, each at most |S_i|,
    so no lane carries and they are all s where that sum is s times the
    row of ones.  With u_i the indicator column of S_i, they are the
    entries of A_j u_h on S_i and of u_i^T A_j on S_h."""
    sums: list[dict[tuple[int, int], tuple[int | None, int | None]]] = [{} for _ in range(classes)]
    for (i, j, h), piece in pieces.items():
        rows, width, total = piece.packed, piece.width, sum(piece.packed)
        row_sums = {row.bit_count() for row in rows}
        column = total & (1 << width) - 1
        ones = ((1 << width * piece.cols) - 1) // ((1 << width) - 1)
        sums[j][i, h] = (row_sums.pop() if len(row_sums) == 1 else None,
                         column if total == column * ones else None)
    return sums


def _all_ones(point: BasePoint, i: int, j: int, h: int) -> bool:
    """Whether the piece (i, j, h) of the point is present and all ones: a
    0/1 piece is, where each of its rows sums to |S_h|."""
    sums = point.sums[j].get((i, h))
    return sums is not None and sums[0] == len(point.spheres[h])


def _uneven(point: BasePoint, j: int, columns: bool = False) -> set[int]:
    """The a for which A_j u_a is not constant on every sphere, u_a the
    indicator column of S_a: those of the pieces (h, j, a) whose row sums
    differ (an absent piece is zero).  With ``columns``, the b for which
    u_b^T A_j is not, read off the column sums of the pieces (b, j, h)."""
    return {i if columns else h for (i, h), (row, column) in point.sums[j].items()
            if (column if columns else row) is None}


def check_primary_module(point: BasePoint) -> CheckResult:
    """The span of the sphere indicator vectors u_i, n x 1 columns, must have
    dimension d+1 and be carried into itself by every generator.

    The span has dimension c iff every sphere is nonempty, and holds A_j u_a
    iff A_j u_a is constant on every sphere (``_uneven``).  The generators
    are the A_j, then the E*_j, each applied to u_0 .. u_{c-1}.  E*_j maps
    u_j to itself and every other u_i to zero, so the E*_j pass by
    construction, and ``checked`` counts their c^2 images after the A_j's."""
    c = point.scheme.classes
    dimension = sum(1 for sphere in point.spheres if sphere)
    if dimension != c:
        witness = f"x={point.x}: indicator span has dimension {dimension}, expected {c}"
        return CheckResult("primary-module", False, witness)
    for j in range(c):
        if off := _uneven(point, j):
            witness = f"x={point.x}: a generator maps an indicator vector outside the span"
            return CheckResult("primary-module", False, witness, j * c + min(off) + 1)
    return CheckResult("primary-module", True, None, 2 * c * c)


# -- matrix units -------------------------------------------------------------------


class MatrixUnitFamily(FrozenRecord):
    """The k^2 matrix units G_ab = u_a u_b^T / n_b of one base point, held as
    their k spheres: u_a is the 0/1 indicator column of the sphere S_a
    (``spheres[a]``, vertices of the scheme) and n_b = |S_b|.

    The spheres are nonempty and pairwise disjoint, or construction raises
    StructureError.  Then, with U the n x k matrix of columns u_a and W the
    k x n matrix of rows w_b^T = u_b^T / n_b, W U = I and G_ab = U e_a e_b^T W.
    So P -> U P W is injective (W (U P W) U = P), and the units, the images
    of the k^2 standard units e_a e_b^T, have rank k^2.  A product with an
    n x n matrix M factors: M G_ab = (M u_a) w_b^T and G_ab M = u_a (w_b^T M),
    so each unit check reads M u_a and u_b^T M, for M = A_j the sums of its
    pieces (``BasePoint.sums``); the product loops are in tests/reference.py.
    """

    __slots__ = _fields = ("moduli", "base_point", "indices", "spheres")

    def __init__(self, moduli: tuple[int, ...], base_point: int,
                 indices: tuple[WreathIndex, ...], spheres: tuple[tuple[int, ...], ...]):
        self._freeze(moduli=moduli, base_point=base_point, indices=indices, spheres=spheres)
        owner: dict[int, int] = {}
        for b, sphere in enumerate(spheres):
            if not sphere:
                raise StructureError(f"x={base_point}: sphere S_{b} is empty")
            for y in sphere:
                if y in owner:
                    # G_cc G_bb = (u_c^T u_b / n_c) G_cb is not zero
                    raise StructureError(
                        f"x={base_point}: G[{owner[y]},{owner[y]}]G[{b},{b}] is not zero"
                    )
                owner[y] = b

    @property
    def keys(self) -> list[tuple[int, int]]:
        """The unit keys (a, b), a major: the order of every unit loop."""
        return [(a, b) for a in range(len(self.spheres)) for b in range(len(self.spheres))]

    @property
    def count(self) -> int:
        return len(self.spheres) ** 2


def build_matrix_units(point: BasePoint) -> MatrixUnitFamily:
    """Construct the unit family on the spheres of the base point.

    Each (a, b) member, the sandwich E_a M E_b / n_b with n_b = |S_b| at x
    and M the adjacency matrix of the higher level (or the all-ones J on
    equal levels), must equal the unit G_ab: 1/n_b on the (a, b) block and
    zero elsewhere.  The sandwich is M's (a, b) block: the piece
    (a, b, b) for a.level < b.level, the piece (b, a, a) transposed for
    a.level > b.level (M = A_a^T), and all ones by construction on equal
    levels.  So a member matches iff its piece is present and all ones, and
    the first that does not, in key order, raises StructureError.  Flat
    order is level order, so only the first key of each piece, (low, high),
    is read.
    """
    moduli = _require_wreath(point)
    indices = class_indices(moduli)
    family = MatrixUnitFamily(
        moduli, point.x, indices, tuple(tuple(point.spheres[a.flat]) for a in indices))
    for a in indices:
        for b in indices:
            if a.level < b.level and not _all_ones(point, a.flat, b.flat, b.flat):
                raise StructureError(f"x={point.x}: G[{a.flat},{b.flat}] does not match "
                                     f"the closed form u_{a.flat} u_{b.flat}^T / n_{b.flat}")
    return family


# -- the factored unit checks -------------------------------------------------------------


def _first_off(pairs, left_off, right_off) -> int | None:
    """The position of the first pair (a, b) with a in ``left_off`` or b in
    ``right_off``: the first unit G_ab whose product with M breaks, where
    M G_ab = (M u_a) w_b^T and G_ab M = u_a (w_b^T M)."""
    if not (left_off or right_off):
        return None
    return next((i for i, (a, b) in enumerate(pairs) if a in left_off or b in right_off), None)


def check_matrix_units(units: MatrixUnitFamily) -> CheckResult:
    """Verify the product law: G_ab G_cd equals G_ad when b == c, else zero.

    G_ab G_cd = (u_b^T u_c / n_b) G_ad, so the law holds iff
    u_b^T u_c = delta_bc n_b: iff the spheres are disjoint, which every
    MatrixUnitFamily is.  ``checked`` counts the k^4 products.
    """
    return CheckResult("matrix-units", True, None, units.count ** 2)


def check_adjacency_action(point: BasePoint, units: MatrixUnitFamily) -> CheckResult:
    """Check the closed forms for A_(h,xi) times a unit, on both sides.

    Left action on G_ab depends on how the level of (h, xi) compares with
    the level of a (row index); the right action compares with the level
    of b and shifts its offset.  The identity class acts trivially on
    both sides.

    A G_ab = (A u_a) w_b^T and a closed form sum_r c_r G_rb is
    (sum_r c_r u_r) w_b^T, so the left forms hold for every b iff
    A u_a = sum_r c_r u_r: for all a at once, A U = U C with C the k x k
    matrix of the c_r.  Likewise on the right, W A = D W.  On S_h, A u_a is
    the row sums of the piece (h, A, a), each C[h][a], and u_b^T A the
    column sums s of (b, A, h), each with s n_h = D[b][h] n_b.  A failure
    names the first (a, b), in the order of the 2k^3 products ``checked``
    counts, whose product breaks its form.  The label of a's level with
    offset o has the flat index a.flat - a.offset + o, so the labels below
    a's level are the first a.flat - a.offset + 1 in flat order.

    The sums are the point's, so they are the units' only where ``units``
    is over the point's spheres, which are then all nonempty; elsewhere the
    check fails, with ``checked`` 0.
    """
    moduli = _require_wreath(point)
    if list(map(set, units.spheres)) != list(map(set, point.spheres)):
        return CheckResult(
            "ag-forms", False, f"x={point.x}: the units are not over the spheres of the point")
    sizes = [len(sphere) for sphere in point.spheres]
    valency = point.scheme.valencies()
    indices = units.indices
    pairs = units.keys
    checked = 0
    for hx in indices:
        n_hx = valency[hx.flat]
        left: dict[tuple[int, int], int] = {}  # (r, a): A u_a in the u_r; absent is 0
        right: dict[tuple[int, int], int] = {}  # (b, r): w_b^T A in the w_r^T
        for a in indices:
            n_a = valency[a.flat]
            if hx.level == 0:
                left[a.flat, a.flat] = 1
            elif hx.level < a.level:
                left[a.flat, a.flat] = n_hx
            elif hx.level == a.level:
                p = moduli[a.level - 1]
                if hx.offset == a.offset:
                    for r in indices[:a.flat - a.offset + 1]:
                        left[r.flat, a.flat] = n_a
                else:
                    left[a.flat - a.offset + (a.offset - hx.offset) % p, a.flat] = n_a
            else:
                p = moduli[hx.level - 1]
                left[hx.flat - hx.offset + p - hx.offset, a.flat] = n_a
        for b in indices:
            n_b = valency[b.flat]
            if hx.level == 0:
                right[b.flat, b.flat] = 1
            elif hx.level < b.level:
                right[b.flat, b.flat] = n_hx
            elif hx.level == b.level:
                p = moduli[b.level - 1]
                rho = (b.offset + hx.offset) % p
                if rho:
                    right[b.flat, b.flat - b.offset + rho] = n_b
                else:
                    for r in indices[:b.flat - b.offset + 1]:
                        right[b.flat, r.flat] = valency[r.flat]
            else:
                right[b.flat, hx.flat] = n_hx
        # an absent piece sums to 0
        sums = point.sums[hx.flat]
        left_off = {a for h, a in left.keys() | sums.keys()
                    if sums.get((h, a), (0, 0))[0] != left.get((h, a), 0)}
        right_off = {b for b, h in right.keys() | sums.keys()
                     if (s := sums.get((b, h), (0, 0))[1]) is None
                     or s * sizes[h] != right.get((b, h), 0) * sizes[b]}
        first = _first_off(pairs, left_off, right_off)
        if first is not None:
            a, b = indices[pairs[first][0]], indices[pairs[first][1]]
            on_left = a.flat in left_off
            product = f"A[{hx}] * G[{a},{b}]" if on_left else f"G[{a},{b}] * A[{hx}]"
            witness = f"x={point.x}: {product} does not match the closed form"
            return CheckResult("ag-forms", False, witness, checked + 2 * first + (1 if on_left else 2))
        checked += 2 * len(pairs)
    return CheckResult("ag-forms", True, None, checked)


# -- block form ------------------------------------------------------------------------


def check_block_form(point: BasePoint, index: WreathIndex) -> CheckResult:
    """Verify the block support of one adjacency matrix.

    Rows of levels below the class land entirely in its column as all-ones
    blocks; rows of the same level shift the offset, wrapping into the
    all-ones blocks over the lower-level columns when the offsets cancel;
    rows of higher levels only meet the block diagonal.  The block (a, b)
    of A_j is the piece (a, j, b), nonzero exactly when it is present.
    """
    moduli = _require_wreath(point)
    if index.level == 0:
        raise ValueError("block form is stated for non-identity classes")
    j, beta = index.level, index.offset
    p = moduli[j - 1]
    checked = 0
    indices = class_indices(moduli)
    for a in indices:
        for b in indices:
            nonzero = (a.flat, index.flat, b.flat) in point.pieces
            if a.level < j:
                expect_nonzero = b.flat == index.flat
                expect_ones = expect_nonzero
            elif a.level == j:
                if (a.offset + beta) % p == 0:
                    expect_nonzero = b.level < j
                    expect_ones = expect_nonzero
                else:
                    expect_nonzero = (
                        b.level == j and b.offset == (a.offset + beta) % p
                    )
                    expect_ones = False
            else:
                expect_nonzero = b.flat == a.flat
                expect_ones = False
            checked += 1
            if nonzero != expect_nonzero or (
                    expect_ones and not _all_ones(point, a.flat, index.flat, b.flat)):
                return CheckResult(
                    "block-form",
                    False,
                    f"x={point.x}, A[{index}]: block ({a},{b}) is "
                    f"{'nonzero' if nonzero else 'zero'}, expected "
                    f"{'all-ones' if expect_ones else ('nonzero' if expect_nonzero else 'zero')}",
                    checked,
                )
    return CheckResult("block-form", True, None, checked)


def check_commutation(point: BasePoint) -> CheckResult:
    """Dual idempotents commute with all lower-level adjacency matrices, and
    sandwiched products of lower-level adjacency matrices multiply through.

    E_a A_b keeps the rows of A_b in S_a and A_b E_a its columns in S_a, so
    they are equal iff A_b has no entry with exactly one of its row and
    column in S_a: iff no piece (a, b, h) or (h, b, a) with h != a is
    present.  Once E_a commutes with every lower A_b, the sandwich identity
    holds for all lower b and c: A_c E_a = E_a A_c and E_a^2 = E_a give
    E_a A_b A_c E_a = E_a A_b E_a A_c = (E_a A_b E_a)(E_a A_c E_a).  So
    ``checked`` counts those k_a^2 identities with no product.
    """
    moduli = _require_wreath(point)
    crossing = {key for i, j, h in point.pieces if i != h for key in ((i, j), (h, j))}
    checked = 0
    indices = class_indices(moduli)
    for a in indices:
        if a.level == 0:
            continue
        lower = indices[:a.flat - a.offset + 1]  # the labels below a's level
        for b in lower:
            checked += 1
            if (a.flat, b.flat) in crossing:
                return CheckResult(
                    "commutation",
                    False,
                    f"x={point.x}: E[{a}] does not commute with A[{b}]",
                    checked,
                )
        checked += len(lower) ** 2
    return CheckResult("commutation", True, None, checked)


# -- central idempotents --------------------------------------------------------------------


class CentralIdempotentFamily(FrozenRecord):
    """The central idempotents F_(a,hx) of one base point, held as their
    labels over its spheres (``spheres[a]``, vertices of the scheme).

    There is one member per class a of level i >= 2 and class hx = (h, xi)
    of level 1 <= h < i, keyed (a.flat, hx.flat) in sorted order (``keys``),
    so ``count`` is sum_{h<i} (p_h - 1)(p_i - 1).  Write n_g = p_1...p_{g-1}.
    ``spheres[a]`` lists S_a in digit order: the vertex at position r has as
    its digits below i those of r in the mixed radix p_1, ..., p_{i-1},
    digit 1 least significant, the coordinates ``build_central_idempotents``
    reads off the table (vertex order on a table in the vertex encoding).
    In them the member is zero off S_a x S_a and on it

        F_(a,(h,xi)) = I (x) P_xi (x) J / n_h:

    the identity on the digits h+1..i-1, the character projector
    P_xi[y][z] = zeta_{p_h}^(xi (z - y)) / p_h on digit h, and J / n_h, J
    all ones, on the n_h values of the digits below h.  Its trace, and so
    its rank, is p_{h+1}...p_{i-1}: a member is rank-one only where
    h = i - 1.  tests/reference.py builds each block from its label.
    """

    __slots__ = _fields = ("moduli", "base_point", "spheres")

    def __init__(self, moduli: tuple[int, ...], base_point: int,
                 spheres: tuple[tuple[int, ...], ...]):
        self._freeze(moduli=moduli, base_point=base_point, spheres=spheres)

    @property
    def keys(self) -> list[tuple[int, int]]:
        """The member keys (a, hx), by flat index: the order of every member loop."""
        # the labels of levels 1..a.level - 1 end at a.flat - a.offset
        return [(a.flat, hx) for a in class_indices(self.moduli) if a.level >= 2
                for hx in range(1, a.flat - a.offset + 1)]

    @property
    def count(self) -> int:
        return one_dim_ideal_count(self.moduli)


def _digit_labels(moduli) -> list[list[tuple[int, ...]]]:
    """For each level i = 1..d in turn, the digit labelling of the positions
    0..n_i - 1: row y, column z holds 0 where y = z, and else the flat index
    of the class (g, (z_g - y_g) mod p_g), g the highest digit at which y
    and z differ."""
    grids = [[(0,)]]
    first = 1  # the flat index of (g, 1)
    for p in moduli[:-1]:
        grid = grids[-1]
        grids.append([tuple(grid[r][s] if y == z else first + (z - y) % p - 1
                            for z in range(p) for s in range(len(grid)))
                      for y in range(p) for r in range(len(grid))])
        first += p - 1
    return grids


def build_central_idempotents(point: BasePoint) -> CentralIdempotentFamily:
    """Certify once per point the table facts under which each member is
    the closed form of ``CentralIdempotentFamily``, and return the family.

    Where there is a member (d >= 2), the first of these facts to fail, in
    this order, raises StructureError:
    - each class of level g < d has the valency n_g (the identity has 1);
    - for each class a of level i >= 2, in flat order, S_a has n_i
      vertices, each reached from the first y_0 by the walk below, and on
      S_a x S_a the table is the digit labelling in the digits the walk
      gives: 0 on the diagonal, and for y != z the class
      (g, (z_g - y_g) mod p_g), g the highest digit at which y and z differ;
    - each piece (i, j, h) with i != h, in piece order, one of whose classes
      i and h is of level 2 or more, is all ones: each row sum is |S_h|.
    A table whose valencies differ between vertices raises AxiomViolation.

    The walk gives y_0 the digits 0 and makes it the origin of S_a.  A
    vertex z starts at that origin r, with the digits from level i up
    fixed; while r != z, t[r][z] must be a class (g, beta) below the level
    reached, and z takes the digit beta at g and 0 between, and moves to the
    origin of the vertices with those digits from g up, the first to get
    there.  Every origin has the digits 0 below its level, and on a table
    in the vertex encoding (S_a the vertices from a multiple of n_i on) each
    vertex gets its own digits.  Two vertices never get the same digits, as
    each walk ends at an origin of its own, so the digits are a bijection of
    S_a onto the n_i positions: ``spheres[a]`` lists S_a by them.

    The n x n references build the member as E_a M E_a / (p_h n_h), M the
    sum of the adjacency matrices below level h and those of level h
    weighted by the xi-th character: on S_a x S_a, the sum of the pieces
    (a, r, a) weighted by w_r = 1 below level h, zeta_{p_h}^(t xi) for
    r = (h, t), and 0 above, over p_h times the valency of hx.  Under the
    labelling, piece (a, r, a) is 1 exactly where t[y][z] = r, so the (y, z)
    entry is w_t[y][z] / (p_h n_h): zeta_{p_h}^(xi (z_h - y_h)) / (p_h n_h)
    where y and z agree on the digits above h, else 0.  S_a takes every
    value of the digits below i once, so that is I (x) P_xi (x) J / n_h.
    """
    moduli = _require_wreath(point)
    indices = class_indices(moduli)
    spheres = [tuple(point.spheres[a.flat]) for a in indices]
    if len(moduli) >= 2:
        grids = _digit_labels(moduli)
        valency = point.scheme.valencies()
        for j in indices[:len(indices) - moduli[-1] + 1]:  # the labels below level d
            n = len(grids[j.level - 1]) if j.level else 1
            if valency[j.flat] != n:
                raise StructureError(
                    f"x={point.x}: class {j.flat} has valency {valency[j.flat]}, not {n}")
        table = point.scheme.table
        for a in indices[moduli[0]:]:  # the classes of levels 2 and up
            sphere, grid = spheres[a.flat], grids[a.level - 1]
            if len(sphere) != len(grid):
                raise StructureError(
                    f"x={point.x}: S_{a.flat} has {len(sphere)} vertices, not {len(grid)}")
            origin, at = {(a.level, 0): sphere[0]}, {}
            for z in sphere:
                digits, level, r = 0, a.level, sphere[0]
                while r != z:
                    label = table[r][z]
                    if not 0 < label < len(indices) or indices[label].level >= level:
                        raise StructureError(f"x={point.x}: t[{r}][{z}] = {label} is not "
                                             f"the digit label of a level below {level}")
                    level = indices[label].level
                    digits += indices[label].offset * len(grids[level - 1])
                    r = origin.setdefault((level, digits), z)
                at[digits] = z
            spheres[a.flat] = tuple(at[r] for r in range(len(grid)))
            for y, labels in zip(spheres[a.flat], grid):
                row = [table[y][z] for z in spheres[a.flat]]
                if tuple(row) != labels:
                    k = next(k for k, label in enumerate(labels) if row[k] != label)
                    raise StructureError(f"x={point.x}: t[{y}][{spheres[a.flat][k]}] = "
                                         f"{row[k]} is not the digit label {labels[k]}")
        for i, j, h in point.pieces:
            if i != h and max(i, h) >= moduli[0] and not _all_ones(point, i, j, h):
                raise StructureError(f"x={point.x}: piece ({i},{j},{h}) is not all ones")
    return CentralIdempotentFamily(moduli, point.x, tuple(spheres))


def check_central_idempotents(point: BasePoint, units: MatrixUnitFamily) -> CheckResult:
    """Verify the laws of the members of the point's family, the one its
    read certified (``BasePoint.idempotents``): each is a nonzero idempotent
    that every A_j multiplies, on either side, by its eigenvalue lambda (see
    below) and every E*_j by 1 (j = a) or 0, that annihilates every unit
    and is orthogonal to every other member; and there are
    ``one_dim_ideal_count`` of them.  Where the point's table refuses the
    read, reading the family raises the read's StructureError.

    Each law follows from the closed form (``CentralIdempotentFamily``) by
    character orthogonality on digit h: sum_t zeta_p^(xi t) over t mod p is
    p where xi = 0 mod p and 0 elsewhere, so P_xi P_xi' is P_xi for
    xi = xi' and 0 otherwise, and P_xi, 1 <= xi < p_h, has zero row and
    column sums.
    - Nonzero idempotent: I, P_xi and J / n_h are idempotents, and the
      trace p_{h+1}...p_{i-1} is not 0.
    - E*_j F and F E*_j are F for j = a and 0 otherwise: F lies in the
      block (a, a).
    - Orthogonal: members of other classes lie in other blocks.  Within a
      class, P_xi P_xi' = 0 for two members of one level h; for h < h' the
      member of h' is J on digit h, and J P_xi = 0.
    - The eigenvalue: the block (i, a) of A_j F is piece(i, j, a) F, which
      is 0 for i != a, as the piece is all ones and F has zero column sums.
      Let j = (g, beta).  Under the labelling piece(a, j, a) is absent for
      g >= i, and for 1 <= g < i it is I (x) C_beta (x) J on the digits
      above g, at g and below g, with C_beta[y][z] = [z - y = beta mod p_g].
      For g > h its J on digit h meets P_xi, so it acts by 0.  For g = h,
      C_beta P_xi = zeta^(-beta xi) P_xi and J (J / n_h) = n_h (J / n_h):
      it acts by n_h zeta^(-beta xi).  For g < h it acts on J / n_h by the
      n_g ones of each row of C_beta (x) J, and the identity (piece I) by 1:
      below h each acts by its valency, certified as n_g.  So lambda is 0
      from level h + 1 up, n_h zeta^(-beta xi) on level h and the valency
      below.  F A_j likewise, as P_xi C_beta = zeta^(-beta xi) P_xi.
    - Annihilation: F G_cd = (F u_c) w_d^T and G_cd F = u_c (w_d^T F).
      Where the units are over the members' spheres, u_c is all ones on S_a
      (c = a) or zero there, and F has zero row and column sums.

    So the one test here is that ``units`` is over the vertex sets of the
    family's spheres.
    ``checked`` counts, per member, its idempotence, its 4c products with
    the A_j and E*_j, its 2c^2 with the units and its M - 1 with the other
    members, for c classes and M members: M (4c + 2c^2 + M).
    """
    family = point.idempotents
    if list(map(set, units.spheres)) != list(map(set, family.spheres)):
        return CheckResult(
            "f-family", False, f"x={point.x}: the units are not over the spheres of the members")
    c, m = len(family.spheres), family.count
    return CheckResult("f-family", True, None, m * (4 * c + 2 * c * c + m))


# -- the point checks of the registry -------------------------------------------------------


def _block_form(point: BasePoint) -> CheckResult:
    result = None
    for index in class_indices(_require_wreath(point)):
        if index.level == 0:
            continue
        result = _merge(result, check_block_form(point, index))
        if not result.passed:
            break
    return result


def _unit_support(point: BasePoint) -> CheckResult:
    try:
        units = point.units
    except StructureError as exc:
        return CheckResult("unit-support", False, str(exc), 1)
    return CheckResult("unit-support", True, None, units.count)


def _unit_rank(point: BasePoint) -> CheckResult:
    # A built family has rank k^2 (see MatrixUnitFamily); where it cannot be
    # built, reading it raises the StructureError that BasePoint.result reports.
    point.units
    return CheckResult("unit-rank", True, None, 1)


def _unit_ideal(point: BasePoint) -> CheckResult:
    # g G_ab = (g u_a) w_b^T lies in the unit span {U P W} iff g u_a lies in
    # span{u_c}, and G_ab g = u_a (w_b^T g) iff u_b^T g lies in span{u_c^T}:
    # for g = A_j, iff A_j u_a, or u_b^T A_j, is constant on every sphere.
    # The generators are the A_j, then the E*_j; E*_j G_ab and G_ab E*_j are
    # G_ab or zero, so the E*_j pass by construction, and their products are
    # counted after those of the A_j.
    keys = point.units.keys
    classes = point.scheme.classes
    checked = 0
    for j in range(classes):
        first = _first_off(keys, _uneven(point, j), _uneven(point, j, columns=True))
        if first is not None:
            witness = f"x={point.x}: a generator-unit product leaves the unit span"
            return CheckResult("unit-ideal", False, witness, checked + 2 * first + 2)
        checked += 2 * len(keys)
    return CheckResult("unit-ideal", True, None, checked + classes * 2 * len(keys))


def _commutator_constant(pieces, i: int, k: int) -> bool:
    """Whether [A_i, A_k] is constant on every sphere block (a, b), formed
    block by block from ``pieces``, keyed as ``starting_pieces``: block
    (a, b) is sum_h piece(a, i, h) piece(h, k, b) - piece(a, k, h) piece(h, i, b)."""
    after: dict[tuple[int, int], list[tuple[int, ExactMatrix]]] = {}
    for (a, j, h), piece in pieces.items():
        after.setdefault((a, j), []).append((h, piece))
    blocks: dict[tuple[int, int], ExactMatrix] = {}
    for first, second, sign in ((i, k, 1), (k, i, -1)):
        for (a, j), lefts in after.items():
            for h, left in lefts if j == first else ():
                for b, right in after.get((h, second), ()):
                    term = (left * right).scaled(sign)
                    blocks[a, b] = blocks[a, b] + term if (a, b) in blocks else term
    return all(block == ExactMatrix.ones(block.rows, block.cols).scaled(block[0, 0])
               for block in blocks.values())


def _quotient_commutes(point: BasePoint) -> CheckResult:
    # A matrix c lies in the unit span {U P W} iff c = U (W c U) W: iff it is
    # constant on every block S_a x S_b.  The generators are the A_i, then
    # the E*_j, and their commutators are taken in pair order.  On a
    # commutative scheme A_i A_k = sum_h p^h_ik A_h = A_k A_i, so
    # [A_i, A_k] = 0; elsewhere it is formed block by block from the pieces
    # (``_commutator_constant``).
    # [A_i, E*_j] is piece(h, i, j) on block (h, j) and -piece(j, i, h) on
    # block (j, h), for h != j, and zero elsewhere: it lies in the span iff
    # each of those pieces present is all ones.  [E*_i, E*_j] = 0.
    point.units
    classes, commutative = point.scheme.classes, _commutative(point.scheme)
    leaves = {key for h, i, j in point.pieces if h != j and not _all_ones(point, h, i, j)
              for key in ((i, j), (i, h))}

    def verdicts():
        for i in range(classes):
            for k in range(i + 1, classes):
                yield commutative or _commutator_constant(point.pieces, i, k)
            yield from ((i, j) not in leaves for j in range(classes))
        yield from repeat(True, classes * (classes - 1) // 2)

    checked = 0
    for checked, inside in enumerate(verdicts(), 1):
        if not inside:
            witness = f"x={point.x}: a generator commutator leaves the unit span"
            return CheckResult("quotient-commutes", False, witness, checked)
    return CheckResult("quotient-commutes", True, None, checked)


def _span_accounting(point: BasePoint) -> CheckResult:
    # T(x) is the sum of its blocks E*_a T E*_b (Terwilliger 1992); G_ab
    # is the all-ones block (a, b) over n_b, nonzero as the spheres are
    # nonempty, and F_(a,hx) lies in the block (a, a).  So the rank is
    # k(k - 1) plus, per class a, dim span(J_aa, members of a).  The m_a
    # members of a are nonzero, pairwise orthogonal idempotents with
    # F J_aa = 0 (see check_central_idempotents): a vanishing combination,
    # times each member in turn, keeps only that member's term, so that
    # span has dimension 1 + m_a, and the rank is k^2 + M, the formula.
    # Units first: a point whose units cannot be built fails with their
    # witness, and a table the idempotent read refuses with the read's.
    point.units
    point.idempotents
    return CheckResult("span-accounting", True, None, 2)


# -- the decomposition report -----------------------------------------------------------------


def decomposition_report(moduli, base_points=None) -> DecompReport:
    """Certify the full decomposition for every requested base point.

    Per base point: the closure oracle dimension must match the formula;
    the unit family must have full rank and satisfy the product law and
    adjacency action; products of generators with units must stay in the
    unit span (so it is an ideal) and generator commutators must lie in
    it too (so the quotient is commutative); the table must carry the digit
    labelling the idempotent family rests on, from which the members' laws
    follow; and the units and idempotents together then have the formula's
    rank, which the closure's dimension is too, since the closure holds
    both families.
    """
    m = check_moduli(moduli)
    scheme = wreath_of_cyclics(m)
    points = list(range(scheme.order)) if base_points is None else list(base_points)
    _, seen, _ = run_point_checks(scheme, m, points, ("decomposition",))
    return seen["decomposition"]
