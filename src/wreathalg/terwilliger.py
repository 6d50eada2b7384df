"""The spheres and pieces of a base point, and the algebra they generate.

The algebra T(x) attached to a scheme and a base point x is generated by
the adjacency matrices together with the diagonal projections E*_i onto the
spheres S_i around x.  A product with E*_i selects the rows or the columns
in S_i, so E*_i is held as its sphere, and each E*_i A_j E*_h as its 0/1
piece, the |S_i| x |S_h| block of the pairs labelled j, packed from one
pass over the class table (``starting_pieces``), whose constant row and
column sums are read off its packed rows (``piece_sums``).  The dimension
of T is computed block by block, by an exact-span fixpoint on the pieces
E*_i T E*_k (``block_closure``) that skips the products those sums prove
to be multiples of a block of ones already spanned.  It serves as the
oracle that every structural claim in :mod:`wreathalg.decomposition` is
checked against.
Which pieces are present, and so dim T_0, is read from the table, and so
is the triple-regularity sweep, which the pipeline cross-checks.  This is
the generic half of the checks, the one ``oracle`` runs: nothing here
needs the moduli of a wreath of cyclics.  The n x n references these are
tested against (the dual idempotents, the flat closure of whole n x n
words and the triple products) live in the test suite.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add

from .linalg import _MIN_WIDTH, ExactMatrix, ExactSpan
from .scheme import AxiomViolation, CheckResult, Scheme

__all__ = [
    "starting_pieces",
    "piece_sums",
    "close_blocks",
    "block_closure",
    "check_triply_regular",
]


def _spheres(scheme: Scheme, base_point: int) -> list[list[int]]:
    """The spheres S_i = {y : t[x][y] = i} around x, each in vertex order."""
    if not 0 <= base_point < scheme.order:
        raise ValueError(f"base point {base_point} out of range")
    scheme._require_labels()
    spheres: list[list[int]] = [[] for _ in range(scheme.classes)]
    for y, label in enumerate(scheme.table[base_point]):
        spheres[label].append(y)
    return spheres


def starting_pieces(scheme: Scheme, base_point: int) -> dict[tuple[int, int, int], ExactMatrix]:
    """E*_i A_j E*_h at x as the |S_i| x |S_h| block of the pairs (y, z) in
    S_i x S_h with t[y][z] = j, one 0/1 block per label (i, j, h) present,
    in sorted order, packed from one pass over the class table: pair (y, z)
    sets bit 32k of the row of y, k the place of z in S_h.  Each pair has
    one label, so the nonzero pieces have disjoint supports, and each holds
    a pair, so its entries are bounded by 1 at the narrowest width."""
    spheres, t = _spheres(scheme, base_point), scheme.table
    labels = t[base_point]
    place = {y: k for sphere in spheres for k, y in enumerate(sphere)}
    bits = [1 << _MIN_WIDTH * place[z] for z in range(scheme.order)]
    rows: dict[tuple[int, int, int], list[int]] = {}
    for y, row in enumerate(t):
        packed: dict[tuple[int, int, int], int] = {}  # the row of y in each piece
        for key, bit in zip(zip(repeat(labels[y]), row, labels), bits):
            packed[key] = packed.get(key, 0) | bit
        for key, value in packed.items():
            rows.setdefault(key, [0] * len(spheres[key[0]]))[place[y]] = value
    return {key: ExactMatrix._packed(len(spheres[key[0]]), len(spheres[key[2]]), 1, 1, _MIN_WIDTH,
                                     rows[key]) for key in sorted(rows)}


def _line_sums(mat: ExactMatrix) -> tuple[int | None, int | None]:
    """The row sum and the column sum of the numerators of ``mat``, each
    None where it is not constant, read off the packed rows at width w.
    Slot k of a row weighs 2^(wk), which is 1 modulo 2^w - 1, so a row is
    its sum modulo 2^w - 1, and a sum s with |s| < 2^(w-1) is read back
    from s + 2^(w-1) - 1, which lies in [0, 2^w - 1).  The sum of the rows
    packs the column sums, since packing is Z-linear, and where each is
    below 2^(w-1) in size it is a multiple of the row of ones exactly when
    they are all equal.  Every sum is at most the bound times the longer
    side, so where that is not below 2^(w-1), neither is read."""
    rows, cols, width = mat.packed, mat.cols, mat.width
    half, lane = 1 << width - 1, (1 << width) - 1
    if mat.bound * max(len(rows), cols) >= half:
        return None, None
    row_sums = {(row + half - 1) % lane for row in rows}
    column, rest = divmod(sum(rows), ((1 << width * cols) - 1) // lane)
    return (row_sums.pop() - half + 1 if len(row_sums) == 1 else None,
            None if rest else column)


def piece_sums(pieces, classes: int) -> list[dict[tuple[int, int], tuple[int | None, int | None]]]:
    """The row sum and the column sum of each piece E*_i A_j E*_h of
    ``pieces``, keyed as ``starting_pieces``, as ``sums[j][i, h]``, each
    None where it is not constant (``_line_sums``); an absent piece has
    none.  With u_i the indicator column of S_i, they are the entries of
    A_j u_h on S_i and of u_i^T A_j on S_h."""
    sums: list[dict[tuple[int, int], tuple[int | None, int | None]]] = [{} for _ in range(classes)]
    for (i, j, h), piece in pieces.items():
        sums[j][i, h] = _line_sums(piece)
    return sums


def close_blocks(pieces, factors) -> dict[tuple[int, int], ExactSpan]:
    """The smallest block spans that hold ``pieces`` and are closed under
    left multiplication by ``factors``.

    Both map labels (i, j, h) to blocks with row block i and column block h.
    Block (i, k) keeps one span.  Word schedule: the accepted blocks are
    walked in acceptance order, each accepted block at (i, k) is multiplied
    on the left by every factor labelled (h, j, i), the factors whose
    columns are its rows, and a product that grows the span at (h, k) is
    accepted in turn.  The final spans hold the pieces and are closed under
    left multiplication by every factor, so by induction on its length they
    hold every word of factors times a piece.

    A product that is already in its span is not formed, as inserting it
    would not grow the span:
    - a span that holds every matrix of its shape holds it;
    - F B is c J, J the all-ones block at (h, k), where B = b J is constant
      and every row of F sums to r (F J has the row sums of F, so
      F B = b r J), or where F = f J is constant and every column of B sums
      to s (J B has the column sums of B, so F B = f s J);
    - J lies in the span at (h, k) where the pieces there sum to J, entry
      by entry, since every piece was inserted before the walk.
    Each fact is read once, on first need, from the packed rows
    (``_line_sums``), and the spans are the same as with every product
    formed.
    """
    spans: dict[tuple[int, int], ExactSpan] = {}

    def grows(i: int, k: int, mat: ExactMatrix) -> bool:
        if (i, k) not in spans:
            spans[i, k] = ExactSpan(mat.rows, mat.cols)
        return spans[i, k].insert(mat)

    acting: dict[int, list[tuple[int, ExactMatrix]]] = {}
    for (h, _, i), factor in factors.items():
        acting.setdefault(i, []).append((h, factor))
    accepted = [(i, k, piece) for (i, _, k), piece in pieces.items() if grows(i, k, piece)]
    # by id, as every matrix read is held by ``factors`` or ``accepted``:
    # (constant, row sums constant, column sums constant)
    even: dict[int, tuple[bool, bool, bool]] = {}
    ones: dict[tuple[int, int], bool] = {}  # J lies in the span
    blocks: dict[tuple[int, int], list[ExactMatrix]] = {}  # the pieces, on first need

    def evens(mat: ExactMatrix) -> tuple[bool, bool, bool]:
        if id(mat) not in even:
            row, column = _line_sums(mat)
            even[id(mat)] = (column is not None and len(set(mat.packed)) == 1,
                             row is not None, column is not None)
        return even[id(mat)]

    def holds_ones(h: int, k: int) -> bool:
        if (h, k) not in ones:
            if not blocks:
                for (i, _, m), piece in pieces.items():
                    blocks.setdefault((i, m), []).append(piece)
            total = sum(blocks[h, k][1:], blocks[h, k][0]) if (h, k) in blocks else None
            # the rows are equal and each column sums to rows * den: each entry is den / den
            ones[h, k] = (total is not None and len(set(total.packed)) == 1
                          and _line_sums(total)[1] == total.rows * total.den)
        return ones[h, k]

    for i, k, mat in accepted:  # accepted grows while it is walked
        for h, factor in acting.get(i, ()):
            span = spans.get((h, k))
            if span is not None and span.dimension == factor.rows * mat.cols:
                continue
            (f_ones, f_rows, _), (b_ones, _, b_columns) = evens(factor), evens(mat)
            if (b_ones and f_rows or f_ones and b_columns) and holds_ones(h, k):
                continue
            product = factor * mat
            if grows(h, k, product):
                accepted.append((h, k, product))
    return spans


def block_closure(scheme: Scheme, base_point: int) -> dict[tuple[int, int], ExactSpan]:
    """The algebra T(x) as the direct sum of its blocks E*_i T E*_k.

    Every E*_i is a generator, so T is the sum of its blocks (Terwilliger
    1992), and block (i, k) is a span of |S_i| x |S_k| matrices, rows and
    columns in vertex order.  The closure C starts from the starting pieces
    E*_i A_j E*_h and closes them under left multiplication by the pieces of
    the A_j with j in J, the scheme's ``generating_classes``:
    - C lies in T, since every piece is a product of generators;
    - I = sum_i E*_i lies in C, since E*_i is the piece (i, 0, i);
    - C is a direct sum of blocks, so it is closed under each E*_h;
    - C is closed under each A_j, j in J, since A_j is the sum of its pieces;
    - the words in A_J span every A_j, so T is the span of the words in
      A_J and the E*_i applied to I, and C = T.
    The argument needs the A_j to span an algebra; where J is None (the
    intersection numbers are not well defined, or a relation is empty), the
    factors are all the pieces, and the same argument holds with every A_j
    in place of A_J.  dim T is the sum of the block dimensions, and only
    the class table is read.  E*_i is a piece only where class 0 is the
    identity relation, so a table on which it is not is refused.  Nothing
    is kept between calls; J is cached on the immutable scheme.
    """
    return _closure(scheme, starting_pieces(scheme, base_point))


def _closure(scheme: Scheme, pieces) -> dict[tuple[int, int], ExactSpan]:
    """``block_closure`` from the point's starting pieces."""
    if scheme._identity_witness is not None:
        raise AxiomViolation("class 0 is not the identity relation, so the pieces need not generate T")
    classes = scheme.generating_classes
    if classes is None:
        return close_blocks(pieces, pieces)
    return close_blocks(pieces, {key: piece for key, piece in pieces.items() if key[1] in classes})


def check_triply_regular(scheme: Scheme, sweep_points=None) -> CheckResult:
    """Exhaustively test whether all triple intersection counts depend only
    on the six class labels.

    The sweep visits the vertex tuples (x, y, z) with x in ``sweep_points``,
    every vertex by default (the exhaustive n^3 sweep), and reads only the
    class table; a point outside 0..n-1 raises ValueError.  Where a passed
    translation certificate moves 0 to every vertex, sweeping x = 0 alone
    gives the full sweep's verdict and witness in n^2 tuples, and
    :func:`wreathalg.structure.run_point_checks` sweeps so; it also
    cross-checks the verdict against dim T_0(x) == dim T(x) (Terwilliger 1992).

    The counts of a tuple are the multiset of its labels
    (t[x][w], t[y][w], t[z][w]) over the n vertices w.  With b one more
    than the largest label in the table, the code (i*b + j)*b + h of a label
    (i, j, h) is its three base-b digits, so it is injective on labels.  A
    tuple's sorted code list is its multiset of codes, so two tuples have
    equal counts exactly when their sorted code lists are equal.  Each pair
    (x, y) builds its n codes (t[x][w]*b + t[y][w])*b once, and each z adds
    t[z] to them and sorts: one map and one sort of n integers per tuple,
    both in C, in place of n dict updates.  Tuples are compared within the
    bucket of their pair pattern (t[x][y], t[x][z], t[y][z]) against the
    first tuple there.  At the first mismatch the two tuples are counted
    label by label, and the witness names the first label, in sorted order,
    whose counts differ."""
    n = scheme.order
    points = range(n) if sweep_points is None else tuple(sweep_points)
    bad = next((x for x in points if not 0 <= x < n), None)
    if bad is not None:
        raise ValueError(f"sweep point {bad} out of range")
    t = scheme.table
    b = 1 + max(map(max, t))
    scaled = [[label * b for label in row] for row in t]
    # buckets[t[x][y]][(t[x][z]*b + t[y][z])*b]: the first tuple with that
    # pair pattern, and its sorted codes
    buckets: dict[int, dict[int, tuple[tuple[int, int, int], list[int]]]] = {}
    checked = 0
    for x in points:
        tx = t[x]
        codes_x = [label * b for label in scaled[x]]
        for y in range(n):
            pair = list(map(add, codes_x, scaled[y]))
            bucket = buckets.setdefault(tx[y], {})
            for z, (tz, pattern) in enumerate(zip(t, pair)):
                codes = sorted(map(add, pair, tz))
                first = bucket.get(pattern)
                if first is None:
                    bucket[pattern] = ((x, y, z), codes)
                elif first[1] != codes:
                    key = (tx[y], tx[z], t[y][z])
                    witness = _count_witness(t, key, first[0], (x, y, z))
                    return CheckResult("triply-regular", False, witness, checked + z + 1)
            checked += n
    return CheckResult("triply-regular", True, None, checked)


def _count_witness(t, key, first, other) -> str:
    """The first label, in sorted order, whose count differs between two
    tuples of the pair pattern ``key``."""
    ref, counts = (Counter(zip(t[x], t[y], t[z])) for x, y, z in (first, other))
    labels = sorted(ref.keys() | counts.keys())
    label = next(label for label in labels if ref[label] != counts[label])
    return (
        f"classes {label} over pair pattern {key}: count "
        f"{ref[label]} at {first} but {counts[label]} at {other}"
    )
