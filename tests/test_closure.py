"""The block closure against the flat closure, and the flat closure
against the pairwise one; both references are in ``reference.py``.

The block closure's factors are the pieces of a generating class set, the
scheme's ``generating_classes``; its reference is the closure under every
piece, ``close_blocks(pieces, pieces)``, which must give the same basis in
every block.

The flat closure ``product_closure`` is the reference of the block closure,
which the pipeline runs: the block dimensions must add up to the flat
dimension, and the block bases, embedded into n x n, must span the flat
closure.

``pairwise_closure`` is in turn the reference of the flat word-schedule
closure: round by round it multiplies every pair of accepted spanning
matrices, at least one of them new, until a round adds nothing.  Both must
give the same dimension and, because the span stores the reduced echelon
form of the subspace, the same basis.
"""

import random
from fractions import Fraction

import pytest
from reference import (
    algebra_dimension,
    broken_table,
    example_schemes,
    generating_classes_by_reclosure,
    idempotents_by_products,
    identity,
    make_context,
    moduli_up_to,
    moved_pair_table,
    pairwise_closure,
    product_closure,
    relabelled,
    standard_generators,
    wreath_context,
)

from wreathalg import (
    ExactMatrix,
    ExactSpan,
    Scheme,
    block_closure,
    check_translation_certificate,
    cyclic_scheme,
    wreath_of_cyclics,
    wreath_product,
)
from wreathalg import linalg, terwilliger
from wreathalg.terwilliger import close_blocks, starting_pieces


def assert_same_closure(generators):
    expected = pairwise_closure(generators)
    actual = product_closure(generators)
    assert actual.dimension == expected.dimension
    assert actual.basis() == expected.basis()


@pytest.mark.parametrize(
    "moduli, base_point",
    [((2, 3), 0), ((2, 3), 1), ((2, 3), 5), ((3, 3), 0), ((3, 3), 4), ((2, 2, 2), 0), ((2, 2, 2), 7)],
)
def test_wreath_closure_matches_pairwise(moduli, base_point):
    assert_same_closure(standard_generators(wreath_context(moduli, base_point)))


BROKEN = broken_table()


def test_non_wreath_closure_matches_pairwise():
    for x in range(4):
        assert_same_closure(standard_generators(make_context(BROKEN, x)))


def test_cyclotomic_closure_matches_pairwise():
    # the idempotents of (3,2) have entries in Q(zeta_3)
    ctx = wreath_context((3, 2), 0)
    idempotents = list(idempotents_by_products(ctx).matrices.values())
    assert all(any(not a.is_rational() for a in e.flat()) for e in idempotents)
    assert_same_closure(idempotents + standard_generators(ctx))
    assert_same_closure(idempotents[:1] + [ctx.adjacency[1]])


def test_rational_reclosure_matches_pairwise():
    # criterion 11b closes the closure's own basis again; scaling that basis
    # by non-integral rationals keeps the algebra but not the integer entries
    basis = product_closure(standard_generators(wreath_context((2, 3), 0))).basis()
    assert_same_closure(basis)
    assert_same_closure([m.scaled(Fraction(2, k + 3)) for k, m in enumerate(basis)])


def test_closure_needs_long_words():
    # one 5-cycle P generates span{P, P^2, P^3, P^4, P^5 = I}: the last two
    # need words of length 4 and 5
    cycle = ExactMatrix.from_rows([[1 if c == (r + 1) % 5 else 0 for c in range(5)]
                                   for r in range(5)])
    closure = product_closure([cycle])
    assert closure.dimension == 5
    assert closure.contains(identity(5))
    assert pairwise_closure([cycle]).dimension == 5


# -- the block closure against the flat one ---------------------------------------------


def block_dimension(scheme, x):
    return sum(span.dimension for span in block_closure(scheme, x).values())


def embedded_basis(spans, spheres, n):
    """Each block's basis matrices as n x n matrices on their sphere blocks."""
    for (i, k), span in spans.items():
        for mat in span.basis():
            grid = [[0] * n for _ in range(n)]
            for y, row in zip(spheres[i], mat.data):
                for z, value in zip(spheres[k], row):
                    grid[y][z] = value
            yield ExactMatrix(n, n, grid)


@pytest.mark.parametrize("moduli", moduli_up_to(24), ids=str)
def test_block_dimension_is_the_flat_one_at_every_point(moduli):
    # Every point of every tuple of order <= 24.  The flat closure runs at
    # x = 0; a passed translation certificate gives table automorphisms that
    # take 0 to every vertex, so the flat dimension is the same everywhere.
    scheme = wreath_of_cyclics(moduli)
    assert check_translation_certificate(scheme, moduli).passed
    flat = algebra_dimension(scheme, 0)
    assert [block_dimension(scheme, x) for x in range(scheme.order)] == [flat] * scheme.order


@pytest.mark.parametrize("moduli", moduli_up_to(12), ids=str)
def test_block_basis_spans_the_flat_closure(moduli):
    # The first and the last point of every tuple of order <= 12: the same
    # subspace, so the same reduced echelon basis.
    scheme = wreath_of_cyclics(moduli)
    for x in {0, scheme.order - 1}:
        ctx = make_context(scheme, x)
        flat = product_closure(standard_generators(ctx))
        span = ExactSpan.from_matrices(
            embedded_basis(block_closure(scheme, x), ctx.spheres, scheme.order)
        )
        assert span.basis() == flat.basis(), x


@pytest.mark.parametrize("name", ["t22", "t222", "s3", "shrikhande"])
def test_block_dimension_is_the_flat_one_on_example_tables(name):
    # these include a non-commutative table (s3) and one that is not triply
    # regular (shrikhande), where dim T differs between points
    scheme = example_schemes()[name]
    for x in range(scheme.order):
        assert block_dimension(scheme, x) == algebra_dimension(scheme, x), x


@pytest.mark.parametrize("moduli, seed, points", [((2, 2, 2), 7, range(8)), ((4, 4, 4), 1, (0, 5, 33))])
def test_block_dimension_is_the_flat_one_on_relabelled_tables(moduli, seed, points):
    scheme = relabelled(moduli, seed)
    for x in points:
        assert block_dimension(scheme, x) == algebra_dimension(scheme, x), x


@pytest.mark.parametrize("seed", range(4))
def test_block_dimension_is_the_flat_one_on_random_tables(seed):
    # Random labels off the diagonal give no scheme, and at most of these
    # points the products add more to the algebra than the pieces span.
    rng = random.Random(seed)
    n = 5 + seed % 3
    table = [[0 if y == z else rng.randrange(1, 3) for z in range(n)] for y in range(n)]
    scheme = Scheme(table, classes=3)
    for x in range(n):
        assert block_dimension(scheme, x) == algebra_dimension(scheme, x), x


def test_block_closure_refuses_a_table_without_the_identity_class():
    # E*_i is the piece E*_i A_0 E*_i only where A_0 = I
    with pytest.raises(ValueError, match="identity relation"):
        block_closure(Scheme([[1, 0], [0, 1]]), 0)


# -- negative controls: broken block closures disagree with the flat one -------------
#
# On a triply regular scheme the starting pieces already span T, and on the
# example schemes every piece is also a product of the others, so these
# mutations there still reach T.  At x = 2 of the broken table, which is no
# scheme, they do not.


def test_block_closure_is_the_flat_one_on_the_broken_table():
    for x in range(4):
        assert block_dimension(BROKEN, x) == algebra_dimension(BROKEN, x) == 10


def test_block_closure_without_one_piece_falls_short():
    pieces = starting_pieces(BROKEN, 2)
    del pieces[0, 1, 1]
    spans = close_blocks(pieces, pieces)
    assert sum(s.dimension for s in spans.values()) == 8


def test_block_closure_with_reversed_factors_falls_short():
    # Multiplying block (i, k) on the left by E*_i A_j E*_h in place of
    # E*_h A_j E*_i: in n x n that product vanishes unless h = i, so only the
    # diagonal pieces act.
    pieces = starting_pieces(BROKEN, 2)
    reversed_factors = {(i, j, h): pieces[i, j, h] for i, j, h in pieces if h == i}
    spans = close_blocks(pieces, reversed_factors)
    assert sum(s.dimension for s in spans.values()) == 9


# -- the closure under the pieces of a generating class set ---------------------------


def assert_closes_as_under_every_piece(scheme, x):
    """The closure under the pieces of ``generating_classes`` against the
    closure under every piece: the same blocks and the same basis in each."""
    pieces = starting_pieces(scheme, x)
    expected = close_blocks(pieces, pieces)
    actual = block_closure(scheme, x)
    assert actual.keys() == expected.keys()
    for key, span in expected.items():
        assert actual[key].basis() == span.basis(), (x, key)


@pytest.mark.parametrize("moduli", moduli_up_to(12), ids=str)
def test_generating_closure_is_the_full_one_at_every_point(moduli):
    scheme = wreath_of_cyclics(moduli)
    assert scheme.generating_classes is not None
    for x in range(scheme.order):
        assert_closes_as_under_every_piece(scheme, x)


@pytest.mark.parametrize("name", ["(2, 3, 4)", "(4, 4, 4) seed 1", "shrikhande"])
def test_generating_closure_is_the_full_one_on_larger_tables(name):
    # Every point of (2,3,4) and of Shrikhande, where the closure grows past
    # the pieces, and x = 0 of the benchmark's relabelled (4,4,4) table.
    scheme, points = {
        "(2, 3, 4)": lambda: (wreath_of_cyclics((2, 3, 4)), range(24)),
        "(4, 4, 4) seed 1": lambda: (relabelled((4, 4, 4), 1), [0]),
        "shrikhande": lambda: (example_schemes()["shrikhande"], range(16)),
    }[name]()
    for x in points:
        assert_closes_as_under_every_piece(scheme, x)


@pytest.mark.parametrize(
    "name, classes",
    [
        ((2, 3), (1, 2)),
        ((3, 3), (1, 3)),
        ((2, 3, 4), (1, 2, 4)),
        ((4, 4, 4), (1, 4, 7)),
        ((64,), (1,)),
        ((31, 2), (1, 31)),
        ((2, 2, 2, 2, 2, 2), (1, 2, 3, 4, 5, 6)),
        ("shrikhande", (1,)),
        ("broken", None),
        ("moved-pair", None),
    ],
    ids=str,
)
def test_generating_classes(name, classes):
    # one generator per level of a wreath, the first label of the level;
    # None where the intersection numbers are not well defined
    scheme = {"shrikhande": lambda: example_schemes()["shrikhande"], "broken": broken_table,
              "moved-pair": moved_pair_table}.get(name, lambda: wreath_of_cyclics(name))()
    assert scheme.generating_classes == classes


def test_generating_classes_without_a_certificate():
    # an empty relation, found before any c x c grid is counted, and a
    # class 0 that is not the identity relation, under which the words stay
    # below c
    empty = Scheme([[0, 1], [1, 0]], classes=3)
    assert empty.generating_classes is None
    assert "_tensor" not in vars(empty)
    assert Scheme([[1, 0], [0, 1]]).generating_classes is None
    assert Scheme([[0]]).generating_classes == ()


@pytest.mark.parametrize("moduli", moduli_up_to(24), ids=str)
def test_grown_span_gives_the_reclosed_classes(moduli):
    # a fresh scheme, so that neither route reads the other's cache
    assert Scheme(wreath_of_cyclics(moduli).table).generating_classes == \
        generating_classes_by_reclosure(wreath_of_cyclics(moduli))


def test_grown_span_inserts_fewer_columns(monkeypatch):
    # at (2,2,2,2,2,2) every label joins: closed again for each of them, the
    # span takes 119 columns; grown, 43
    inserts = []
    insert = ExactSpan.insert
    monkeypatch.setattr(ExactSpan, "insert", lambda span, mat: inserts.append(1) or insert(span, mat))
    table = wreath_of_cyclics((2, 2, 2, 2, 2, 2)).table
    assert generating_classes_by_reclosure(Scheme(table)) == (1, 2, 3, 4, 5, 6)
    reclosed = len(inserts)
    inserts.clear()
    assert Scheme(table).generating_classes == (1, 2, 3, 4, 5, 6)
    assert (reclosed, len(inserts)) == (119, 43)


def test_grown_span_walks_each_joining_label_once(monkeypatch):
    # 40 labels of which two are present, so the span stays at I and A_1
    # and every label joins: each walks the two words once, 1 + 2 * 39
    # columns, where closing again from scratch takes 1,600.  Read past the
    # empty-relation early return of ``generating_classes``.
    inserts = []
    insert = ExactSpan.insert
    monkeypatch.setattr(ExactSpan, "insert", lambda span, mat: inserts.append(1) or insert(span, mat))
    classes, span = Scheme([[0, 1], [1, 0]], classes=40)._word_span(range(1, 40))
    assert (classes, span.dimension, len(inserts)) == (list(range(1, 40)), 2, 1 + 2 * 39)


def words_by_products(scheme, classes) -> int:
    """The dimension of the span of the words in the n x n A_j, j in
    ``classes``, the identity included."""
    generators = [identity(scheme.order)]
    return product_closure(generators + [scheme.adjacency_matrix(j) for j in classes]).dimension


def test_certificate_level_refuses_a_class_set_that_does_not_generate():
    # On (2,3), A_1 alone spans I and A_1; on Shrikhande wr C_2, A_3 (the
    # C_2 class) alone spans I, A_3 and J - I - A_3.  The certificate's span
    # of coefficient columns has the dimension of the n x n words.
    for scheme, short, full in [
        (wreath_of_cyclics((2, 3)), (1,), (1, 2)),
        (wreath_product(example_schemes()["shrikhande"], cyclic_scheme(2)), (3,), (1, 3)),
    ]:
        assert scheme.generating_classes == full
        assert scheme._word_span(short)[1].dimension == words_by_products(scheme, short) < scheme.classes
        assert scheme._word_span(full)[1].dimension == words_by_products(scheme, full) == scheme.classes


def test_closure_under_a_class_set_that_does_not_generate_falls_short():
    # Shrikhande wr C_2 at x = 0: the certificate's {1, 3} reaches 29, the
    # 24 pieces alone and the pieces of A_3 alone do not grow.
    scheme = wreath_product(example_schemes()["shrikhande"], cyclic_scheme(2))
    pieces = starting_pieces(scheme, 0)
    assert len(pieces) == 24
    assert block_dimension(scheme, 0) == algebra_dimension(scheme, 0) == 29
    only_3 = {key: piece for key, piece in pieces.items() if key[1] == 3}
    assert sum(span.dimension for span in close_blocks(pieces, only_3).values()) == 24


def test_pieces_alone_fall_short_on_a_table_that_is_not_triply_regular():
    shrikhande = example_schemes()["shrikhande"]
    pieces = starting_pieces(shrikhande, 0)
    assert sum(span.dimension for span in close_blocks(pieces, {}).values()) == 15
    assert block_dimension(shrikhande, 0) == 20


def closure_census(monkeypatch, scheme, x):
    """The factors the block closure at x passes, and the products it forms."""
    factors, products = [], []
    close = terwilliger.close_blocks
    monkeypatch.setattr(terwilliger, "close_blocks",
                        lambda pieces, acting: factors.append(acting) or close(pieces, acting))
    multiply = ExactMatrix.__mul__
    monkeypatch.setattr(ExactMatrix, "__mul__", lambda a, b: products.append(1) or multiply(a, b))
    spans = block_closure(scheme, x)
    return sum(span.dimension for span in spans.values()), factors[0], len(products)


@pytest.mark.parametrize("seed", [None, 1])
def test_closure_census_at_4_4_4(monkeypatch, seed):
    # 468 products under the pieces of A_1, A_4 and A_7; none is E*_i
    scheme = wreath_of_cyclics((4, 4, 4)) if seed is None else relabelled((4, 4, 4), seed)
    dim, factors, products = closure_census(monkeypatch, scheme, 0)
    assert (dim, products) == (127, 468)
    assert {j for _, j, _ in factors} == {1, 4, 7}


def test_broken_table_closes_under_every_piece(monkeypatch):
    for x in range(4):
        with monkeypatch.context() as patch:
            dim, factors, _ = closure_census(patch, BROKEN, x)
        assert dim == 10
        assert factors == starting_pieces(BROKEN, x)


def test_a_rejected_insert_unpacks_nothing(monkeypatch):
    # The spans reduce on packed rows: only an accepted insert may unpack a
    # row, and the whole closure at (2,3,4)@4, products included, unpacks
    # at most once per accepted insert.
    unpacked, verdicts = [], []
    unpack, insert = linalg._unpack, ExactSpan.insert

    def counted(span, mat):
        before = len(unpacked)
        grew = insert(span, mat)
        assert grew or len(unpacked) == before
        verdicts.append(grew)
        return grew

    monkeypatch.setattr(linalg, "_unpack", lambda *args: unpacked.append(1) or unpack(*args))
    monkeypatch.setattr(ExactSpan, "insert", counted)
    spans = block_closure(wreath_of_cyclics((2, 3, 4)), 4)
    assert sum(span.dimension for span in spans.values()) == 60
    assert 0 < len(unpacked) <= sum(verdicts) and not all(verdicts)
