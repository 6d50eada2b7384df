from fractions import Fraction
from itertools import product as iter_product

import pytest
from reference import classify

from wreathalg import (
    CheckResult,
    WreathIndex,
    check_moduli,
    check_translation_certificate,
    check_vanishing_criterion,
    class_indices,
    cyclic_scheme,
    index_from_flat,
    indices_below_level,
    num_classes,
    predict_triple_nonzero,
    predict_vanishing,
    wreath_of_cyclics,
    wreath_product,
)


def test_index_flat_formula():
    m = (2, 3, 5)
    assert WreathIndex(0, 0, m).flat == 0
    assert WreathIndex(1, 1, m).flat == 1
    assert WreathIndex(2, 2, m).flat == 3
    assert WreathIndex(3, 4, m).flat == 7


def test_index_roundtrip():
    for m in [(2,), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4)]:
        indices = class_indices(m)
        assert len(indices) == num_classes(m)
        for k, ix in enumerate(indices):
            assert ix.flat == k
            assert index_from_flat(m, k) == ix


def test_index_offset_normalization():
    m = (2, 3)
    assert WreathIndex(2, 5, m).offset == 2
    assert WreathIndex(2, -1, m).offset == 2
    with pytest.raises(ValueError):
        WreathIndex(2, 3, m)  # collapses to 0 mod 3
    with pytest.raises(ValueError):
        WreathIndex(0, 1, m)
    with pytest.raises(ValueError):
        WreathIndex(3, 1, m)


@pytest.mark.parametrize("moduli", [[2.9, 3], [2.0, 3], ["2", 3], "23", [Fraction(2), 3],
                                     [True, 2], [2, False]])
def test_a_modulus_that_is_not_an_int_is_refused(moduli):
    # int() would truncate 2.9 to 2 and build a scheme of another order
    message = "^every modulus must be an integer, got "
    with pytest.raises(ValueError, match=message):
        check_moduli(moduli)
    with pytest.raises(ValueError, match=message):
        wreath_of_cyclics(moduli)


def test_indices_below_level():
    m = (2, 3)
    assert [ix.flat for ix in indices_below_level(m, 2)] == [0, 1]
    assert [ix.flat for ix in indices_below_level(m, 1)] == [0]


def test_cyclic_scheme_basics():
    s = cyclic_scheme(1)
    assert s.order == 1 and s.classes == 1
    s3 = cyclic_scheme(3)
    assert classify(s3, 0, 1) == 1
    assert classify(s3, 1, 0) == 2
    report = cyclic_scheme(4).verify_axioms()
    assert report.passed
    with pytest.raises(ValueError):
        cyclic_scheme(0)


def test_wreath_product_of_two_cyclics():
    s = wreath_product(cyclic_scheme(2), cyclic_scheme(2))
    assert s.order == 4
    assert s.classes == 3
    assert s.valencies() == [1, 1, 2]


def test_wreath_with_trivial_inner_factor():
    outer = cyclic_scheme(5)
    s = wreath_product(cyclic_scheme(1), outer)
    assert s.table == outer.table


def test_wreath_rejects_invalid_factor():
    from wreathalg import Scheme

    broken = Scheme([[1, 0], [0, 1]])
    with pytest.raises(ValueError) as raised:
        wreath_product(broken, cyclic_scheme(2))
    assert str(raised.value) == "inner factor fails the scheme axioms: identity: classify(0,0) = 1 != 0"
    with pytest.raises(ValueError) as raised:
        wreath_product(cyclic_scheme(2), Scheme([[0, 1], [1, 0]], classes=3))
    assert str(raised.value) == "outer factor fails the scheme axioms: partition: relation 2 is empty"


def _kron(c, a):
    u = len(a)
    v = len(c)
    out = [[0] * (u * v) for _ in range(u * v)]
    for j1 in range(v):
        for j2 in range(v):
            for x1 in range(u):
                for x2 in range(u):
                    out[j1 * u + x1][j2 * u + x2] = c[j1][j2] * a[x1][x2]
    return out


def test_wreath_adjacency_is_kronecker_pattern():
    inner = cyclic_scheme(2)
    outer = cyclic_scheme(3)
    s = wreath_product(inner, outer)
    ones = [[1] * 2 for _ in range(2)]
    eye3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]

    def outer_adj(k):
        return [[1 if outer.table[i][j] == k else 0 for j in range(3)] for i in range(3)]

    def inner_adj(k):
        return [[1 if inner.table[i][j] == k else 0 for j in range(2)] for i in range(2)]

    expected = [
        _kron(eye3, inner_adj(0)),
        _kron(eye3, inner_adj(1)),
        _kron(outer_adj(1), ones),
        _kron(outer_adj(2), ones),
    ]
    for k in range(4):
        actual = [[1 if s.table[x][y] == k else 0 for y in range(6)] for x in range(6)]
        assert actual == expected[k]


def test_wreath_of_cyclics_basics():
    assert wreath_of_cyclics([2]).table == cyclic_scheme(2).table
    s = wreath_of_cyclics([2, 3])
    assert s.order == 6 and s.classes == 4
    assert s.valencies() == [1, 1, 2, 2]
    s = wreath_of_cyclics([2, 2, 2])
    assert s.order == 8 and s.classes == 4
    assert s.valencies() == [1, 1, 2, 4]
    with pytest.raises(ValueError):
        wreath_of_cyclics([])
    with pytest.raises(ValueError):
        wreath_of_cyclics([2, 1])


def test_valency_formula_for_all_levels():
    for m in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4)]:
        s = wreath_of_cyclics(m)
        for ix in class_indices(m):
            expected = 1
            for p in m[: max(ix.level - 1, 0)]:
                expected *= p
            if ix.level == 0:
                expected = 1
            assert s.valency(ix.flat) == expected


def test_fold_order_is_irrelevant():
    left = wreath_product(wreath_product(cyclic_scheme(2), cyclic_scheme(2)), cyclic_scheme(2))
    right = wreath_product(cyclic_scheme(2), wreath_product(cyclic_scheme(2), cyclic_scheme(2)))
    assert left.table == right.table
    assert left.table == wreath_of_cyclics([2, 2, 2]).table


def test_predict_vanishing_examples():
    m = (2,)
    one = WreathIndex(1, 1, m)
    zero = WreathIndex(0, 0, m)
    # same level everywhere, offsets sum to 0 != gamma
    assert predict_vanishing(m, one, one, one)
    # identity target with cancelling offsets does not vanish
    assert not predict_vanishing(m, one, one, zero)
    m = (2, 3, 5)
    a = WreathIndex(1, 1, m)
    b = WreathIndex(2, 1, m)
    c = WreathIndex(3, 1, m)
    assert predict_vanishing(m, a, b, c)  # all levels distinct


def test_predict_vanishing_accepts_flat_indices():
    m = (2, 3)
    assert predict_vanishing(m, 1, 1, 1) == predict_vanishing(
        m, WreathIndex(1, 1, m), WreathIndex(1, 1, m), WreathIndex(1, 1, m)
    )


def test_vanishing_criterion_small_moduli():
    for m in [(2, 3), (2, 2, 2), (3, 3)]:
        result = check_vanishing_criterion(wreath_of_cyclics(m), m)
        assert result.passed, result.witness
        assert result.checked == num_classes(m) ** 3


def test_vanishing_is_complement_of_triple_nonzero():
    # the two independently implemented case lists must be complementary
    for m in [(2, 3), (2, 2, 2), (3, 4)]:
        indices = class_indices(m)
        for a, b, c in iter_product(indices, repeat=3):
            assert predict_vanishing(m, a, b, c) != predict_triple_nonzero(m, a, b, c)


def related(scheme, x: int, i: int) -> list[int]:
    """All y with (x, y) in relation i, in vertex order."""
    return [y for y, label in enumerate(scheme.table[x]) if label == i]


def check_ball_structure(moduli) -> CheckResult:
    """Verify that each class neighborhood induces the smaller wreath product
    and that cross-level neighborhoods sit inside a single relation.

    For every base vertex x and class (i, alpha) with i >= 1, the set
    R_{(i,alpha)}(x) listed in vertex order must reproduce the class table
    of C_{p_1} wr ... wr C_{p_{i-1}}.  Additionally, for y in
    R_{(i,alpha)}(x) and z in R_{(j,beta)}(x): if i == j the pair (y, z)
    lies in a relation of level at most i, and if i > j then (z, y) lies
    in R_{(i,alpha)} itself.
    """
    m = check_moduli(moduli)
    scheme = wreath_of_cyclics(m)
    indices = class_indices(m)
    checked = 0
    t = scheme.table

    for x in range(scheme.order):
        balls = {ix.flat: related(scheme, x, ix.flat) for ix in indices}
        for ix in indices:
            if ix.level == 0:
                continue
            ball = balls[ix.flat]
            sub = cyclic_scheme(1) if ix.level == 1 else wreath_of_cyclics(m[: ix.level - 1])
            if len(ball) != sub.order:
                return CheckResult(
                    "ball-structure",
                    False,
                    f"x={x}, class {ix}: ball size {len(ball)} != {sub.order}",
                    checked,
                )
            for s, y in enumerate(ball):
                for u, z in enumerate(ball):
                    checked += 1
                    if t[y][z] != sub.table[s][u]:
                        return CheckResult(
                            "ball-structure",
                            False,
                            f"x={x}, class {ix}: classify({y},{z}) = {t[y][z]} "
                            f"but the induced scheme expects {sub.table[s][u]}",
                            checked,
                        )
        for a in indices:
            if a.level == 0:
                continue
            top = sum(p - 1 for p in m[: a.level])
            for b in indices:
                if b.level == 0 or b.level > a.level:
                    continue
                for y in balls[a.flat]:
                    for z in balls[b.flat]:
                        checked += 1
                        if a.level == b.level:
                            if t[y][z] > top:
                                return CheckResult(
                                    "ball-structure",
                                    False,
                                    f"x={x}: pair from balls {a},{b} lands in class "
                                    f"{t[y][z]} above level {a.level}",
                                    checked,
                                )
                        elif t[z][y] != a.flat:
                            return CheckResult(
                                "ball-structure",
                                False,
                                f"x={x}: z in ball {b}, y in ball {a} but "
                                f"classify({z},{y}) = {t[z][y]} != {a.flat}",
                                checked,
                            )
    return CheckResult("ball-structure", True, None, checked)


def test_ball_structure():
    for m in [(2,), (2, 3), (2, 2, 2)]:
        result = check_ball_structure(m)
        assert result.passed, result.witness


def test_ball_structure_specific_ball():
    m = (2, 3)
    s = wreath_of_cyclics(m)
    ix = WreathIndex(2, 1, m)
    ball = related(s, 0, ix.flat)
    assert len(ball) == 2
    sub = cyclic_scheme(2)
    for a, y in enumerate(ball):
        for b, z in enumerate(ball):
            assert classify(s, y, z) == classify(sub, a, b)


def test_translation_certificate_holds_up_to_the_cap():
    # Every unit translation keeps the table: d * n^2 comparisons.
    for m in [(2,), (2, 3), (3, 3), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2, 2, 2)]:
        scheme = wreath_of_cyclics(m)
        result = check_translation_certificate(scheme, m)
        assert result.passed and result.witness is None
        assert result.checked == len(m) * scheme.order ** 2


def test_translation_certificate_reads_the_digits_of_the_encoding():
    # Digit 1 is the least significant: read as (3, 2), the (2, 3) table's
    # first translation moves (0, 1) from class 1 to class 2.
    scheme = wreath_of_cyclics((2, 3))
    result = check_translation_certificate(scheme, (3, 2))
    assert not result.passed
    assert result.witness == "sigma_1 (+1 on digit 1 mod 3) maps (0,1) in class 1 to (1,2) in class 2"
    assert result.checked == 2
    with pytest.raises(ValueError):
        check_translation_certificate(scheme, (2, 2))
