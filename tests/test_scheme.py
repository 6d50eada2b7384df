import random
import re
import tracemalloc

import pytest
from reference import (
    broken_table,
    brute_intersection,
    commutes_by_products,
    example_schemes,
    identity,
    intersection_data_by_counts,
    moduli_up_to,
    moved_pair_table,
    relabelled,
    transpose_witness_by_pairs,
)

from wreathalg import (
    AxiomViolation,
    CheckResult,
    ExactMatrix,
    Scheme,
    cyclic_scheme,
    load_scheme,
    save_scheme,
    starting_pieces,
    wreath_of_cyclics,
)
from wreathalg import scheme as scheme_module
from wreathalg.scheme import load_header


def test_cyclic_scheme_axioms():
    report = cyclic_scheme(3).verify_axioms()
    assert report.passed
    assert report.witness is None


def test_wreath_scheme_axioms():
    assert wreath_of_cyclics([2, 3]).verify_axioms().passed


def test_identity_axiom_failure():
    s = Scheme.from_classifier(3, lambda x, y: 1 if x == y == 0 else (0 if x == y else 1))
    report = s.verify_axioms()
    assert not report.passed
    assert report.witness.startswith("identity: classify(0,0) = 1 != 0")


def test_partition_axiom_failure_empty_class():
    s = Scheme([[0, 1], [1, 0]], classes=3)
    report = s.verify_axioms()
    assert not report.passed
    assert report.witness == "partition: relation 2 is empty"


def test_empty_class_search_does_not_grow_with_the_class_count():
    # the class count comes from a table header; two labels present must not
    # cost memory in proportion to a million classes claimed
    tracemalloc.start()
    try:
        report = Scheme([[0, 1], [1, 0]], classes=10**6).verify_axioms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witness == "partition: relation 2 is empty"
    assert peak < 2**20


def test_intersection_numbers_do_not_grow_with_the_class_count():
    # the path counts are sized by the labels the table holds: a class that
    # is claimed but absent has no paths, so its numbers are 0, and a relation
    # that is absent still raises
    tracemalloc.start()
    try:
        scheme = Scheme([[0, 1], [1, 0]], classes=10**4)
        numbers = [scheme.intersection_number(i, j, h)
                   for i, j, h in ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (9999, 1, 1))]
        commutative = scheme.is_commutative()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert numbers == [1, 1, 1, 1, 0, 0]
    assert commutative
    assert peak < 2**20
    with pytest.raises(AxiomViolation, match="^relation 2 is empty$"):
        scheme.intersection_number(0, 0, 2)
    assert scheme.generating_classes is None


def test_out_of_range_labels_raise_axiom_violations():
    # the table is accepted, so that verify_axioms can report it
    s = Scheme([[0, 2], [2, 0]], classes=2)
    assert s.verify_axioms().witness == "partition: classify(0,1) = 2 outside 0..1"
    for call in (lambda: s.intersection_number(0, 0, 0), s.is_commutative, s.valencies,
                 lambda: starting_pieces(s, 0)):
        with pytest.raises(AxiomViolation, match=r"classify\(0,1\) = 2 outside 0\.\.1"):
            call()


def test_transpose_axiom_failure():
    table = [
        [0, 1, 2],
        [2, 0, 1],
        [2, 1, 0],
    ]
    report = Scheme(table).verify_axioms()
    assert not report.passed
    assert report.witness.startswith("transpose: ")


def test_regularity_failure_reported_not_raised():
    table = [
        [0, 2, 1, 1],
        [2, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    s = Scheme(table)
    report = s.verify_axioms()
    # the regularity witness alone: identity, partition and transpose hold
    assert not report.passed
    assert report.witness.startswith("regularity: ") and ";" not in report.witness
    with pytest.raises(AxiomViolation):
        s.intersection_number(1, 1, 1)


def test_regularity_witness_is_the_first_inconsistent_pair():
    # The count stops at its first witness; the report and the raise keep it.
    scheme = moved_pair_table()
    witness = (
        "count of class-2/class-1 paths is 0 for pair (0, 1) but 1 for (0,2), both in relation 2"
    )
    assert scheme.verify_axioms().witness == (
        f"transpose: classify(2,0) = 3 but class 2 transposed to 2 before; regularity: {witness}"
    )
    for read in (lambda: scheme.intersection_number(1, 1, 1), scheme.is_commutative):
        with pytest.raises(AxiomViolation) as raised:
            read()
        assert str(raised.value) == witness


def test_failing_axioms_are_joined_in_axiom_order():
    # identity before transpose before regularity, each with its first
    # counterexample; the partition holds, so it is not named
    assert Scheme([[1, 1, 2], [2, 0, 1], [2, 1, 0]]).verify_axioms() == CheckResult(
        "axioms", False,
        "identity: classify(0,0) = 1 != 0; "
        "transpose: classify(1,0) = 2 but class 1 transposed to 1 before; "
        "regularity: count of class-1/class-0 paths is 0 for pair (0, 0) but 1 for (0,1), "
        "both in relation 1",
        4,
    )


def _random_table(seed):
    # random symmetric labels off the diagonal: mostly no scheme
    rng = random.Random(seed)
    n = 5 + seed % 3
    table = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(y):
            table[y][z] = table[z][y] = rng.randrange(1, 3)
    return Scheme(table, classes=3)


def _random_transposed_table(seed):
    # random labels off the diagonal under a transpose map tau != id: odd
    # labels swap with the next even one, the last one is symmetric.  Some
    # seeds use more than 16 classes, so that the codes take two-byte lanes.
    rng = random.Random(seed)
    n = 4 + seed % 4
    c = 20 if seed % 2 else 6
    tau = [0] + [label + 1 if label % 2 else label - 1 for label in range(1, c - 1)] + [c - 1]
    table = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(y):
            table[y][z] = rng.randrange(1, c)
            table[z][y] = tau[table[y][z]]
    return Scheme(table, classes=c)


def _broken_transpose_table(seed):
    # labels drawn for each ordered pair on its own: the transpose map breaks
    rng = random.Random(seed)
    n = 4 + seed % 3
    table = [[0 if y == z else rng.randrange(1, 4) for z in range(n)] for y in range(n)]
    return Scheme(table, classes=4)


def _distinct_labels(n):
    # every entry its own label: n^2 labels, no scheme (only vertex 0 has
    # label 0 on the diagonal), and every row and column a label set of its own
    return Scheme([[n * x + y for y in range(n)] for x in range(n)])


def _many_labels_table(seed):
    # random symmetric labels from 1..29 off the diagonal: more labels than
    # vertices, and rows whose label sets differ
    rng = random.Random(seed)
    n = 6 + seed % 3
    table = [[0] * n for _ in range(n)]
    for y in range(n):
        for z in range(y):
            table[y][z] = table[z][y] = rng.randrange(1, 30)
    return Scheme(table)


TABLES = {
    "shrikhande": lambda: example_schemes()["shrikhande"],
    "s3": lambda: example_schemes()["s3"],
    "broken": broken_table,
    "moved-pair": moved_pair_table,
    **{f"random-{s}": (lambda s=s: _random_table(s)) for s in range(6)},
    **{f"transposed-{s}": (lambda s=s: _random_transposed_table(s)) for s in range(8)},
    **{f"broken-transpose-{s}": (lambda s=s: _broken_transpose_table(s)) for s in range(6)},
    **{f"relabelled-444-seed-{s}": (lambda s=s: relabelled((4, 4, 4), s)) for s in (1, 1103)},
    "cyclic-64": lambda: wreath_of_cyclics((64,)),
    "sigma-control": lambda: Scheme([[0, 1], [1, 2]]),
    "distinct-labels-6": lambda: _distinct_labels(6),
    **{f"many-labels-{s}": (lambda s=s: _many_labels_table(s)) for s in range(3)},
    # order 256: lanes of two bytes; the corner table's first pair has 256
    # paths of one label pair, and its witness is in row 0
    "relabelled-2x8-seed-1": lambda: relabelled((2,) * 8, 1),
    "corner-256": lambda: Scheme([[0] * 256] * 255 + [[0] * 255 + [1]]),
}

# The tables with no regularity witness.
NO_WITNESS = ("shrikhande", "s3", "relabelled", "cyclic", "distinct")


@pytest.mark.parametrize("name", [*moduli_up_to(12), *TABLES], ids=str)
def test_intersection_data_matches_the_count_grids(name):
    # the packed row sums against each pair counted vertex by vertex: the
    # first counts of every relation reached before the witness, the witness,
    # and the tensor where there is none
    built = wreath_of_cyclics(name) if isinstance(name, tuple) else TABLES[name]()
    scheme = Scheme(built.table, built.classes)  # nothing cached from another test
    firsts, found = scheme._intersection_data
    tensor, witness = intersection_data_by_counts(scheme)
    assert found == witness
    assert {h: scheme._paths(*pair) for h, pair in firsts.items()} == tensor
    scheme_like = isinstance(name, tuple) or name.startswith(NO_WITNESS)
    assert (witness is None) == scheme_like
    if scheme_like:
        assert scheme._tensor == tensor
    transpose_witness = scheme._transpose_witness
    assert transpose_witness == transpose_witness_by_pairs(scheme)
    assert (transpose_witness is not None) == (not isinstance(name, tuple)
                                               and name.startswith(("broken-transpose", "moved-pair")))


def test_sigma_control_is_told_apart_by_its_label_sets():
    # the rows hold {0, 1} and {1, 2}, and so do the columns; (0, 1) and
    # (1, 0) of relation 1 have the paths (0, 1), (1, 2) and (1, 0), (2, 1),
    # whose ranks in their rows' and columns' label sets are equal, (0, 0)
    # and (1, 1): only the set numbers in the key tell the two pairs apart
    scheme = TABLES["sigma-control"]()
    assert scheme._paths(0, 1) == {(0, 1): 1, (1, 2): 1}
    assert scheme._paths(1, 0) == {(1, 0): 1, (2, 1): 1}
    assert scheme.verify_axioms().witness == (
        "identity: classify(1,1) = 2 != 0; regularity: "
        "count of class-0/class-1 paths is 1 for pair (0, 1) but 0 for (1,0), both in relation 1"
    )


def test_intersection_tables_cover_both_lanes_and_a_transpose_other_than_the_identity():
    # one-byte lanes below order 256 and two-byte lanes from there, with a
    # count that needs the second byte; labels that outnumber the vertices;
    # rows and columns with different label sets; and tables whose transpose
    # map tau is not the identity, a scheme among them
    tables = {name: build() for name, build in TABLES.items()}
    assert {t.order < 256 for t in tables.values()} == {True, False}
    assert tables["corner-256"]._paths(0, 0) == {(0, 0): 256}
    constant = Scheme([[0] * 256] * 256)
    assert constant.verify_axioms().witness == "identity: classify(0,1) = 0 with 0 != 1"
    assert constant._tensor == {0: {(0, 0): 256}}
    for name in ("distinct-labels-6", "many-labels-0", "many-labels-1", "many-labels-2"):
        assert len(set().union(*tables[name].table)) > tables[name].order
    for name in ("sigma-control", "distinct-labels-6", "many-labels-0"):
        table = tables[name].table
        assert len({frozenset(row) for row in table}) > 1
        assert len({frozenset(column) for column in zip(*table)}) > 1
    cyclic = wreath_of_cyclics((5,))
    for t in [*(tables[f"transposed-{s}"] for s in range(8)), cyclic]:
        assert t._transpose_witness is None
        assert any(t.table[x][y] != t.table[y][x] for x in range(t.order) for y in range(t.order))
    assert cyclic.verify_axioms().passed


def test_axioms_on_many_labels_are_sized_by_the_order():
    # 256 labels on 16 vertices: one c x c grid per relation would hold
    # 16.7 million numbers; the count holds at most n per relation
    scheme = _distinct_labels(16)
    tracemalloc.start()
    try:
        report = scheme.verify_axioms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witness == "identity: classify(1,1) = 17 != 0"
    assert peak < 2 * 2**20
    assert scheme.intersection_number(0, 1, 1) == 1
    assert scheme.intersection_number(1, 0, 1) == 0


def test_axiom_counterexamples_are_pinned_on_the_transpose_controls():
    # verify_axioms reads the transpose witness from one pass over the
    # table; the text is the first broken pair in row order, as the loop
    # over every pair names it
    cases = {
        "transpose-control": Scheme([[0, 1, 2], [2, 0, 1], [2, 1, 0]]),
        "moved-pair": moved_pair_table(),
        **{f"broken-transpose-{s}": _broken_transpose_table(s) for s in range(3)},
    }
    found = {name: s.verify_axioms().witness for name, s in cases.items()}
    assert found == {
        "transpose-control": "transpose: classify(0,1) = 1 but class 2 transposed to 2 before; "
                             "regularity: count of class-1/class-1 paths is 1 for pair (0, 2) "
                             "but 0 for (1,0), both in relation 2",
        "moved-pair": "transpose: classify(2,0) = 3 but class 2 transposed to 2 before; "
                      "regularity: count of class-2/class-1 paths is 0 for pair (0, 1) "
                      "but 1 for (0,2), both in relation 2",
        "broken-transpose-0": "transpose: classify(3,1) = 3 but class 2 transposed to 2 before; "
                              "regularity: count of class-1/class-1 paths is 0 for pair (0, 1) "
                              "but 1 for (0,2), both in relation 2",
        "broken-transpose-1": "transpose: classify(3,0) = 2 but class 1 transposed to 1 before; "
                              "regularity: count of class-1/class-1 paths is 1 for pair (0, 1) "
                              "but 0 for (0,3), both in relation 1",
        "broken-transpose-2": "transpose: classify(2,0) = 1 but class 1 transposed to 3 before; "
                              "regularity: count of class-1/class-2 paths is 1 for pair (0, 1) "
                              "but 0 for (0,2), both in relation 1",
    }
    for name, s in cases.items():
        assert found[name].startswith(f"transpose: {transpose_witness_by_pairs(s)}; ")


def test_adjacency_identity_and_partition():
    s = wreath_of_cyclics([2, 3])
    assert s.adjacency_matrix(0) == identity(s.order)
    total = s.adjacency_matrix(0)
    for i in range(1, s.classes):
        total = total + s.adjacency_matrix(i)
    assert total == ExactMatrix.ones(s.order, s.order)


def test_adjacency_out_of_range():
    with pytest.raises(ValueError):
        cyclic_scheme(3).adjacency_matrix(3)


def test_cyclic_power_convention():
    s = cyclic_scheme(3)
    a1 = s.adjacency_matrix(1)
    assert a1 * a1 == s.adjacency_matrix(2)


def test_intersection_numbers_match_brute_force():
    s = wreath_of_cyclics([2, 3])
    for i in range(s.classes):
        for j in range(s.classes):
            for h in range(s.classes):
                assert s.intersection_number(i, j, h) == brute_intersection(s.table, i, j, h)


def test_intersection_number_frozen_values():
    s = wreath_of_cyclics([2, 3])
    assert s.intersection_number(0, 0, 0) == 1
    assert s.intersection_number(1, 1, 0) == 1
    assert s.intersection_number(2, 2, 3) == 2
    assert brute_intersection(s.table, 2, 2, 3) == 2


def test_p000_is_one_for_any_scheme():
    for s in (cyclic_scheme(5), wreath_of_cyclics([2, 2]), wreath_of_cyclics([3, 3])):
        assert s.intersection_number(0, 0, 0) == 1


def test_valencies():
    assert cyclic_scheme(4).valencies() == [1, 1, 1, 1]
    assert wreath_of_cyclics([2, 3]).valencies() == [1, 1, 2, 2]
    assert wreath_of_cyclics([2, 3]).valency(2) == 2
    assert wreath_of_cyclics([2, 3, 5]).valency(4) == 6
    assert wreath_of_cyclics([2, 2, 2]).valencies() == [1, 1, 2, 4]


def test_valency_row_sum_identity():
    # sum_h p_{ij}^h n_h == n_i n_j
    for s in (cyclic_scheme(5), wreath_of_cyclics([2, 3])):
        n = s.valencies()
        for i in range(s.classes):
            for j in range(s.classes):
                total = sum(s.intersection_number(i, j, h) * n[h] for h in range(s.classes))
                assert total == n[i] * n[j]


def test_product_expansion_identity():
    # A_i A_j == sum_h p_{ij}^h A_h, checked entrywise
    s = wreath_of_cyclics([2, 3])
    mats = [s.adjacency_matrix(i) for i in range(s.classes)]
    for i in range(s.classes):
        for j in range(s.classes):
            expected = ExactMatrix.zeros(s.order, s.order)
            for h in range(s.classes):
                p = s.intersection_number(i, j, h)
                if p:
                    expected = expected + mats[h].scaled(p)
            assert mats[i] * mats[j] == expected


def test_commutativity():
    assert cyclic_scheme(5).is_commutative()
    assert cyclic_scheme(1).is_commutative()
    assert wreath_of_cyclics([2, 2]).is_commutative()
    assert wreath_of_cyclics([2, 3]).is_commutative()


@pytest.mark.parametrize(
    "name", ["t22", "t222", "shrikhande", "s3", (2, 3), (3, 3), (2, 2, 2, 2), (2, 3, 4), (4, 4, 4)]
)
def test_commutativity_matches_matrix_products(name):
    # is_commutative reads p^h_ij == p^h_ji off the table
    scheme = example_schemes()[name] if isinstance(name, str) else wreath_of_cyclics(name)
    expected = commutes_by_products(scheme)
    assert scheme.is_commutative() == expected
    assert expected == (name != "s3")


def test_commutativity_raises_without_regularity():
    table = [
        [0, 2, 1, 1],
        [2, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    with pytest.raises(AxiomViolation):
        Scheme(table).is_commutative()


def test_axiom_verdict_invariant_under_relabeling():
    s = wreath_of_cyclics([2, 3])
    rng = random.Random(11)
    perm = list(range(s.order))
    rng.shuffle(perm)
    relabeled = Scheme.from_classifier(
        s.order, lambda x, y: s.table[perm[x]][perm[y]], classes=s.classes
    )
    assert relabeled.verify_axioms().passed
    assert sorted(relabeled.valencies()) == sorted(s.valencies())


def test_scheme_file_roundtrip(tmp_path):
    s = wreath_of_cyclics([2, 2])
    path = tmp_path / "table.txt"
    save_scheme(s, path)
    loaded = load_scheme(path)
    assert loaded.order == s.order
    assert loaded.classes == s.classes
    assert loaded.table == s.table


def test_load_scheme_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 1 1 0 9\n")
    with pytest.raises(ValueError):
        load_scheme(path)
    path.write_text("2 1\n0 1\n1 2\n")
    with pytest.raises(ValueError):
        load_scheme(path)
    path.write_text("x y\n")
    with pytest.raises(ValueError):
        load_scheme(path)


def test_load_scheme_stops_after_one_entry_too_many(tmp_path):
    # the non-integer token comes after entry order^2 + 1, so it is never
    # parsed: the count error is reported, not the non-integer one
    path = tmp_path / "long.txt"
    path.write_text("2 1\n0 1\n1 0\n1 x\n")
    with pytest.raises(ValueError, match=r"^expected 4 table entries, found at least 5$"):
        load_scheme(path)
    path.write_text("2 1\n0 1\n1 x\n")
    with pytest.raises(ValueError, match="non-integer token"):
        load_scheme(path)
    path.write_text("2 1\n0 1\n1\n")
    with pytest.raises(ValueError, match=r"^expected 4 table entries, found 3$"):
        load_scheme(path)


def test_load_header_refuses_a_short_or_negative_header(tmp_path):
    path = tmp_path / "header.txt"
    for text, message in (("", "scheme file must start with 'order d'"),
                          ("5\n", "scheme file must start with 'order d'"),
                          ("0 1\n", "order must be >= 1 and d >= 0"),
                          ("2 -1\n0 1\n1 0\n", "order must be >= 1 and d >= 0")):
        path.write_text(text)
        for load in (load_header, load_scheme):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load(path)


def test_load_scheme_reads_a_last_token_with_no_whitespace_after_it(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("2 1\n0 1\n1 0")
    assert load_header(path) == (2, 1)
    assert load_scheme(path).table == ((0, 1), (1, 0))


def test_load_scheme_joins_tokens_across_chunks(tmp_path, monkeypatch):
    # with 3-character chunks most tokens and separators straddle a boundary
    monkeypatch.setattr(scheme_module, "_CHUNK", 3)
    s = wreath_of_cyclics([2, 3])
    path = tmp_path / "table.txt"
    save_scheme(s, path)
    assert load_scheme(path).table == s.table
    path.write_text("1 0 \n  0   ")
    assert load_scheme(path).table == ((0,),)
    path.write_text("1 0\n0000000")
    with pytest.raises(ValueError, match="token longer than 3 characters"):
        load_scheme(path)


def test_valency_inconsistency_raises():
    table = [
        [0, 2, 1, 1],
        [2, 0, 1, 1],
        [1, 1, 0, 1],
        [1, 1, 1, 0],
    ]
    with pytest.raises(AxiomViolation):
        Scheme(table).valencies()


def test_scheme_rejects_bad_tables():
    with pytest.raises(ValueError):
        Scheme([])
    with pytest.raises(ValueError):
        Scheme([[0, 1], [1]])
    with pytest.raises(ValueError):
        Scheme([[0, -1], [1, 0]])
    for entries in ([[False, True], [True, False]], [[0, 1.0], [1, 0]], [[0, "1"], [1, 0]]):
        with pytest.raises(ValueError, match="^class table entries must be nonnegative integers$"):
            Scheme(entries)


def test_table_is_immutable():
    # The adjacency matrices and parameters are cached on the scheme, and
    # wreath_of_cyclics shares one scheme per moduli, so the table must not
    # change under them.
    s = wreath_of_cyclics([2, 3])
    before = s.adjacency_matrix(1)
    with pytest.raises(TypeError):
        s.table[0][1] = 2
    with pytest.raises(TypeError):
        s.table[0] = s.table[1]
    assert s.table == Scheme([list(row) for row in s.table]).table
    assert before == Scheme(s.table).adjacency_matrix(1)
