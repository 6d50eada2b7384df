"""Finite association schemes backed by a dense class table.

A scheme is stored as its classifier table: an order x order grid of
class indices.  Axiom verification, intersection numbers and valencies
are all computed by exhaustive enumeration, so a passing report is a
certificate at the scale this package targets.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, product

from .linalg import ExactMatrix, ExactSpan

__all__ = [
    "AxiomViolation",
    "CheckResult",
    "Scheme",
    "load_header",
    "load_scheme",
    "save_scheme",
]


class AxiomViolation(ValueError):
    """A quantity the scheme axioms promise to be well defined is not."""


class Record:
    """A value class whose fields are named, in constructor order, by
    ``_fields``: ``==`` compares two instances of one class field by field,
    and ``repr`` lists the fields as ``Name(field=value, ...)``.  A mutable
    record is unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """An immutable record, hashed by its fields; its constructor sets each
    slot once through ``_freeze``."""

    __slots__ = ()

    def _freeze(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class CheckResult(Record):
    """Outcome of one verification pass."""

    __slots__ = _fields = ("name", "passed", "witness", "checked")

    def __init__(self, name: str, passed: bool, witness: str | None = None, checked: int = 0):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.checked = checked

    def to_dict(self) -> dict:
        """The report entry: name, status and the witness, if any."""
        entry = {"name": self.name, "status": "pass" if self.passed else "fail"}
        return entry | ({"witness": self.witness} if self.witness else {})


class Scheme:
    """An association scheme (or candidate) on vertices 0..order-1."""

    def __init__(self, table, classes: int | None = None):
        # Immutable, so the cached valencies and parameters (and the shared
        # cached schemes) cannot go stale.
        table = tuple(tuple(row) for row in table)
        order = len(table)
        if order == 0 or any(len(row) != order for row in table):
            raise ValueError("class table must be a nonempty square grid")
        types = set(map(type, chain.from_iterable(table)))
        if not all(issubclass(kind, int) and not issubclass(kind, bool) for kind in types) \
                or min(map(min, table)) < 0:
            raise ValueError("class table entries must be nonnegative integers")
        top = max(map(max, table))
        self.order = order
        self.table = table
        self.classes = classes if classes is not None else top + 1
        self._bound = top + 1
        # Kept so that verify_axioms can report it; every parameter raises.
        self._label_witness = None if top < self.classes else next(
            f"classify({x},{y}) = {c} outside 0..{self.classes - 1}"
            for x, row in enumerate(table) for y, c in enumerate(row) if c >= self.classes)

    @classmethod
    def from_classifier(cls, order: int, classify, classes: int | None = None) -> "Scheme":
        table = [[classify(x, y) for y in range(order)] for x in range(order)]
        return cls(table, classes)

    # -- axiom verification ---------------------------------------------------

    def verify_axioms(self) -> CheckResult:
        """The ``axioms`` verdict over the four axioms.  The witness joins
        each failing axiom's first counterexample, in the order identity,
        partition, transpose, regularity; transpose and regularity are
        tested only where the labels partition the pairs."""
        found = {"identity": self._identity_witness, "partition": self._partition_witness}
        if found["partition"] is None:
            found |= {"transpose": self._transpose_witness,
                      "regularity": self._intersection_data[1]}
        witness = "; ".join(f"{name}: {text}" for name, text in found.items() if text) or None
        return CheckResult("axioms", witness is None, witness, 4)

    # -- parameters -------------------------------------------------------------

    def _require_labels(self):
        """Raise AxiomViolation if a label lies outside 0..classes-1."""
        if self._label_witness is not None:
            raise AxiomViolation(self._label_witness)

    @cached_property
    def _identity_witness(self) -> str | None:
        """The identity axiom's witness, None where A_0 = I; the block
        closure reads it too."""
        t, n = self.table, self.order
        x = next((x for x in range(n) if t[x][x] != 0), None)
        if x is not None:
            return f"classify({x},{x}) = {t[x][x]} != 0"
        pair = next(((x, y) for x, y in product(range(n), repeat=2) if x != y and t[x][y] == 0), None)
        return None if pair is None else "classify({0},{1}) = 0 with {0} != {1}".format(*pair)

    @cached_property
    def _partition_witness(self) -> str | None:
        """The partition axiom's witness: a label outside 0..classes-1, else
        the first empty relation, or None where the relations partition the
        pairs."""
        if self._label_witness is not None:
            return self._label_witness
        # the smallest absent label is at most the number of labels present,
        # so the search never depends on the class count the header claims
        present = set().union(*self.table)
        empty = next(i for i in range(len(present) + 1) if i not in present)
        return f"relation {empty} is empty" if empty < self.classes else None

    @cached_property
    def _transpose_witness(self) -> str | None:
        """The transpose axiom's witness: the first pair, in row order, whose
        transpose breaks the map tau with t[y][x] = tau(t[x][y]) for every
        pair, or None where tau is well defined."""
        tmap: dict[int, int] = {}
        for x, (row, column) in enumerate(zip(self.table, zip(*self.table))):
            for y, (i, it) in enumerate(zip(row, column)):
                if tmap.setdefault(i, it) != it:
                    return f"classify({y},{x}) = {it} but class {i} transposed to {tmap[i]} before"
        return None

    @cached_property
    def _intersection_data(self) -> tuple[dict[int, tuple[int, int]], str | None]:
        """The first pair of each relation, in row order, up to the first
        witness that p^h_ij is not well defined, and that witness, or None.

        Pair (x, y) has the path counts p(x, y; i, j) = |{z : t[x][z] = i,
        t[z][y] = j}|, nonzero only for i among row x's labels and j among
        column y's, and equal counts give equal label sets.  So a pair's key
        is its counts in lanes indexed by the rank of i in row x's set and of j
        in column y's, with the numbers of both sets: two pairs of a relation
        have equal keys exactly when they have equal counts.  A lane counts up
        to n in the fewest bytes that hold n, so no lane carries.

        Vertex z packs an int whose lane (j, y) is 1 where t[z][y] has rank j
        in column y.  Row x adds it into the sum for the rank i of t[x][z], so
        lane (j, y) of sum i is p(x, y; i, j).  The sums' bytes are joined
        with one lane per column holding its set number and one per column
        holding row x's (at most n sets, so a number fits a lane).  Lanes
        wider than a byte are regrouped by byte plane, byte b of every lane
        before byte b + 1, so that column y's key is the slice
        ``joined[y::n]``.  Each pair is compared with its relation's first;
        where a whole row agrees, one list comparison settles it.  At the
        first mismatch both pairs are recounted, and the witness names the
        first label pair (i, j) whose counts differ.
        """
        self._require_labels()
        t, n = self.table, self.order
        width = (n.bit_length() + 7) // 8
        row_ranks, row_sets = _ranked(t, self._bound)
        column_ranks, column_sets = _ranked(zip(*t), self._bound)
        size = n * (max(map(max, column_ranks)) + 1) * width
        packed = []
        for ranks in zip(*column_ranks):
            lanes = bytearray(size)
            for y, j in enumerate(ranks):
                lanes[(j * n + y) * width] = 1
            packed.append(int.from_bytes(lanes, "little"))
        column_tail = b"".join(number.to_bytes(width, "little") for number in column_sets)
        keys: dict[int, bytes] = {}
        firsts: dict[int, tuple[int, int]] = {}
        mismatch = None
        for x, (row, ranks) in enumerate(zip(t, row_ranks)):
            sums = [0] * (max(ranks) + 1)
            for z, i in enumerate(ranks):
                sums[i] += packed[z]
            joined = b"".join([s.to_bytes(size, "little") for s in sums]
                              + [column_tail, row_sets[x].to_bytes(width, "little") * n])
            joined = b"".join(joined[b::width] for b in range(width))
            found = [joined[y::n] for y in range(n)]
            if list(map(keys.get, row)) == found:
                continue
            for y, (h, key) in enumerate(zip(row, found)):
                if h not in keys:
                    keys[h], firsts[h] = key, (x, y)
                elif keys[h] != key:
                    mismatch = firsts[h], (x, y)
                    break
            if mismatch:
                break
        witness = None
        if mismatch:
            ref, (x, y) = mismatch
            counts = [self._paths(*pair) for pair in mismatch]
            i, j = min(key for key in counts[0] | counts[1] if counts[0][key] != counts[1][key])
            witness = (f"count of class-{i}/class-{j} paths is {counts[0][i, j]} for pair {ref} "
                       f"but {counts[1][i, j]} for ({x},{y}), both in relation {t[x][y]}")
        # Past the first witness the numbers are not well defined, and every
        # reader of the tensor raises the witness first.
        return firsts, witness

    def _paths(self, x: int, y: int) -> Counter:
        """p(x, y; i, j), the number of paths x -> z -> y with t[x][z] = i and
        t[z][y] = j, keyed by (i, j): at most n keys."""
        t = self.table
        return Counter(zip(t[x], (row[y] for row in t)))

    @cached_property
    def _tensor(self) -> dict[int, Counter]:
        """p^h_ij as ``_tensor[h].get((i, j), 0)`` for each relation h the
        table holds, counted on its first pair; raises AxiomViolation with the
        witness where the intersection numbers are not well defined."""
        firsts, witness = self._intersection_data
        if witness is not None:
            raise AxiomViolation(witness)
        return {h: self._paths(*pair) for h, pair in firsts.items()}

    @cached_property
    def generating_classes(self) -> tuple[int, ...] | None:
        """Classes J whose A_j generate the span of all the A_j as an
        algebra, or None where no such set is certified.

        J is chosen greedily from the labels 1..c-1 (``_word_span``).  Where
        A_0 = I, a span of dimension c holds every A_j, so the words in A_J
        span them all.  None where the relations do not partition the pairs,
        the intersection numbers are not well defined, or the span stays
        below c.
        """
        c = self.classes
        if self._partition_witness is not None or self._intersection_data[1] is not None:
            return None
        classes, span = self._word_span(range(1, c))
        return tuple(classes) if span.dimension == c else None

    def _word_span(self, candidates) -> tuple[list[int], ExactSpan]:
        """Classes J among ``candidates`` and the span of the words in the
        A_j, j in J, applied to A_0, as the 1 x c rows of their coefficients
        over the A_h, each one packed int: the closure of the row of A_0
        under the maps A_g sum_m v_m A_m = sum_h (sum_m v_m p^h_gm) A_h.

        Each candidate j in turn, until the span has dimension c, joins J
        where A_j is not yet in the span (if it is, the span, an algebra, is
        closed under A_j already).  When g joins, each word is walked under
        the maps it has not been walked under: the words so far under A_g
        alone, each new word under all of A_J.  So the span holds the words
        and is closed under each map, as the closure of J from scratch is.
        """
        c, tensor = self.classes, self._tensor
        words = [[1] + [0] * (c - 1)]
        span = ExactSpan.from_matrices([_row(words[0])])
        applied = [0]  # per word, how many maps of ``acting`` it has been walked under
        classes: list[int] = []
        acting: list[list[list[tuple[int, int]]]] = []  # [g][m]: the nonzero (h, p^h_gm)
        for g in candidates:
            if span.dimension == c:
                break
            if span.contains(_row([int(h == g) for h in range(c)])):
                continue
            classes.append(g)
            acting.append([[(h, grid[g, m]) for h, grid in tensor.items() if (g, m) in grid]
                           for m in range(c)])
            w = 0
            while w < len(words):  # words grows while it is walked
                for terms in acting[applied[w]:]:
                    image = [0] * c
                    for m, v in enumerate(words[w]):
                        if v:
                            for h, p in terms[m]:
                                image[h] += v * p
                    if span.insert(_row(image)):
                        words.append(image)
                        applied.append(0)
                applied[w] = len(acting)
                w += 1
        return classes, span

    def intersection_number(self, i: int, j: int, h: int) -> int:
        """|{z : (x,z) in R_i, (z,y) in R_j}| for any (x,y) in R_h.

        The full enumeration asserts independence of the chosen pair;
        an inconsistent table raises AxiomViolation.
        """
        if not (0 <= i < self.classes and 0 <= j < self.classes and 0 <= h < self.classes):
            raise ValueError("class index out of range")
        grid = self._tensor.get(h)
        if grid is None:
            raise AxiomViolation(f"relation {h} is empty")
        return grid.get((i, j), 0)

    def valencies(self) -> list[int]:
        return list(self._valency_row)

    @cached_property
    def _valency_row(self) -> list[int]:
        """Row 0's count of each class, which every row must share."""
        self._require_labels()
        rows = [[row.count(i) for i in range(self.classes)] for row in self.table]
        x = next((x for x, counts in enumerate(rows) if counts != rows[0]), None)
        if x is not None:
            raise AxiomViolation(f"neighborhood sizes differ between vertices 0 and {x}")
        return rows[0]

    def valency(self, i: int) -> int:
        if not 0 <= i < self.classes:
            raise ValueError("class index out of range")
        return self._valency_row[i]

    def adjacency_matrix(self, i: int) -> ExactMatrix:
        """The n x n 0/1 matrix A_i, built on each call: no command reads it
        (``export --matrices`` writes the class table's entries), only the
        references of the tests and the benchmark's order-64 probe."""
        if not 0 <= i < self.classes:
            raise ValueError("class index out of range")
        return ExactMatrix.from_rows([[int(c == i) for c in row] for row in self.table])

    def is_commutative(self) -> bool:
        """Whether all adjacency matrices commute.

        A_i A_j = sum_h p^h_ij A_h, so A_i and A_j commute exactly when
        p^h_ij == p^h_ji for every nonempty relation h.  A table whose
        intersection numbers are not well defined raises AxiomViolation.
        """
        return all(grid.get((j, i), 0) == p for grid in self._tensor.values()
                   for (i, j), p in grid.items())

    def __repr__(self):
        return f"<Scheme order={self.order} classes={self.classes}>"


def _ranked(lines, bound: int) -> tuple[list, list[int]]:
    """Each line's labels as their ranks in the line's label set, and the
    number of that set among the distinct sets of ``lines``.  A line that
    holds every label below ``bound`` is its own ranks."""
    numbers: dict[tuple[int, ...], int] = {}
    ranks, sets = [], []
    for line in lines:
        labels = tuple(sorted(set(line)))
        sets.append(numbers.setdefault(labels, len(numbers)))
        if len(labels) < bound:
            rank = {label: r for r, label in enumerate(labels)}
            line = [rank[label] for label in line]
        ranks.append(line)
    return ranks, sets


def _row(vector) -> ExactMatrix:
    return ExactMatrix.from_rows([vector])


def save_scheme(scheme: Scheme, path) -> None:
    """Write the class table: first line ``order d``, then the table rows."""
    lines = [f"{scheme.order} {scheme.classes - 1}"]
    for row in scheme.table:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


# Characters per read; no token of a table file may be longer.
_CHUNK = 1 << 16


def _chunks(handle):
    """The whitespace-separated tokens of a text file, read in chunks: one
    list per chunk, a token cut by a chunk's end going with the next."""
    tail = ""
    while chunk := handle.read(_CHUNK):
        tokens = (tail + chunk).split()
        # the last token may go on in the next chunk
        tail = "" if chunk[-1].isspace() else tokens.pop()
        if len(tail) > _CHUNK:
            raise ValueError(f"scheme file contains a token longer than {_CHUNK} characters")
        yield tokens
    if tail:
        yield [tail]


def _integers(tokens) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError as exc:
        raise ValueError(f"scheme file contains a non-integer token: {exc}") from None


def load_header(path) -> tuple[int, int]:
    """The order and d of a class table file, the header that
    :func:`load_scheme` reads; nothing past it is read, so a size cap can
    be checked on the order before the body is."""
    header: list[str] = []
    with open(path, "r", encoding="ascii") as handle:
        for tokens in _chunks(handle):
            header += tokens
            if len(header) >= 2:
                break
    if len(header) < 2:
        raise ValueError("scheme file must start with 'order d'")
    order, d = _integers(header[:2])
    if order < 1 or d < 0:
        raise ValueError("order must be >= 1 and d >= 0")
    return order, d


def load_scheme(path) -> Scheme:
    """Parse a class table file produced by :func:`save_scheme`.

    Each chunk's tokens are parsed as it is read, with one ``map``, and
    reading stops one token past the ``order^2`` entries the header
    announces, so a body that is too long is reported without being read
    whole, and no token after that one is parsed.
    """
    order, d = load_header(path)
    # the header, read again and valid, the entries and one token past them
    wanted = order * order + 3
    values: list[int] = []
    with open(path, "r", encoding="ascii") as handle:
        for tokens in _chunks(handle):
            values += _integers(tokens[:wanted - len(values)])
            if len(values) == wanted:
                break
    body = values[2:]
    if len(body) != order * order:
        more = "at least " if len(body) > order * order else ""
        raise ValueError(f"expected {order * order} table entries, found {more}{len(body)}")
    if any(v < 0 or v > d for v in body):
        raise ValueError("table entries must lie in 0..d")
    table = [body[r * order:(r + 1) * order] for r in range(order)]
    return Scheme(table, classes=d + 1)
