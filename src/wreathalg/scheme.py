"""Finite association schemes backed by a dense class table.

A scheme is stored as its classifier table: an order x order grid of
class indices.  Axiom verification, intersection numbers and valencies
are all computed by exhaustive enumeration, so a passing report is a
certificate at the scale this package targets.
"""

from __future__ import annotations

import struct
from collections import Counter
from functools import cached_property
from itertools import product

from .linalg import ExactMatrix, ExactSpan

__all__ = [
    "AxiomViolation",
    "AxiomReport",
    "CheckResult",
    "Scheme",
    "load_header",
    "load_scheme",
    "save_scheme",
]


# Unsigned struct lanes by their size in bytes.
_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


class AxiomReport(Record):
    """Per-axiom verdicts with the first counterexample for each failure."""

    __slots__ = _fields = (
        "identity_ok", "partition_ok", "transpose_ok", "regular_ok", "counterexamples")

    def __init__(self, identity_ok: bool, partition_ok: bool, transpose_ok: bool,
                 regular_ok: bool, counterexamples: dict[str, str] | None = None):
        self.identity_ok = identity_ok
        self.partition_ok = partition_ok
        self.transpose_ok = transpose_ok
        self.regular_ok = regular_ok
        self.counterexamples = {} if counterexamples is None else counterexamples

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.partition_ok and self.transpose_ok and self.regular_ok

    def as_check(self) -> CheckResult:
        """The report as one ``axioms`` verdict: the witness lists every counterexample."""
        witness = "; ".join(f"{k}: {v}" for k, v in self.counterexamples.items()) or None
        return CheckResult("axioms", self.passed, witness, 4)


class Scheme:
    """An association scheme (or candidate) on vertices 0..order-1."""

    def __init__(self, table, classes: int | None = None):
        # Immutable, so the cached valencies and parameters (and the shared
        # cached schemes) cannot go stale.
        table = tuple(tuple(row) for row in table)
        order = len(table)
        if order == 0 or any(len(row) != order for row in table):
            raise ValueError("class table must be a nonempty square grid")
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for row in table for v in row):
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
        self._valencies: list[int] | None = None
        self._pnums = None
        self._pnum_witness: str | None = None

    @classmethod
    def from_classifier(cls, order: int, classify, classes: int | None = None) -> "Scheme":
        table = [[classify(x, y) for y in range(order)] for x in range(order)]
        return cls(table, classes)

    # -- axiom verification ---------------------------------------------------

    def verify_axioms(self) -> AxiomReport:
        counterexamples: dict[str, str] = {}
        identity_ok = self._identity_witness is None
        if not identity_ok:
            counterexamples["identity"] = self._identity_witness

        partition_ok = self._label_witness is None
        if not partition_ok:
            counterexamples["partition"] = self._label_witness
        else:
            # the smallest absent label is at most the number of labels present,
            # so the search never depends on the class count the header claims
            present = set().union(*self.table)
            empty = next(i for i in range(len(present) + 1) if i not in present)
            if empty < self.classes:
                partition_ok = False
                counterexamples["partition"] = f"relation {empty} is empty"

        transpose_ok = partition_ok and self._transpose[1] is None
        if partition_ok and not transpose_ok:
            counterexamples["transpose"] = self._transpose[1]

        regular_ok = partition_ok
        if regular_ok:
            self._compute_intersection_data()
            if self._pnum_witness is not None:
                regular_ok = False
                counterexamples["regularity"] = self._pnum_witness

        return AxiomReport(identity_ok, partition_ok, transpose_ok, regular_ok, counterexamples)

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
    def _transpose(self) -> tuple[dict[int, int] | None, str | None]:
        """The transpose map tau on the labels present, t[y][x] = tau(t[x][y])
        for every pair, or None and the witness of the first pair, in row
        order, whose transpose breaks it: one pass over the table, which
        ``verify_axioms`` and the intersection count share."""
        tmap: dict[int, int] = {}
        for x, (row, column) in enumerate(zip(self.table, zip(*self.table))):
            for y, (i, it) in enumerate(zip(row, column)):
                if tmap.setdefault(i, it) != it:
                    return None, f"classify({y},{x}) = {it} but class {i} transposed to {tmap[i]} before"
        return tmap, None

    def _compute_intersection_data(self):
        """p^h_ij as ``_pnums[h][i][j]``, or the first witness that it is
        not well defined.  c is one more than the largest label held, not
        the class count claimed: a class no pair holds has no paths.

        A pair (x, y) is coded by the sorted codes t[x][z]*c + t[z][y] over
        the vertices z, injective on label pairs since every label is below
        c, so two pairs have equal path counts exactly when their code lists
        are equal.  Each pair, in row order, is compared with the first pair
        of its relation, whose codes give the relation's grid (``_scan``).
        Where the transpose map tau is well defined, only the pairs with
        x <= y are scanned.  There t[y][z] = tau(t[z][y]) and
        t[z][x] = tau(t[x][z]), so the codes of (y, x) are those of (x, y)
        under sigma: i*c + j -> tau(j)*c + tau(i).  The half scan is
        accepted when no pair in it differs from its relation's list L_h and
        L_h = sigma(L_tau(h)) for every relation h it read.  A pair (x, y)
        with x > y then lies in h = tau(g), g = t[y][x], and has the list
        sigma(L_g), which is L_h as tau is an involution on the labels
        present.  So every pair has its relation's list, the full scan would
        find no mismatch, and its first pair of each relation has the list
        L_h: the tensor is the full scan's.  A relation with no pair on or
        above the diagonal leaves L_tau(h) unread for h = tau of it, and
        fails the comparison.  A half scan that is not accepted is discarded
        and every pair is scanned in row order, so a table with a witness
        gets the full scan's witness and the grids it counted before it.  At
        the first mismatch both pairs are counted, and the witness names the
        first label pair (i, j) whose counts differ.  The comparisons under
        sigma are needed: in [[0, 1], [1, 2]] each relation has one pair on
        or above the diagonal, yet (0, 1) and (1, 0) have different counts.
        """
        self._require_labels()
        if self._pnums is not None:
            return
        c, t = self._bound, self.table
        tau = self._transpose[0]
        first, mismatch = self._scan(tau is not None)
        if tau is not None:
            sigma = {i * c + j: tau[j] * c + tau[i] for i in tau for j in tau}
            if mismatch or not all(sorted(map(sigma.__getitem__, first.get(tau[h], (None, ()))[1])) == codes
                                   for h, (_, codes) in first.items()):
                first, mismatch = self._scan(False)
        witness = None
        if mismatch:
            ref, (x, y) = mismatch
            counts = [Counter(zip(t[a], (row[b] for row in t))) for a, b in mismatch]
            i, j = min(key for key in counts[0] | counts[1] if counts[0][key] != counts[1][key])
            witness = (f"count of class-{i}/class-{j} paths is {counts[0][i, j]} for pair {ref} "
                       f"but {counts[1][i, j]} for ({x},{y}), both in relation {t[x][y]}")
        # Past the first witness the numbers are not well defined, and every
        # reader of the tensor raises the witness first.
        tensor: list[list[list[int]] | None] = [None] * c
        for h, (_, codes) in first.items():
            grid = tensor[h] = [[0] * c for _ in range(c)]
            for code in codes:
                i, j = divmod(code, c)
                grid[i][j] += 1
        self._pnums = tensor
        self._pnum_witness = witness

    def _tensor(self) -> list[list[list[int]] | None]:
        """``_pnums``; raises AxiomViolation with the witness where the
        intersection numbers are not well defined."""
        self._compute_intersection_data()
        if self._pnum_witness is not None:
            raise AxiomViolation(self._pnum_witness)
        return self._pnums

    def _scan(self, upper: bool):
        """The first pair of each relation, in row order, with its sorted
        codes, over the pairs with x <= y where ``upper`` and over every pair
        otherwise, up to the first pair whose codes differ from its
        relation's; and that pair with its relation's first, or None.  A
        pair's codes are the lanes of one int sum, row x scaled by c plus
        column y, each packed by ``struct`` in unsigned lanes of the fewest
        bytes that hold c^2 - 1, so no lane carries into the next."""
        c, n = self._bound, self.order
        lane = next((code for size, code in _LANES.items() if c * c <= 256 ** size), None)
        if lane is None:
            raise ValueError(f"labels up to {c - 1} are too many to count paths over")
        lanes = struct.Struct(f"<{n}{lane}")
        packed = [int.from_bytes(lanes.pack(*column), "little") for column in zip(*self.table)]
        first: dict[int, tuple[tuple[int, int], list[int]]] = {}
        for x, row in enumerate(self.table):
            scaled = int.from_bytes(lanes.pack(*[label * c for label in row]), "little")
            for y in range(x if upper else 0, n):
                raw = (scaled + packed[y]).to_bytes(lanes.size, "little")
                codes = sorted(raw if lane == "B" else lanes.unpack(raw))
                ref = first.setdefault(row[y], ((x, y), codes))
                if ref[1] != codes:
                    return first, (ref[0], (x, y))
        return first, None

    @cached_property
    def generating_classes(self) -> tuple[int, ...] | None:
        """Classes J whose A_j generate the span of all the A_j as an
        algebra, or None where no such set is certified.

        J is chosen greedily from the labels 1..c-1 (``_word_span``).  Where
        A_0 = I, a span of dimension c holds every A_j, so the words in A_J
        span them all.  None where the intersection numbers are not well
        defined, a relation is empty, or the span stays below c.
        """
        c = self.classes
        if len(set().union(*self.table)) < c:
            return None
        self._compute_intersection_data()
        if self._pnum_witness is not None:
            return None
        classes, span = self._word_span(range(1, c))
        return tuple(classes) if span.dimension == c else None

    def _word_span(self, candidates) -> tuple[list[int], ExactSpan]:
        """Classes J among ``candidates`` and the span of the words in the
        A_j, j in J, applied to A_0, as the c x 1 columns of their
        coefficients over the A_h: the closure of the column of A_0 under the
        maps A_g sum_m v_m A_m = sum_h (sum_m v_m p^h_gm) A_h.

        Each candidate j in turn, until the span has dimension c, joins J
        where A_j is not yet in the span (if it is, the span, an algebra, is
        closed under A_j already).  When g joins, each word is walked under
        the maps it has not been walked under: the words so far under A_g
        alone, each new word under all of A_J.  So the span holds the words
        and is closed under each map, as the closure of J from scratch is.
        """
        c, tensor = self.classes, self._tensor()
        grids = [(h, grid) for h, grid in enumerate(tensor) if grid]
        words = [[1] + [0] * (c - 1)]
        span = ExactSpan.from_matrices([_column(words[0])])
        applied = [0]  # per word, how many maps of ``acting`` it has been walked under
        classes: list[int] = []
        acting: list[list[list[tuple[int, int]]]] = []  # [g][m]: the nonzero (h, p^h_gm)
        for g in candidates:
            if span.dimension == c:
                break
            if span.contains(_column([int(h == g) for h in range(c)])):
                continue
            classes.append(g)
            # a word is zero past the labels held, and a label not held has no paths
            acting.append([[(h, grid[g][m]) for h, grid in grids if g < len(tensor) and grid[g][m]]
                           for m in range(len(tensor))])
            w = 0
            while w < len(words):  # words grows while it is walked
                for terms in acting[applied[w]:]:
                    image = [0] * c
                    for m, v in enumerate(words[w]):
                        if v:
                            for h, p in terms[m]:
                                image[h] += v * p
                    if span.insert(_column(image)):
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
        tensor = self._tensor()
        grid = tensor[h] if h < len(tensor) else None
        if grid is None:
            raise AxiomViolation(f"relation {h} is empty")
        return grid[i][j] if max(i, j) < len(tensor) else 0

    def valencies(self) -> list[int]:
        if self._valencies is None:
            self._require_labels()
            rows = [[row.count(i) for i in range(self.classes)] for row in self.table]
            x = next((x for x, counts in enumerate(rows) if counts != rows[0]), None)
            if x is not None:
                raise AxiomViolation(f"neighborhood sizes differ between vertices 0 and {x}")
            self._valencies = rows[0]
        return list(self._valencies)

    def valency(self, i: int) -> int:
        if not 0 <= i < self.classes:
            raise ValueError("class index out of range")
        return self.valencies()[i]

    def adjacency_matrix(self, i: int) -> ExactMatrix:
        """The n x n 0/1 matrix A_i, built on each call: no check reads it,
        only ``export --matrices`` and the references of the tests."""
        if not 0 <= i < self.classes:
            raise ValueError("class index out of range")
        return ExactMatrix.from_rows([[int(c == i) for c in row] for row in self.table])

    def is_commutative(self) -> bool:
        """Whether all adjacency matrices commute.

        A_i A_j = sum_h p^h_ij A_h, so A_i and A_j commute exactly when
        p^h_ij == p^h_ji for every nonempty relation h.  A table whose
        intersection numbers are not well defined raises AxiomViolation.
        """
        return all(grid[i][j] == grid[j][i]
                   for grid in self._tensor() if grid is not None
                   for i in range(len(grid)) for j in range(i))

    def __repr__(self):
        return f"<Scheme order={self.order} classes={self.classes}>"


def _column(vector) -> ExactMatrix:
    return ExactMatrix.from_rows([[v] for v in vector])


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
