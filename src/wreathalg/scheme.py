"""Finite association schemes backed by a dense class table.

A scheme is stored as its classifier table: an order x order grid of
class indices.  Axiom verification, intersection numbers and valencies
are all computed by exhaustive enumeration, so a passing report is a
certificate at the scale this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import ExactMatrix

__all__ = [
    "AxiomViolation",
    "AxiomReport",
    "CheckResult",
    "Scheme",
    "load_scheme",
    "save_scheme",
]


class AxiomViolation(ValueError):
    """A quantity the scheme axioms promise to be well defined is not."""


@dataclass
class CheckResult:
    """Outcome of one verification pass."""

    name: str
    passed: bool
    witness: str | None = None
    checked: int = 0

    def to_dict(self) -> dict:
        """The report entry: name, status and the witness, if any."""
        entry = {"name": self.name, "status": "pass" if self.passed else "fail"}
        return entry | ({"witness": self.witness} if self.witness else {})


@dataclass
class AxiomReport:
    """Per-axiom verdicts with the first counterexample for each failure."""

    identity_ok: bool
    partition_ok: bool
    transpose_ok: bool
    regular_ok: bool
    counterexamples: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.partition_ok and self.transpose_ok and self.regular_ok


class Scheme:
    """An association scheme (or candidate) on vertices 0..order-1."""

    def __init__(self, table, classes: int | None = None):
        # Immutable, so the cached adjacency matrices, valencies and
        # parameters (and the shared cached schemes) cannot go stale.
        table = tuple(tuple(row) for row in table)
        order = len(table)
        if order == 0 or any(len(row) != order for row in table):
            raise ValueError("class table must be a nonempty square grid")
        for row in table:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise ValueError("class table entries must be nonnegative integers")
        self.order = order
        self.table = table
        self.classes = classes if classes is not None else max(max(row) for row in table) + 1
        self._adjacency: dict[int, ExactMatrix] = {}
        self._valencies: list[int] | None = None
        self._pnums = None
        self._pnum_witness: str | None = None
        self._pnums_done = False

    @classmethod
    def from_classifier(cls, order: int, classify, classes: int | None = None) -> "Scheme":
        table = [[classify(x, y) for y in range(order)] for x in range(order)]
        return cls(table, classes)

    def classify(self, x: int, y: int) -> int:
        return self.table[x][y]

    def related(self, x: int, i: int) -> list[int]:
        """All y with (x, y) in relation i."""
        row = self.table[x]
        return [y for y in range(self.order) if row[y] == i]

    # -- axiom verification ---------------------------------------------------

    def verify_axioms(self) -> AxiomReport:
        counterexamples: dict[str, str] = {}
        t = self.table
        n = self.order

        identity_ok = True
        for x in range(n):
            if t[x][x] != 0:
                identity_ok = False
                counterexamples["identity"] = f"classify({x},{x}) = {t[x][x]} != 0"
                break
        if identity_ok:
            for x in range(n):
                row = t[x]
                for y in range(n):
                    if x != y and row[y] == 0:
                        identity_ok = False
                        counterexamples["identity"] = f"classify({x},{y}) = 0 with {x} != {y}"
                        break
                if not identity_ok:
                    break

        partition_ok = True
        seen = [False] * self.classes
        for x in range(n):
            for y in range(n):
                c = t[x][y]
                if c >= self.classes:
                    partition_ok = False
                    counterexamples["partition"] = (
                        f"classify({x},{y}) = {c} outside 0..{self.classes - 1}"
                    )
                    break
                seen[c] = True
            if not partition_ok:
                break
        if partition_ok and not all(seen):
            partition_ok = False
            empty = seen.index(False)
            counterexamples["partition"] = f"relation {empty} is empty"

        transpose_ok = partition_ok
        if transpose_ok:
            tmap: list[int | None] = [None] * self.classes
            for x in range(n):
                for y in range(n):
                    i = t[x][y]
                    it = t[y][x]
                    if tmap[i] is None:
                        tmap[i] = it
                    elif tmap[i] != it:
                        transpose_ok = False
                        counterexamples["transpose"] = (
                            f"classify({y},{x}) = {it} but class {i} transposed to {tmap[i]} before"
                        )
                        break
                if not transpose_ok:
                    break

        regular_ok = partition_ok
        if regular_ok:
            self._compute_intersection_data()
            if self._pnum_witness is not None:
                regular_ok = False
                counterexamples["regularity"] = self._pnum_witness

        return AxiomReport(identity_ok, partition_ok, transpose_ok, regular_ok, counterexamples)

    # -- parameters -------------------------------------------------------------

    def _compute_intersection_data(self):
        if self._pnums_done:
            return
        n = self.order
        c = self.classes
        tensor: list[list[list[int]] | None] = [None] * c
        pairs: list[tuple[int, int] | None] = [None] * c
        witness = None
        t = self.table
        for x in range(n):
            row_x = t[x]
            for y in range(n):
                h = row_x[y]
                counts = [[0] * c for _ in range(c)]
                for z in range(n):
                    counts[row_x[z]][t[z][y]] += 1
                if tensor[h] is None:
                    tensor[h] = counts
                    pairs[h] = (x, y)
                elif tensor[h] != counts and witness is None:
                    ref = tensor[h]
                    for i in range(c):
                        for j in range(c):
                            if counts[i][j] != ref[i][j]:
                                witness = (
                                    f"count of class-{i}/class-{j} paths is {ref[i][j]} "
                                    f"for pair {pairs[h]} but {counts[i][j]} for ({x},{y}), "
                                    f"both in relation {h}"
                                )
                                break
                        if witness:
                            break
        self._pnums = tensor
        self._pnum_witness = witness
        self._pnums_done = True

    def intersection_number(self, i: int, j: int, h: int) -> int:
        """|{z : (x,z) in R_i, (z,y) in R_j}| for any (x,y) in R_h.

        The full enumeration asserts independence of the chosen pair;
        an inconsistent table raises AxiomViolation.
        """
        if not (0 <= i < self.classes and 0 <= j < self.classes and 0 <= h < self.classes):
            raise ValueError("class index out of range")
        self._compute_intersection_data()
        if self._pnum_witness is not None:
            raise AxiomViolation(self._pnum_witness)
        grid = self._pnums[h]
        if grid is None:
            raise AxiomViolation(f"relation {h} is empty")
        return grid[i][j]

    def valencies(self) -> list[int]:
        if self._valencies is None:
            counts = [0] * self.classes
            for y in self.table[0]:
                counts[y] += 1
            for x in range(1, self.order):
                row_counts = [0] * self.classes
                for y in self.table[x]:
                    row_counts[y] += 1
                if row_counts != counts:
                    raise AxiomViolation(
                        f"neighborhood sizes differ between vertices 0 and {x}"
                    )
            self._valencies = counts
        return list(self._valencies)

    def valency(self, i: int) -> int:
        if not 0 <= i < self.classes:
            raise ValueError("class index out of range")
        return self.valencies()[i]

    def adjacency_matrix(self, i: int) -> ExactMatrix:
        if not 0 <= i < self.classes:
            raise ValueError("class index out of range")
        if i not in self._adjacency:
            mat = ExactMatrix.from_rows(
                [[1 if c == i else 0 for c in row] for row in self.table]
            )
            self._adjacency[i] = mat
        return self._adjacency[i]

    def is_commutative(self) -> bool:
        """Whether all adjacency matrices commute.

        A_i A_j = sum_h p^h_ij A_h, so A_i and A_j commute exactly when
        p^h_ij == p^h_ji for every nonempty relation h.  A table whose
        intersection numbers are not well defined raises AxiomViolation.
        """
        self._compute_intersection_data()
        if self._pnum_witness is not None:
            raise AxiomViolation(self._pnum_witness)
        return all(grid[i][j] == grid[j][i]
                   for grid in self._pnums if grid is not None
                   for i in range(self.classes) for j in range(i))

    def __repr__(self):
        return f"<Scheme order={self.order} classes={self.classes}>"


def save_scheme(scheme: Scheme, path) -> None:
    """Write the class table: first line ``order d``, then the table rows."""
    lines = [f"{scheme.order} {scheme.classes - 1}"]
    for row in scheme.table:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def load_scheme(path) -> Scheme:
    """Parse a class table file produced by :func:`save_scheme`."""
    with open(path, "r", encoding="ascii") as handle:
        tokens = handle.read().split()
    if len(tokens) < 2:
        raise ValueError("scheme file must start with 'order d'")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"scheme file contains a non-integer token: {exc}") from None
    order, d = values[0], values[1]
    if order < 1 or d < 0:
        raise ValueError("order must be >= 1 and d >= 0")
    body = values[2:]
    if len(body) != order * order:
        raise ValueError(
            f"expected {order * order} table entries, found {len(body)}"
        )
    if any(v < 0 or v > d for v in body):
        raise ValueError("table entries must lie in 0..d")
    table = [body[r * order:(r + 1) * order] for r in range(order)]
    return Scheme(table, classes=d + 1)
