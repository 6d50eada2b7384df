"""The per-point check runner, the base points it runs at, and the report.

Every per-point check takes a ``BasePoint``: its spheres S_i, which stand
for the dual idempotents E*_i, and its pieces E*_i A_j E*_h.  A product
with E*_i selects the rows or columns in S_i, so it is a read of the
pieces or holds by construction.

This module and :mod:`wreathalg.terwilliger` are the generic path, the one
``oracle`` runs: the points, their block closure, the triple-regularity
sweep and the dimension.  The checks stated for a wreath of cyclics, and
the artifacts only they read (the sums of the pieces, the unit family and
the idempotent family), are in :mod:`wreathalg.decomposition`; the
registry and ``BasePoint`` look them up there at call time, so a run that
names none of them never compiles that module.

``run_point_checks`` is the one runner, and the one clock, of every check;
``DecompReport.to_dict`` is the one report header.
"""

from __future__ import annotations

import time
from functools import cached_property

from .linalg import ExactMatrix, ExactSpan
from .scheme import AxiomViolation, CheckResult, Record, Scheme
from .terwilliger import _closure, _spheres, check_triply_regular, starting_pieces

__all__ = [
    "StructureError",
    "ModuliRequired",
    "BasePoint",
    "DecompReport",
    "run_point_checks",
]


class StructureError(RuntimeError):
    """A constructed family violates its asserted shape."""


class ModuliRequired(ValueError):
    """A check stated for a wreath of cyclics ran at a point without moduli."""


def _explicit():
    """:mod:`wreathalg.decomposition`, where every check stated for a wreath
    of cyclics is looked up at call time.  ``verify`` imports it before it
    builds its scheme, so there this is a lookup; a run that reaches none of
    those checks never imports it."""
    from . import decomposition

    return decomposition


# -- the decomposition report -----------------------------------------------------------------


class DecompReport(Record):
    """The verdicts of one run and the header they are reported under.

    ``moduli`` is None for an ingested table, which has no formula: the
    formula fields derived from the moduli are then None too.
    """

    __slots__ = _fields = ("moduli", "order", "num_classes", "base_points", "dim_T", "checks")

    def __init__(self, moduli: tuple[int, ...] | None, order: int, num_classes: int,
                 base_points: list[int], dim_T: int | None,
                 checks: list[CheckResult] | None = None):
        self.moduli = moduli
        self.order = order
        self.num_classes = num_classes
        self.base_points = base_points
        self.dim_T = dim_T
        self.checks = [] if checks is None else checks

    @property
    def dim_formula(self) -> int | None:
        return None if self.moduli is None else _explicit().dimension_formula(self.moduli)

    @property
    def matrix_block(self) -> int | None:
        return None if self.moduli is None else _explicit().matrix_block_size(self.moduli)

    @property
    def one_dim_count(self) -> int | None:
        return None if self.moduli is None else _explicit().one_dim_ideal_count(self.moduli)

    @property
    def passed(self) -> bool:
        """Every check passed; the ``dimension`` check fails wherever dim T
        differs from the formula."""
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "moduli": None if self.moduli is None else list(self.moduli),
            "order": self.order,
            "num_classes": self.num_classes,
            "base_points": list(self.base_points),
            "dim_T": self.dim_T,
            "dim_formula": self.dim_formula,
            "matrix_block": self.matrix_block,
            "one_dim_count": self.one_dim_count,
            "checks": [check.to_dict() for check in self.checks],
        }

    def as_check(self) -> CheckResult:
        """The whole report as one ``decomposition`` verdict, with the witness
        of the first failing sub-check."""
        witness = next((c.witness for c in self.checks if not c.passed), None)
        return CheckResult(
            "decomposition", self.passed, witness, sum(c.checked for c in self.checks)
        )


# -- the per-base-point check pipeline ---------------------------------------------------------


def _merge(old: CheckResult | None, new: CheckResult) -> CheckResult:
    """Fold one more pass of a check: it passes if both do, and keeps the
    witness of the first failing pass, else the latest witness."""
    if old is None:
        return new
    return CheckResult(
        new.name,
        old.passed and new.passed,
        new.witness if old.passed else old.witness,
        old.checked + new.checked,
    )


def _built(build, point: BasePoint):
    """The family ``build(point)``, or the StructureError by which the point
    refuses it, so that a refusal is kept as a family is."""
    try:
        return build(point)
    except StructureError as exc:
        return exc


def _family(built):
    """A family kept by ``_built``; raises the point's refusal."""
    if isinstance(built, StructureError):
        raise built
    return built


class BasePoint:
    """One base point's artifacts, each built at most once on first use and
    owned by the point alone, and the result of each registered check there:
    the one input of every per-point check.

    E*_i is the sphere S_i (``spheres``), and each nonzero E*_i A_j E*_h is
    its 0/1 piece (``pieces``, keyed (i, j, h)), which the closure starts
    from too, and its row sum and column sum, each None where it is not
    constant (``sums``).  The unit and
    idempotent families are built once, and so is a refusal of either: a
    point that refuses a family raises the same StructureError on each read.

    ``moduli`` is None for an ingested table.  ``seen`` is shared by all
    points of one run: the oracle dimensions under ``"dims"``, in the order
    the ``dimension`` check ran; under ``"translation-certificate"`` the
    run's certificate, None where the table has none over ``moduli``; and
    under ``"sweep"`` the triple-regularity sweep's result with whether the
    span cross-check applies.
    """

    def __init__(self, scheme: Scheme, moduli: tuple[int, ...] | None, x: int, seen: dict):
        self.scheme = scheme
        self.moduli = moduli
        self.x = x
        self.seen = seen
        self.results: dict[str, CheckResult] = {}

    @cached_property
    def spheres(self) -> list[list[int]]:
        return _spheres(self.scheme, self.x)

    @cached_property
    def pieces(self) -> dict[tuple[int, int, int], ExactMatrix]:
        return starting_pieces(self.scheme, self.x)

    @cached_property
    def sums(self) -> list[dict[tuple[int, int], tuple[int | None, int | None]]]:
        return _explicit().piece_sums(self.pieces, self.scheme.classes)

    @cached_property
    def closure(self) -> dict[tuple[int, int], ExactSpan]:
        """The algebra the oracle measures, one span per sphere block, closed
        from the pieces."""
        return _closure(self.scheme, self.pieces)

    @cached_property
    def dim(self) -> int:
        return sum(span.dimension for span in self.closure.values())

    @cached_property
    def _units(self):
        return _built(_explicit().build_matrix_units, self)

    @property
    def units(self):
        """The unit family; raises the point's StructureError if it cannot be built."""
        return _family(self._units)

    @cached_property
    def _idempotents(self):
        return _built(_explicit().build_central_idempotents, self)

    @property
    def idempotents(self):
        """The idempotent family the point's digit read certified; raises the
        read's StructureError where the table refuses it."""
        return _family(self._idempotents)

    def result(self, name: str) -> CheckResult:
        """The registered check ``name`` at this point; a unit family that
        cannot be built fails it with the construction's message, a
        scheme parameter that is not well defined (a valency that differs
        between vertices) with the scheme's witness, and a check stated for
        a wreath of cyclics, at a point without moduli, with that witness."""
        if name not in self.results:
            try:
                self.results[name] = POINT_CHECKS[name](self)
            except (StructureError, AxiomViolation, ModuliRequired) as exc:
                self.results[name] = CheckResult(name, False, str(exc))
        return self.results[name]


def _triply_regular(point: BasePoint) -> CheckResult:
    # One sweep serves the run, and the point that runs it counts its
    # tuples, from x = 0 alone under a passed certificate (run_point_checks
    # says why).  Where the sweep passed on a commutative scheme, each point
    # cross-checks it: the count of its pieces, dim T_0, must equal the
    # closure's dimension there (Terwilliger 1992).  A failed sweep fixes the verdict
    # and the witness, so it needs no closure.
    scheme, checked, seen = point.scheme, 0, point.seen
    if "sweep" not in seen:
        # Under an explicit list the sweep forms the certificate, unreported.
        certificate = _certificate(scheme, point.moduli, seen)
        sweep = check_triply_regular(scheme, (0,) if certificate and certificate.passed else None)
        seen["sweep"] = sweep, sweep.passed and _commutative(scheme)
        checked = sweep.checked
    sweep, applies = seen["sweep"]
    if not applies:
        return CheckResult(sweep.name, sweep.passed, sweep.witness, checked)
    agrees = len(point.pieces) == point.dim
    witness = None if agrees else "span-equality cross-check disagrees with the sweep"
    return CheckResult(sweep.name, agrees, witness, checked)


def _certificate(scheme: Scheme, moduli, seen: dict) -> CheckResult | None:
    """The run's translation certificate, formed once and kept in ``seen``:
    None without moduli or where the table has no vertex encoding over
    them."""
    if "translation-certificate" not in seen:
        seen["translation-certificate"] = None
        if moduli is not None:
            try:
                seen["translation-certificate"] = _explicit().check_translation_certificate(
                    scheme, moduli
                )
            except ValueError:
                pass
    return seen["translation-certificate"]


def _commutative(scheme: Scheme) -> bool:
    """Whether the table is a commutative scheme: the axioms hold and the
    A_i commute."""
    return scheme.verify_axioms().passed and scheme.is_commutative()


def _dimension(point: BasePoint) -> CheckResult:
    dims = point.seen.setdefault("dims", [])
    dims.append(point.dim)
    if point.moduli is None:
        # A table may give different algebras at different base points, so
        # a varying dimension is reported, not failed.
        witness = f"dimension varies over base points: {dims}" if len(set(dims)) > 1 else None
        return CheckResult("dimension", True, witness, 1)
    formula = _explicit().dimension_formula(point.moduli)
    ok = point.dim == formula and point.dim == dims[0]
    witness = None if ok else f"x={point.x}: oracle dimension {point.dim}, formula {formula}"
    return CheckResult("dimension", ok, witness, 1)


# Every check that runs at one base point, as a function of that point's
# artifacts.  The entries look the public check_*/build_* functions up by
# module-level name at call time, those stated for a wreath of cyclics in
# wreathalg.decomposition, so rebinding those names (as a tracer does)
# reaches the pipeline.
POINT_CHECKS = {
    "triple-list": lambda point: _explicit().check_triple_list(point),
    "triply-regular": _triply_regular,
    "primary-module": lambda point: _explicit().check_primary_module(point),
    "block-form": lambda point: _explicit()._block_form(point),
    "matrix-units": lambda point: _explicit().check_matrix_units(point.units),
    "ag-forms": lambda point: _explicit().check_adjacency_action(point, point.units),
    "commutation": lambda point: _explicit().check_commutation(point),
    # units first: a point whose units cannot be built needs no idempotents
    "f-family": lambda point: _explicit().check_central_idempotents(point, point.units),
    "dimension": _dimension,
    "unit-support": lambda point: _explicit()._unit_support(point),
    "unit-rank": lambda point: _explicit()._unit_rank(point),
    "unit-ideal": lambda point: _explicit()._unit_ideal(point),
    "quotient-commutes": lambda point: _explicit()._quotient_commutes(point),
    "span-accounting": lambda point: _explicit()._span_accounting(point),
}

# The checks that look at the whole scheme rather than one base point, as a
# function of the scheme and its moduli, looked up by name as above.
SCHEME_CHECKS = {
    "axioms": lambda scheme, moduli: scheme.verify_axioms(),
    "vanishing": lambda scheme, moduli: _explicit().check_vanishing_criterion(scheme, moduli),
}

# The decomposition's sub-checks, in report order.  Where unit-support fails,
# the sub-checks after it are skipped at that point.
DECOMPOSITION = (
    "dimension",
    "unit-support",
    "unit-rank",
    "matrix-units",
    "ag-forms",
    "unit-ideal",
    "quotient-commutes",
    "f-family",
    "span-accounting",
)


def run_point_checks(scheme: Scheme, moduli, base_points, names):
    """Run and time the checks ``names``: those of ``SCHEME_CHECKS`` once,
    the others (``POINT_CHECKS`` and ``decomposition``) one base point at a
    time.  ``moduli`` is None for an ingested table.  Each point's artifacts
    and results are built once, shared by every requested name, and dropped
    before the next point.  A check stops at its first failing point; the
    decomposition runs at every point, after the checks, so work they share
    is timed under the check.

    ``base_points=None`` means every vertex; an empty list raises
    ValueError, as no check can pass on no point.  With moduli and a per-point
    check, ``check_translation_certificate`` runs before them and is
    reported; where it passes, a table automorphism maps 0 to every vertex,
    so every check at x is the conjugate of the same check at 0.  The checks
    then run at x = 0 alone: each result, its ``checked`` count included, is
    that of one point and stands for every vertex.  Where it fails, every
    point is computed.  An explicit list, or a table with no vertex encoding
    over the moduli, computes every point and reports no certificate.

    The triple-regularity sweep reads that certificate; under an explicit
    list with moduli it computes it once, unreported and timed under
    ``triply-regular``.  Where it passed, the sweep fixes x = 0: n^2 tuples
    in place of n^3, with the full sweep's verdict and witness.  The full
    sweep visits x = 0 first, with the same buckets, so if it fails there,
    the sweep from 0 fails at the same tuple, with the same witness and
    ``checked``.  If every tuple at 0 agrees with the first of its pair
    pattern, the translation taking x to 0 maps each tuple (x, y, z) to one
    at 0 with the same pattern and the same counts, so the full sweep passes
    too.  Only a passing ``checked`` differs, and no report prints it.
    Without moduli, or where the certificate fails or the table has no
    vertex encoding over the moduli, the sweep visits every x.

    Returns each name's result folded over the points, in the order of
    ``names`` and then the certificate's, if reported; the run's ``seen``
    values (plus the decomposition's report under ``"decomposition"``, if
    requested); and the wall time in seconds of each result.
    """
    results: dict[str, CheckResult | None] = dict.fromkeys(names)
    per_point = [name for name in results if name not in SCHEME_CHECKS]
    per_point.sort(key=lambda name: name == "decomposition")
    points = list(range(scheme.order) if base_points is None else base_points)
    if not points:
        raise ValueError("at least one base point is required")
    group: dict[str, CheckResult] = {}
    seconds: dict[str, float] = {}
    seen: dict = {}

    def timed(name, check, *args):
        started = time.perf_counter()
        result = check(*args)
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - started
        return result

    def step(point, name):
        if name == "decomposition":
            for sub in DECOMPOSITION:
                result = point.result(sub)
                group[sub] = _merge(group.get(sub), result)
                if sub == "unit-support" and not result.passed:
                    break
        elif results[name] is None or results[name].passed:
            results[name] = _merge(results[name], point.result(name))

    for name in results:
        if name in SCHEME_CHECKS:
            results[name] = timed(name, SCHEME_CHECKS[name], scheme, moduli)
    certificate = None
    if base_points is None and moduli is not None and per_point:
        certificate = timed("translation-certificate", _certificate, scheme, moduli, seen)
    for x in [0] if certificate and certificate.passed else points:
        point = BasePoint(scheme, moduli, x, seen)
        for name in per_point:
            timed(name, step, point, name)
    if "decomposition" in per_point:
        report = seen["decomposition"] = DecompReport(
            moduli, scheme.order, scheme.classes, points, seen.get("dims", [None])[0],
            [group[name] for name in DECOMPOSITION if name in group],
        )
        results["decomposition"] = report.as_check()
    if certificate is not None:
        results[certificate.name] = certificate
    else:
        seconds.pop("translation-certificate", None)
    return results, seen, seconds
