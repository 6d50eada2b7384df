"""In-memory span tracer installed around the public functions of wreathalg.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and, for calls with a countable
outcome, that outcome.  Spans stay in a list until the traced process ends
and are then written as JSONL; self times and per-layer metrics are
computed from that file by :func:`layer_metrics`.

``CycloNum`` arithmetic is far too fine-grained for spans (millions of
calls), so it only gets counters.

Callers bind names at import time (``from .linalg import product_closure``),
so a wrapped function replaces every binding of the original object in
every loaded ``wreathalg`` module, not only the one in its defining module.
Operators are patched on the class, because Python looks them up on the
type.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, defining module, attribute path).  The name's first part is
# the layer; the metrics below aggregate spans by name.
SPAN_TARGETS = (
    ("linalg.matmul", "wreathalg.linalg", "ExactMatrix.__mul__"),
    ("linalg.mateq", "wreathalg.linalg", "ExactMatrix.__eq__"),
    ("linalg.scaled", "wreathalg.linalg", "ExactMatrix.scaled"),
    ("linalg.span_contains", "wreathalg.linalg", "ExactSpan.contains"),
    ("linalg.span_insert", "wreathalg.linalg", "ExactSpan.insert"),
    ("linalg.product_closure", "wreathalg.linalg", "product_closure"),
    ("scheme.verify_axioms", "wreathalg.scheme", "Scheme.verify_axioms"),
    ("scheme.is_commutative", "wreathalg.scheme", "Scheme.is_commutative"),
    ("scheme.adjacency_matrix", "wreathalg.scheme", "Scheme.adjacency_matrix"),
    ("wreath.wreath_of_cyclics", "wreathalg.wreath", "wreath_of_cyclics"),
    ("wreath.check_vanishing_criterion", "wreathalg.wreath", "check_vanishing_criterion"),
    ("terwilliger.make_context", "wreathalg.terwilliger", "make_context"),
    ("terwilliger.triple_product", "wreathalg.terwilliger", "triple_product"),
    ("terwilliger.t0_span", "wreathalg.terwilliger", "t0_span"),
    ("terwilliger.algebra_dimension", "wreathalg.terwilliger", "algebra_dimension"),
    ("terwilliger.check_triply_regular", "wreathalg.terwilliger", "check_triply_regular"),
    ("terwilliger.check_triple_list", "wreathalg.terwilliger", "check_triple_list"),
    ("terwilliger.check_primary_module", "wreathalg.terwilliger", "check_primary_module"),
    ("structure.build_matrix_units", "wreathalg.structure", "build_matrix_units"),
    ("structure.build_central_idempotents", "wreathalg.structure", "build_central_idempotents"),
    ("structure.check_matrix_units", "wreathalg.structure", "check_matrix_units"),
    ("structure.check_adjacency_action", "wreathalg.structure", "check_adjacency_action"),
    ("structure.check_central_idempotents", "wreathalg.structure", "check_central_idempotents"),
    ("structure.check_commutation", "wreathalg.structure", "check_commutation"),
    ("structure.check_block_form", "wreathalg.structure", "check_block_form"),
    ("structure.decomposition_report", "wreathalg.structure", "decomposition_report"),
)

# Span names whose result is a countable outcome (True counts as 1).
OUTCOME_SPANS = frozenset({"linalg.span_insert"})

ROOT_SPAN = "cli.main"

# Which named CLI check a span directly under ``cli.main`` belongs to.  The
# CLI builds shared artifacts (contexts, matrix units, idempotents) just
# before the check that consumes them, so any other direct child of the
# root is charged to the next check span; spans that end before the scheme
# is ready are set-up and belong to no check.
CLI_CHECK_OF = {
    "scheme.verify_axioms": "axioms",
    "wreath.check_vanishing_criterion": "vanishing",
    "terwilliger.check_triple_list": "triple-list",
    "terwilliger.check_triply_regular": "triply-regular",
    "terwilliger.check_primary_module": "primary-module",
    "structure.check_block_form": "block-form",
    "structure.check_matrix_units": "matrix-units",
    "structure.check_adjacency_action": "ag-forms",
    "structure.check_commutation": "commutation",
    "structure.check_central_idempotents": "f-family",
    "structure.decomposition_report": "decomposition",
    "terwilliger.algebra_dimension": "dimension",
}
CLI_CHECKS = tuple(CLI_CHECK_OF.values())

# Per-layer metrics reported by the traced pass: (metric, unit).
CALLS = "count"
SECONDS = "s"
RATIO = "ratio"
LAYER_METRICS = (
    ("cyclotomic.mul.calls", CALLS),
    ("cyclotomic.add.calls", CALLS),
    ("cyclotomic.inv.calls", CALLS),
    ("cyclotomic.mul.rational_frac", RATIO),
    ("linalg.matmul.calls", CALLS),
    ("linalg.matmul.self_s", SECONDS),
    ("linalg.mateq.calls", CALLS),
    ("linalg.mateq.self_s", SECONDS),
    ("linalg.scaled.calls", CALLS),
    ("linalg.scaled.self_s", SECONDS),
    ("linalg.span_contains.calls", CALLS),
    ("linalg.span_contains.self_s", SECONDS),
    ("linalg.span_insert.calls", CALLS),
    ("linalg.span_insert.self_s", SECONDS),
    ("linalg.span_insert.accept_frac", RATIO),
    ("linalg.product_closure.calls", CALLS),
    ("linalg.product_closure.self_s", SECONDS),
    ("scheme.verify_axioms.calls", CALLS),
    ("scheme.verify_axioms.self_s", SECONDS),
    ("scheme.is_commutative.self_s", SECONDS),
    ("scheme.adjacency_matrix.calls", CALLS),
    ("wreath.wreath_of_cyclics.self_s", SECONDS),
    ("wreath.check_vanishing_criterion.self_s", SECONDS),
    ("terwilliger.make_context.calls", CALLS),
    ("terwilliger.triple_product.calls", CALLS),
    ("terwilliger.t0_span.calls", CALLS),
    ("terwilliger.t0_span.self_s", SECONDS),
    ("terwilliger.algebra_dimension.calls", CALLS),
    ("terwilliger.algebra_dimension.cache_hit_frac", RATIO),
    ("terwilliger.check_triply_regular.self_s", SECONDS),
    ("terwilliger.check_triple_list.self_s", SECONDS),
    ("terwilliger.check_primary_module.self_s", SECONDS),
    ("structure.build_matrix_units.calls", CALLS),
    ("structure.build_matrix_units.self_s", SECONDS),
    ("structure.build_central_idempotents.calls", CALLS),
    ("structure.build_central_idempotents.self_s", SECONDS),
    ("structure.check_matrix_units.self_s", SECONDS),
    ("structure.check_adjacency_action.self_s", SECONDS),
    ("structure.check_central_idempotents.self_s", SECONDS),
    ("structure.check_commutation.self_s", SECONDS),
    ("structure.check_block_form.self_s", SECONDS),
    ("structure.decomposition_report.self_s", SECONDS),
) + tuple((f"cli.check.{name}.s", SECONDS) for name in CLI_CHECKS)


class Tracer:
    """Span and counter recorder for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # Each span is [name, start, end, parent index, outcome]; the root
        # has parent -1.
        self.spans: list[list] = []
        self._stack: list[int] = []
        # mul, mul with both operands rational, add, inv
        self.counts = [0, 0, 0, 0]
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        with_outcome = name in OUTCOME_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if with_outcome:
                span[4] = 1 if result else 0
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the already-imported wreathalg package."""
        for name, module_name, path in SPAN_TARGETS:
            owner, attr = _resolve(module_name, path)
            if owner is None:
                self.missing.append(name)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                rebind(original, wrapped)
        self._install_counters()
        if self.missing:
            print(f"perfbench: no such target, not traced: {', '.join(self.missing)}", file=sys.stderr)

    def _install_counters(self) -> None:
        from wreathalg.cyclotomic import CycloNum

        counts = self.counts

        def rational(value) -> bool:
            return not isinstance(value, CycloNum) or value.conductor == 1 or value.is_rational()

        def counted(fn, slot: int, rational_slot: int | None):
            def wrapper(self, *args):
                counts[slot] += 1
                if rational_slot is not None and rational(self) and rational(args[0]):
                    counts[rational_slot] += 1
                return fn(self, *args)

            return wrapper

        for attr, slot, rational_slot in (
            ("__mul__", 0, 1),
            ("__rmul__", 0, 1),
            ("__add__", 2, None),
            ("__radd__", 2, None),
            ("inv", 3, None),
        ):
            setattr(CycloNum, attr, counted(getattr(CycloNum, attr), slot, rational_slot))

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One line per span, then one line with the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, outcome) in enumerate(self.spans):
                record = {
                    "run": self.run_id,
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if outcome is not None:
                    record["outcome"] = outcome
                handle.write(json.dumps(record) + "\n")
            mul, mul_rational, add, inv = self.counts
            handle.write(
                json.dumps(
                    {
                        "run": self.run_id,
                        "counts": {
                            "cyclotomic.mul": mul,
                            "cyclotomic.mul.rational": mul_rational,
                            "cyclotomic.add": add,
                            "cyclotomic.inv": inv,
                        },
                    }
                )
                + "\n"
            )


def _resolve(module_name: str, path: str):
    module = sys.modules.get(module_name)
    if module is None:
        return None, None
    *owners, attr = path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr


def rebind(original, replacement) -> int:
    """Point every module-level binding of ``original`` in the loaded
    wreathalg modules at ``replacement``; returns the number rebound."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "wreathalg" or module_name.startswith("wreathalg.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                count += 1
    return count


# -- analysis -------------------------------------------------------------------


def read_jsonl(path):
    """Returns (spans, counts) from a file written by :meth:`Tracer.write_jsonl`."""
    spans = []
    counts = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "counts" in record:
                counts = record["counts"]
            else:
                spans.append(record)
    return spans, counts


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    The traced program is single-threaded, so sibling spans never overlap
    and their durations add up to the part of the parent they cover.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def cli_check_seconds(spans, ready: float) -> dict[str, float]:
    """Seconds per named CLI check, from the direct children of the root."""
    totals = {name: 0.0 for name in CLI_CHECKS}
    roots = {s["id"] for s in spans if s["name"] == ROOT_SPAN}
    pending = 0.0
    for s in spans:
        if s["parent"] not in roots or s["end"] <= ready:
            continue
        duration = s["end"] - s["start"]
        check = CLI_CHECK_OF.get(s["name"])
        if check is None:
            pending += duration
        else:
            totals[check] += duration + pending
            pending = 0.0
    return totals


def layer_metrics(spans, counts, ready: float) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced invocation."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    outcomes: dict[str, int] = {}
    for s, t in zip(spans, own):
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        if "outcome" in s:
            outcomes[name] = outcomes.get(name, 0) + s["outcome"]

    # An algebra_dimension call with no product_closure below it was served
    # from the per-scheme cache.
    closes = set()
    for s in spans:
        if s["name"] == "linalg.product_closure":
            parent = s["parent"]
            while parent >= 0:
                closes.add(parent)
                parent = spans[parent]["parent"]
    dim_calls = [s["id"] for s in spans if s["name"] == "terwilliger.algebra_dimension"]
    dim_hits = sum(1 for i in dim_calls if i not in closes)

    def ratio(num, den):
        return num / den if den else 0.0

    values: dict[str, float] = {
        "cyclotomic.mul.calls": counts.get("cyclotomic.mul", 0),
        "cyclotomic.add.calls": counts.get("cyclotomic.add", 0),
        "cyclotomic.inv.calls": counts.get("cyclotomic.inv", 0),
        "cyclotomic.mul.rational_frac": ratio(
            counts.get("cyclotomic.mul.rational", 0), counts.get("cyclotomic.mul", 0)
        ),
        "linalg.span_insert.accept_frac": ratio(
            outcomes.get("linalg.span_insert", 0), calls.get("linalg.span_insert", 0)
        ),
        "terwilliger.algebra_dimension.cache_hit_frac": ratio(dim_hits, len(dim_calls)),
    }
    for check, seconds in cli_check_seconds(spans, ready).items():
        values[f"cli.check.{check}.s"] = seconds
    for metric, _unit in LAYER_METRICS:
        if metric in values:
            continue
        name, _, kind = metric.rpartition(".")
        values[metric] = calls.get(name, 0) if kind == "calls" else self_s.get(name, 0.0)
    return values
