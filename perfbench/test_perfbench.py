"""Tests of the benchmark itself: verdict checking (with negative controls),
seeded inputs, span analysis and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import Process, Tally  # noqa: E402
from spans import cli_check_seconds, layer_metrics, self_times  # noqa: E402
from workloads import make_inputs, relabelled_table, verdict_failures  # noqa: E402

NAME = "verify-2x3x4-one"
EXPECT = {"order": 24, "base_points": [5]}


def _report(**changes) -> bytes:
    report = {
        "moduli": [2, 3, 4],
        "order": 24,
        "base_points": [5],
        "dim_T": 60,
        "checks": [{"name": "axioms", "status": "pass", "millis": 0}],
    }
    report.update(changes)
    return (json.dumps(report, indent=2) + "\n").encode()


GOOD = _report()


def test_good_verdict_passes():
    assert verdict_failures(NAME, 0, GOOD, EXPECT, None) == []
    assert verdict_failures(NAME, 0, GOOD, EXPECT, GOOD) == []


@pytest.mark.parametrize(
    "exit_code, report, reference, reason",
    [
        (1, GOOD, None, "exit code 1"),
        (0, _report(checks=[{"name": "axioms", "status": "fail", "millis": 0}]), None, "'fail'"),
        (0, _report(dim_T=59), None, "dim_T 59"),
        (0, GOOD, _report(moduli=[2, 3, 4, 1]), "bytes differ"),
        (0, _report(base_points=[6]), None, "base_points"),
        (0, None, None, "no report"),
        (0, b"{", None, "not JSON"),
    ],
)
def test_negative_controls_fail(exit_code, report, reference, reason):
    reasons = verdict_failures(NAME, exit_code, report, EXPECT, reference)
    assert any(reason in r for r in reasons), reasons


def _process(exit_code=0, report=GOOD, ready=1.0):
    speed = {"setup": [0.0, 1.0], "verdict": [0.0, 1.0]}
    return Process(exit_code, 0.5, 3.0, {"ready": ready, "peak_rss_mb": 20.0, "speed": speed}, report, "")


def test_phases_are_scaled_to_the_reference_speed():
    from child import SPEED_REF_S, SpeedSampler

    sampler = SpeedSampler()
    sampler.samples = [(0.0, SPEED_REF_S), (1.0, 2 * SPEED_REF_S), (2.0, 4 * SPEED_REF_S)]
    speed = sampler.summary(ready=0.5)
    assert speed["setup"] == pytest.approx([SPEED_REF_S, 1.0])
    assert speed["verdict"] == pytest.approx([6 * SPEED_REF_S, 0.375])
    # A phase without samples is scaled by the whole process's speed.
    assert sampler.summary(ready=9.0)["verdict"] == pytest.approx([0.0, 7 / 12])
    assert sampler.summary(ready=None) == {}
    proc = Process(0, 0.5, 3.0, {"ready": 1.0, "speed": {"setup": [0.1, 2.0], "verdict": [0.5, 0.5]}}, GOOD, "")
    assert proc.setup_s == pytest.approx((0.5 - 0.1) * 2.0)
    assert proc.verdict_s == pytest.approx((2.0 - 0.5) * 0.5)
    assert proc.wall_verdict_s == pytest.approx(2.0)


def test_tally_feeds_fail_frac():
    tally = Tally()
    assert tally.check(NAME, _process(), EXPECT, "first")
    assert not tally.check(NAME, _process(exit_code=3), EXPECT, "crash")
    assert not tally.check(NAME, _process(report=_report(dim_T=1)), EXPECT, "wrong dim")
    assert not tally.check(NAME, _process(report=_report(order=25)), EXPECT, "changed")
    assert not tally.check(NAME, _process(ready=None), EXPECT, "no scheme")
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.reference == GOOD


def test_inputs_follow_the_seed(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = make_inputs("oracle-4x4x4-dim", 7, tmp_path / "a")
    b = make_inputs("oracle-4x4x4-dim", 7, tmp_path / "b")
    c = make_inputs("oracle-4x4x4-dim", 8, tmp_path / "c")
    assert a.input_sha256 == b.input_sha256 != c.input_sha256
    points = {make_inputs(NAME, seed, tmp_path).expect["base_points"][0] for seed in range(40)}
    assert len(points) > 1 and points <= set(range(24))
    assert make_inputs(NAME, 3, tmp_path).argv == make_inputs(NAME, 3, tmp_path).argv


def test_relabelling_is_an_isomorphism():
    from wreathalg import wreath_of_cyclics

    original = wreath_of_cyclics((2, 3))
    scheme, perm = relabelled_table((2, 3), 5)
    assert perm != sorted(perm)
    for a in range(original.order):
        for b in range(original.order):
            assert scheme.table[perm[a]][perm[b]] == original.table[a][b]
    assert scheme.verify_axioms().passed


def _span(i, name, start, end, parent, outcome=None):
    record = {"run": "t", "id": i, "name": name, "start": start, "end": end, "parent": parent}
    if outcome is not None:
        record["outcome"] = outcome
    return record


SPANS = [
    _span(0, "cli.main", 0.0, 10.0, -1),
    _span(1, "wreath.wreath_of_cyclics", 0.0, 1.0, 0),
    _span(2, "terwilliger.make_context", 1.0, 2.0, 0),
    _span(3, "structure.build_matrix_units", 2.0, 3.0, 0),
    _span(4, "structure.check_matrix_units", 3.0, 5.0, 0),
    _span(5, "linalg.matmul", 3.5, 4.0, 4),
    _span(6, "terwilliger.algebra_dimension", 5.0, 8.0, 0),
    _span(7, "linalg.product_closure", 5.0, 8.0, 6),
    _span(8, "linalg.span_insert", 5.0, 5.5, 7, 1),
    _span(9, "linalg.span_insert", 5.5, 6.0, 7, 0),
    _span(10, "linalg.span_insert", 6.0, 6.5, 7, 0),
    _span(11, "terwilliger.algebra_dimension", 8.0, 8.25, 0),
    _span(12, "structure.build_matrix_units", 9.0, 9.5, 0),
]


def test_self_times_subtract_children():
    own = self_times(SPANS)
    assert own[4] == pytest.approx(1.5)
    assert own[7] == pytest.approx(1.5)
    assert own[0] == pytest.approx(10.0 - 1 - 1 - 1 - 2 - 3 - 0.25 - 0.5)


def test_cli_checks_charge_builders_to_the_next_check():
    seconds = cli_check_seconds(SPANS, ready=1.0)
    # make_context and build_matrix_units are charged to matrix-units; the
    # set-up span and the trailing builder belong to no check.
    assert seconds["matrix-units"] == pytest.approx(4.0)
    assert seconds["dimension"] == pytest.approx(3.25)
    assert sum(seconds.values()) == pytest.approx(7.25)


def test_layer_metrics_from_spans():
    counts = {"cyclotomic.mul": 10, "cyclotomic.mul.rational": 4, "cyclotomic.add": 3, "cyclotomic.inv": 0}
    m = layer_metrics(SPANS, counts, ready=1.0)
    assert m["linalg.span_insert.calls"] == 3
    assert m["linalg.span_insert.accept_frac"] == pytest.approx(1 / 3)
    assert m["terwilliger.algebra_dimension.cache_hit_frac"] == pytest.approx(0.5)
    assert m["structure.build_matrix_units.calls"] == 2
    assert m["linalg.matmul.self_s"] == pytest.approx(0.5)
    assert m["cyclotomic.mul.rational_frac"] == pytest.approx(0.4)
    assert m["cyclotomic.inv.calls"] == 0
    assert m["structure.check_commutation.self_s"] == 0.0


def test_traced_child_sees_calls_through_every_binding(tmp_path):
    sidecar, spans, report = tmp_path / "side.json", tmp_path / "spans.jsonl", tmp_path / "r.json"
    argv = [sys.executable, str(HERE / "child.py"), "--mode", "trace", "--sidecar", str(sidecar),
            "--spans", str(spans), "--run-id", "t", "--",
            "verify", "--moduli", "2,3", "--checks", "matrix-units,decomposition", "--out", str(report)]
    subprocess.run(argv, check=True, timeout=120)
    from spans import read_jsonl

    side = json.loads(sidecar.read_text())
    assert side["exit_code"] == 0 and side["untraced_targets"] == []
    assert set(side["speed"]) == {"setup", "verdict"}
    records, counts = read_jsonl(spans)
    m = layer_metrics(records, counts, side["ready_perf"])
    # One build per base point in the CLI's check, one more in
    # decomposition_report (bound inside structure).
    assert m["structure.build_matrix_units.calls"] == 12
    # product_closure is bound into terwilliger by name.
    assert m["linalg.product_closure.calls"] >= 6
    assert m["cyclotomic.mul.calls"] > 0
    assert m["cli.check.matrix-units.s"] > 0 and m["cli.check.decomposition.s"] > 0
    assert json.loads(report.read_text())["dim_T"] == 18
