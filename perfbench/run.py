"""wreathalg benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: the benchmark spawns one ``wreathalg`` CLI
invocation at a time, each in a fresh Python process (the package's
``lru_cache``s live for a process, as they do for a user), waits for it to
end, checks its verdict and only then starts the next.

``--trace 0`` spawns invocations until ``--seconds`` have passed (at least
one), with a few set-up probes (processes that stop once the scheme is
built) before each invocation and after the last, and reports the
end-to-end metrics, each the median over the run's processes:

  setup_s      spawn until the scheme is ready (interpreter start,
               ``import wreathalg``, ``wreath_of_cyclics``/``load_scheme``)
  verdict_s    scheme ready until the report is written and the exit status
               is known
  peak_rss_mb  the invocation's peak resident memory, its VmHWM at exit

Both times are wall seconds scaled to a reference host speed: each child
samples the host's speed while it runs (``child.SpeedSampler``), and a
phase's wall time, less the time spent sampling, is multiplied by the mean
speed sampled in it.  The wall times are kept in the run record too.

``--trace 1`` runs one untraced invocation, one under the span tracer of
``spans.py``, one process of layer probes and one invocation under
tracemalloc, and reports the per-layer metrics (``spans.LAYER_METRICS``
plus the tracer's overhead, the tracemalloc peak and the probes).  Spans
are kept as JSONL under ``.bench_out/traces/``, and a record of every run,
with the seed, the sha256 of the generated input and an environment stamp,
under ``.bench_out/runs/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts every process the run spawned; ``failed`` those that exited non-zero
or gave a wrong verdict (see ``workloads.verdict_failures``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 6
# A run stops starting invocations once this much time has gone, whatever
# --seconds says, and kills a process still running at RUN_DEADLINE_S, so
# that it ends within three minutes.
RUN_BUDGET_S = 120.0
RUN_DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"))
STARTED = time.monotonic()


def at_reference_speed(wall_s: float, speed: list[float]) -> float:
    """Wall seconds of a phase, less the time the child spent sampling the
    host's speed in it, at the reference speed of ``child.SpeedSampler``."""
    sampling_s, mean_speed = speed
    return (wall_s - sampling_s) * mean_speed


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


@dataclass
class Process:
    """One finished child process."""

    exit_code: int
    spawned: float
    ended: float
    sidecar: dict
    report: bytes | None
    stderr: str

    @property
    def setup_s(self) -> float | None:
        ready = self.sidecar.get("ready")
        return None if ready is None else at_reference_speed(ready - self.spawned, self.sidecar["speed"]["setup"])

    @property
    def verdict_s(self) -> float | None:
        ready = self.sidecar.get("ready")
        return None if ready is None else at_reference_speed(self.ended - ready, self.sidecar["speed"]["verdict"])

    @property
    def wall_verdict_s(self) -> float | None:
        ready = self.sidecar.get("ready")
        return None if ready is None else self.ended - ready

    @property
    def peak_rss_mb(self) -> float | None:
        return self.sidecar.get("peak_rss_mb")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    reference: bytes | None = None

    def check(self, workload: str, proc: Process, expect: dict, label: str) -> bool:
        """Count one CLI invocation, failed unless its verdict is right."""
        from workloads import verdict_failures

        reasons = verdict_failures(workload, proc.exit_code, proc.report, expect, self.reference)
        if proc.sidecar.get("ready") is None:
            reasons.append("the scheme was never built")
        if self.reference is None and proc.report is not None:
            self.reference = proc.report
        return self.count(proc, label, reasons)

    def count(self, proc: Process, label: str, reasons: list[str]) -> bool:
        self.attempted += 1
        if reasons:
            self.failed += 1
            tail = proc.stderr.strip().splitlines()[-3:]
            self.reasons.append(f"{label}: {'; '.join(reasons)}" + (f" [stderr: {' | '.join(tail)}]" if tail else ""))
        return not reasons


def spawn(work: Path, tag: str, mode: str, cli=(), spans: Path | None = None, run_id: str = "") -> Process:
    """Run ``child.py`` once and wait for it; kills it at the run's deadline."""
    sidecar = work / f"{tag}.sidecar.json"
    report = work / f"{tag}.report.json"
    errors = work / f"{tag}.stderr"
    argv = [sys.executable, str(CHILD), "--mode", mode, "--sidecar", str(sidecar)]
    if spans is not None:
        argv += ["--spans", str(spans), "--run-id", run_id]
    if cli:
        argv += ["--", *cli, "--out", str(report)]
    with open(errors, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timeout = max(RUN_DEADLINE_S - (spawned - STARTED), 1.0)
            finished, _, _ = select.select([pidfd], [], [], timeout)
            if not finished:
                proc.kill()
            proc.wait()
        except BaseException:
            # Interrupted: leave no child behind.
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        ended = time.monotonic()
    side = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return Process(
        exit_code=proc.returncode,
        spawned=spawned,
        ended=ended,
        sidecar=side,
        report=report.read_bytes() if report.exists() else None,
        stderr=errors.read_text(errors="replace"),
    )


def summarize(values) -> dict:
    """Median, quartiles and sample count, as statistics.quantiles gives them."""
    values = list(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def env_stamp() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def setup_probes(work: Path, inputs, tally: Tally, probes: list[Process]) -> None:
    for _ in range(SETUP_PROBES):
        i = len(probes)
        proc = spawn(work, f"setup{i}", "setup", inputs.argv)
        if tally.count(proc, f"set-up probe {i}", [] if proc.exit_code == 0 and proc.setup_s else ["no set-up"]):
            probes.append(proc)


def run_plain(workload: str, inputs, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    # A run of the oracle workload holds one invocation, so set-up probes add
    # the several set-up samples a steady median needs.  They go before every
    # invocation and after the last one, so that they sample the whole run
    # rather than its first second.
    probes: list[Process] = []
    invocations = []
    started = time.monotonic()
    while True:
        setup_probes(work, inputs, tally, probes)
        proc = spawn(work, f"run{len(invocations)}", "run", inputs.argv)
        tally.check(workload, proc, inputs.expect, f"invocation {len(invocations)}")
        invocations.append(proc)
        elapsed = time.monotonic() - started
        if elapsed >= seconds or elapsed + (proc.ended - proc.spawned) > RUN_BUDGET_S:
            break
    setup_probes(work, inputs, tally, probes)
    good = [p for p in invocations if p.verdict_s is not None]
    samples = {
        "probe_setup_s": [p.setup_s for p in probes],
        "invocation_setup_s": [p.setup_s for p in good],
        "verdict_s": [p.verdict_s for p in good],
        "wall_verdict_s": [p.wall_verdict_s for p in good],
        "peak_rss_mb": [p.peak_rss_mb for p in good],
    }
    setup = samples["probe_setup_s"] + samples["invocation_setup_s"]
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "verdict_s": statistics.median(samples["verdict_s"]) if good else 0.0,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]) if good else 0.0,
    }
    return metrics, samples


def run_traced(workload: str, inputs, seed: int, work: Path, tally: Tally) -> tuple[dict, dict]:
    from spans import read_jsonl, layer_metrics

    plain = spawn(work, "untraced", "run", inputs.argv)
    tally.check(workload, plain, inputs.expect, "untraced invocation")
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    jsonl = traces / f"{workload}-seed{seed}.jsonl"
    traced = spawn(work, "traced", "trace", inputs.argv, spans=jsonl, run_id=f"{workload}/seed{seed}/traced")
    tally.check(workload, traced, inputs.expect, "traced invocation")
    probe = spawn(work, "probe", "probe")
    tally.count(probe, "layer probes", [] if probe.exit_code == 0 else [f"exit code {probe.exit_code}"])
    mem = spawn(work, "mem", "mem", inputs.argv)
    tally.check(workload, mem, inputs.expect, "tracemalloc invocation")
    if tally.failed:
        return {}, {}
    spans, counts = read_jsonl(jsonl)
    metrics = layer_metrics(spans, counts, traced.sidecar["ready_perf"])
    metrics["mem.tracemalloc_peak_mb"] = mem.sidecar["tracemalloc_peak_mb"]
    metrics["trace.overhead_frac"] = traced.verdict_s / plain.verdict_s - 1
    for key in ("cyclotomic.mix10k_s", "linalg.matmul64_ms", "linalg.mateq64_ms"):
        metrics[key] = probe.sidecar[key]
    samples = {"untraced_verdict_s": [plain.verdict_s], "traced_verdict_s": [traced.verdict_s], "spans": [len(spans)]}
    return metrics, samples


def per_layer_units() -> dict[str, str]:
    from spans import LAYER_METRICS

    units = dict(LAYER_METRICS)
    units.update(
        {
            "mem.tracemalloc_peak_mb": "MB",
            "trace.overhead_frac": "ratio",
            "cyclotomic.mix10k_s": "s",
            "linalg.matmul64_ms": "ms",
            "linalg.mateq64_ms": "ms",
        }
    )
    return units


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, DIM_T

    parser = argparse.ArgumentParser(description="Run one wreathalg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(DIM_T))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if not (SRC / "wreathalg" / "__init__.py").is_file():
        raise BenchError(f"no wreathalg package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from workloads import make_inputs

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        stamp = env_stamp()
        stamp["loadavg_before"] = os.getloadavg()
        inputs = make_inputs(args.workload, args.seed, work)
        tally = Tally()
        if args.trace:
            metrics, samples = run_traced(args.workload, inputs, args.seed, work, tally)
            units = per_layer_units()
        else:
            metrics, samples = run_plain(args.workload, inputs, seconds, work, tally)
            units = dict(END_TO_END)
        stamp["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": inputs.input_sha256,
        "argv": inputs.argv,
        "seconds": seconds,
        "trace": args.trace,
        "env": stamp,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_reasons": tally.reasons,
        "samples": samples,
        "metrics": metrics,
    }
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} input sha256 {inputs.input_sha256}")
    print(f"env {json.dumps(stamp)}")
    print(f"fail_frac {tally.failed / max(tally.attempted, 1)} ({tally.failed} of {tally.attempted} processes)")
    for name, values in samples.items():
        s = summarize(values)
        print(f"{name}: median {s['median']} q1 {s['q1']} q3 {s['q3']} n {s['n']}")
    result = {
        "correct": tally.failed == 0 and len(metrics) == len(units),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
