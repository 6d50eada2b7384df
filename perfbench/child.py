"""One benchmark process: a wreathalg CLI invocation, a set-up probe, or the
layer probes.

    python3 perfbench/child.py --mode run|setup|trace|mem --sidecar PATH [--spans PATH]
        [--run-id ID] -- <wreathalg CLI arguments>
    python3 perfbench/child.py --mode probe --sidecar PATH

The CLI runs in this process through ``wreathalg.cli.main``, exactly as the
``wreathalg`` console script runs it, using the package under ``src/`` of
the checkout that holds this file.  The first return of
``wreath_of_cyclics`` or ``load_scheme`` marks the scheme as ready; its
``time.monotonic()`` value (a system-wide clock on Linux, so the parent can
subtract its own spawn time from it) goes into the sidecar JSON, with the
host speed sampled before and after that mark (``SpeedSampler``).

Modes:
  run    the plain CLI; only the ready hook and the speed sampler are added.
  setup  stops right after the scheme is ready (set-up time probe).
  trace  adds the span tracer; spans go to ``--spans``.
  mem    runs under tracemalloc and records its peak.  This is its own
         process because tracemalloc slows the CLI three- to fourfold and
         unevenly across layers, which would distort the spans' self times.
  probe  times single layers through public functions; no CLI.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
import time
from fractions import Fraction

# Only what the plain CLI needs is imported up front, so that set-up time and
# peak memory hold as little of the benchmark's own work as possible; each
# mode imports its extra tools itself.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Layer probe parameters.  The cyclotomic mix is the one of the 10k-triple
# acceptance test (criterion 11a): it is the only workload that reaches
# conductors 5, 8 and 12.
MIX_SEED = 0xC1C10
MIX_CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)
MIX_TRIPLES = 10_000
ORDER64_MODULI = (4, 4, 4)
ORDER64_REPEATS = 5

# Host speed sampler.  A shared 2-vCPU KVM guest (Xeon, 2.1 GHz) runs the
# same code up to 1.9 times slower for seconds to minutes at a time, so wall
# times alone spread by a third from run to run.  Every SPEED_INTERVAL_S the
# process times a fixed loop of SPEED_LOOP Fraction sums, the arithmetic the
# CLI spends its time in; SPEED_REF_S over that time is the host's speed at
# that moment.  On that guest the loop takes SPEED_REF_S in its fast phases,
# and scaling by it cut the quartile spread of matrix and CycloNum work over
# 5 s windows from 21% to 3%.
SPEED_INTERVAL_S = 0.02
SPEED_LOOP = 60
SPEED_REF_S = 0.00013


class SetupDone(BaseException):
    """Raised by the ready hook in set-up mode; not an Exception, so the
    CLI's own error handler lets it through."""


class SpeedSampler:
    """Times the fixed loop once now and then on every SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)

    def sample(self, *_signal) -> None:
        started = time.perf_counter()
        total = Fraction(0)
        for i in range(1, SPEED_LOOP + 1):
            total += Fraction(i, i + 3)
        self.samples.append((started, time.perf_counter() - started))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def summary(self, ready: float | None) -> dict:
        """[seconds spent sampling, mean speed] of the set-up phase (before
        the ``ready`` perf_counter value) and of the verdict phase.  A phase
        without samples, such as a verdict that ended at once, takes the
        mean speed of the whole process."""
        if ready is None:
            return {}
        phases = {
            "setup": [s for s in self.samples if s[0] < ready],
            "verdict": [s for s in self.samples if s[0] >= ready],
        }
        return {
            phase: [sum(d for _, d in samples), _mean_speed(samples or self.samples)]
            for phase, samples in phases.items()
        }


def _mean_speed(samples) -> float:
    return sum(SPEED_REF_S / d for _, d in samples) / len(samples)


def install_ready_hook(stop_when_ready: bool) -> dict:
    """Wrap the scheme constructors the CLI uses, wherever a wreathalg
    module binds them; returns the dict that receives the ready timestamps."""
    import wreathalg.scheme
    import wreathalg.wreath

    marks: dict = {}
    for module, name in ((wreathalg.wreath, "wreath_of_cyclics"), (wreathalg.scheme, "load_scheme")):
        original = getattr(module, name)

        @functools.wraps(original)
        def hooked(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            if "ready" not in marks:
                marks["ready"] = time.monotonic()
                marks["ready_perf"] = time.perf_counter()
                if stop_when_ready:
                    raise SetupDone
            return result

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "wreathalg":
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = hooked
    return marks


def peak_rss_mb() -> float:
    """This process's resident high-water mark.  Not its ``ru_maxrss``:
    Linux carries the spawning parent's resident size into that across
    exec, so it would read the benchmark's memory whenever that is larger."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(args) -> dict:
    speed = SpeedSampler()
    speed.start()
    tracer = None
    if args.mode == "mem":
        import tracemalloc

        tracemalloc.start()
    import wreathalg.cli

    if args.mode == "trace":
        from spans import ROOT_SPAN, Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    marks = install_ready_hook(stop_when_ready=args.mode == "setup")
    main = wreathalg.cli.main
    if tracer is not None:
        main = tracer.wrap(ROOT_SPAN, main)
    try:
        code = main(args.cli)
    except SetupDone:
        code = 0
    speed.stop()
    sidecar = {
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb(),
        "speed": speed.summary(marks.get("ready_perf")),
        **marks,
    }
    if args.mode == "mem":
        sidecar["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if tracer is not None:
        tracer.write_jsonl(args.spans)
        sidecar["untraced_targets"] = tracer.missing
    return sidecar


def probe_cyclotomic_mix() -> float:
    """Seconds for the 10k-triple field-axiom mix; raises if an axiom fails."""
    import random
    from fractions import Fraction

    from wreathalg import ZERO, euler_phi, zeta

    def random_cyclo(rng, conductor):
        value = ZERO
        for k in range(euler_phi(conductor)):
            value = value + zeta(conductor, k) * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        return value

    rng = random.Random(MIX_SEED)
    started = time.perf_counter()
    ok = True
    for _ in range(MIX_TRIPLES):
        n = rng.choice(MIX_CONDUCTORS)
        a = random_cyclo(rng, n)
        b = random_cyclo(rng, n)
        c = random_cyclo(rng, rng.choice(MIX_CONDUCTORS))
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and (a + (-a)).is_zero()
        if not a.is_zero():
            ok = ok and (a * a.inv()).is_one()
        if not ok:
            raise AssertionError("cyclotomic mix: a field axiom failed")
    return time.perf_counter() - started


def probe_order64() -> tuple[float, float]:
    """Median milliseconds of an order-64 adjacency product and of an
    equality test between two equal order-64 products."""
    import statistics

    from wreathalg import wreath_of_cyclics

    scheme = wreath_of_cyclics(ORDER64_MODULI)
    mats = [scheme.adjacency_matrix(i) for i in range(1, scheme.classes)]
    pairs = [(mats[i], mats[j]) for i in range(len(mats)) for j in range(i, len(mats))]
    mul_ms, eq_ms = [], []
    for _ in range(ORDER64_REPEATS):
        for a, b in pairs[:8]:
            started = time.perf_counter()
            ab = a * b
            mul_ms.append((time.perf_counter() - started) * 1000)
            ba = b * a
            started = time.perf_counter()
            equal = ab == ba
            eq_ms.append((time.perf_counter() - started) * 1000)
            # Adjacency matrices of a commutative scheme commute.
            if not equal:
                raise AssertionError("order-64 probe: A_i A_j != A_j A_i")
    return statistics.median(mul_ms), statistics.median(eq_ms)


def run_probes() -> dict:
    matmul_ms, mateq_ms = probe_order64()
    return {
        "exit_code": 0,
        "cyclotomic.mix10k_s": probe_cyclotomic_mix(),
        "linalg.matmul64_ms": matmul_ms,
        "linalg.mateq64_ms": mateq_ms,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("run", "setup", "trace", "mem", "probe"), required=True)
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("cli", nargs="*")
    args = parser.parse_args(argv)
    if args.mode == "trace" and not args.spans:
        parser.error("--mode trace needs --spans")
    sys.path.insert(0, SRC)
    sidecar = run_probes() if args.mode == "probe" else run_cli(args)
    tmp = args.sidecar + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle)
    os.replace(tmp, args.sidecar)
    return sidecar["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
