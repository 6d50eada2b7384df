"""Run the benchmark over several seeds and report the spread of every metric.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0|1]

For every workload, runs ``run.py`` once per seed for the ``run_seconds`` of
BENCHMARK.json, one run at a time, and
prints for every metric its median, quartiles and sample count.  For the
end-to-end metrics it also prints the quartile distance as a share of the
median next to the metric's bound from BENCHMARK.json, and ``fail_frac``
(failed over attempted invocations).  The environment stamp and the load
average before and after each workload's set of runs are printed and kept,
with every run's result, in ``.bench_out/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, env_stamp, summarize  # noqa: E402
from workloads import DIM_T  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    result["seed"] = seed
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Spread of the benchmark's metrics over seeds.")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    stamp = env_stamp()
    print(f"env {json.dumps(stamp)}")
    report = {"env": stamp, "seeds": seeds, "seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in sorted(DIM_T):
        before = os.getloadavg()
        results = [run_once(name, seed, seconds, args.trace) for seed in seeds]
        after = os.getloadavg()
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{name}: {len(results)} runs, loadavg before {before} after {after}")
        print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted}), all correct: "
              f"{all(r['correct'] for r in results)}")
        table = {}
        for metric, entry in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = summarize(values)
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            s.update(unit=entry["unit"], spread=spread, values=values)
            table[metric] = s
            line = (f"  {metric} [{entry['unit']}]: median {s['median']:.6g} q1 {s['q1']:.6g} "
                    f"q3 {s['q3']:.6g} n {s['n']}")
            if metric in bounds:
                line += f" spread {spread:.4f} bound {bounds[metric]}"
                line += " ok" if spread < bounds[metric] / 3 else " WIDE"
            print(line)
        report["workloads"][name] = {
            "loadavg_before": before,
            "loadavg_after": after,
            "fail_frac": failed / attempted,
            "wall_s": [r["wall_s"] for r in results],
            "metrics": table,
        }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
