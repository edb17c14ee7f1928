#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports run-to-run spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                                [--seconds S] [--save FILE]

For every workload and every metric of the chosen scope (end-to-end for
--trace 0, per-layer for --trace 1) it prints the median, the first and
third quartiles as statistics.quantiles(values, n=4) gives them, and the
spread (q3 - q1) / median. For end-to-end metrics it compares the spread
with a third of the metric's bound in BENCHMARK.json (setup_s is exempt:
it is gated on its median only). --save writes every value to a JSON
file, the form in which perfbench/baseline.json records a baseline.
Exits 1 when a run fails or a spread is over its limit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(q3 - q1) / median of `values`, quartiles as
    statistics.quantiles(values, n=4) gives them; 0 when the median is 0."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return proc.returncode == 0 and result["correct"], result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    saved = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            good, result = run_once(workload, seed, args.seconds, args.trace)
            if not good:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[workload] = {"seeds": seeds, "values": values}
        print(f"{workload} ({len(seeds)} seeds)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line = (f"  {name:34s} median {statistics.median(vals):<12.6g} "
                    f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {s:.4f}")
            if name in bounds and name != "setup_s":
                limit = bounds[name] / 3
                over = s > limit
                ok = ok and not over
                line += f"  limit {limit:.4f} {'OVER' if over else 'ok'}"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
